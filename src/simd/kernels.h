// SIMD kernels for the two hottest inner loops, behind runtime dispatch
// (simd/simd_caps.h):
//
//   * SeekGE / RunEnd — sorted-column search steps backing
//     SortedIndex::SeekGE and the run scans in JoinIterator: block
//     compare-and-count probes (4–16 lanes per step) replace one-element
//     galloping and linear run probes, with a scalar tail for the last
//     partial block.
//   * UnpackRows — batch decode of bit-packed tuple rows
//     (core/bitpack.h): per column, gather the two covering words for a
//     block of rows and splice with vector variable shifts, instead of the
//     scalar two-word splice per field.
//
// Every kernel has a scalar twin with IDENTICAL output semantics (the
// differential suite in tests/simd_kernels_test.cc sweeps all levels and
// asserts bit-identical results); levels differ in instruction choice
// only. Calls go through one function-pointer table swapped by
// simd::SetLevel — kernels process blocks, so the indirect call is
// amortized.
#ifndef CQC_SIMD_KERNELS_H_
#define CQC_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/simd_caps.h"
#include "util/common.h"

namespace cqc {
namespace simd {

/// Per-column decode constants of a bit-packed row layout, hoisted into one
/// contiguous plan array (built once per pool) so decode loops read a
/// single cache line instead of three parallel vectors.
struct PackedColSpec {
  uint32_t bit = 0;      // bit offset of the column within a row
  uint32_t width = 0;    // field width in bits (0..64)
  uint64_t mask = 0;     // (1 << width) - 1, ~0 for width 64, 0 for width 0
};

namespace detail {

/// The dispatch table. One instance per level lives in kernels.cc; the
/// active pointer is swapped by simd::SetLevel.
struct KernelTable {
  /// First i in [begin, end) with col[i] >= v (col sorted ascending);
  /// `end` when none. Galloping + block count; O(log d) from `begin`.
  size_t (*seek_ge)(const Value* col, size_t begin, size_t end, Value v);
  /// First i in (pos, end) with col[i] != col[pos]; `end` when the run
  /// covers the suffix. col sorted ascending, pos < end.
  size_t (*run_end)(const Value* col, size_t pos, size_t end);
  /// Decodes rows [first, first + n) of a packed pool into `out`
  /// (row-major, n * arity values). `words` must carry the pool's pad
  /// word; zero-width columns never touch memory.
  void (*unpack_rows)(const uint64_t* words, const PackedColSpec* cols,
                      int arity, size_t row_bits, size_t first, size_t n,
                      Value* out);
};

extern const KernelTable* g_active;

}  // namespace detail

inline size_t SeekGE(const Value* col, size_t begin, size_t end, Value v) {
  return detail::g_active->seek_ge(col, begin, end, v);
}

inline size_t RunEnd(const Value* col, size_t pos, size_t end) {
  return detail::g_active->run_end(col, pos, end);
}

inline void UnpackRows(const uint64_t* words, const PackedColSpec* cols,
                       int arity, size_t row_bits, size_t first, size_t n,
                       Value* out) {
  detail::g_active->unpack_rows(words, cols, arity, row_bits, first, n, out);
}

}  // namespace simd
}  // namespace cqc

#endif  // CQC_SIMD_KERNELS_H_
