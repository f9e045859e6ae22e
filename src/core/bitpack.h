// PackedTuplePool: fixed-arity tuples bit-packed at per-column widths.
//
// The HeavyDictionary's candidate pool stores every interned bound
// valuation; as raw u64 values it costs arity * 8 bytes per candidate even
// though real domains are dense small integers. This pool packs each column
// to ceil(log2(max+1)) bits, rows laid out back to back in one contiguous
// word array:
//
//   row bits   = sum of column widths (constant per pool)
//   bit offset = row * row_bits + prefix[col]
//
// Decoding is branch-free on the data: a field spans at most two 64-bit
// words, and the two-word splice below compiles to shifts/or/and with no
// data-dependent branches (the off == 0 case is folded by the
// (x << 1) << (63 - off) idiom, which is 0 exactly when off == 0); the
// only branch is the per-column constant width == 0 test, which the
// predictor resolves once. The words array is padded with one zero word so
// the w+1 read of a width > 0 field never leaves the allocation (width-0
// fields skip the read entirely — their offset may sit past the pad).
//
// The pool is immutable once built — Pack() over the finished flat pool or
// FromFlatParts() from a deserialized blob — and safe for concurrent reads.
// The word array is a ColStore (util/col_store.h): owned after Pack(), and
// optionally *borrowed* straight out of an mmap'ed rep file by the
// zero-copy load path. The on-disk word block includes the trailing zero
// pad word (it is part of WordCount()), so borrowed decode reads of word
// w+1 stay inside the mapped block.
#ifndef CQC_CORE_BITPACK_H_
#define CQC_CORE_BITPACK_H_

#include <cstdint>
#include <vector>

#include "simd/kernels.h"
#include "util/col_store.h"
#include "util/common.h"
#include "util/logging.h"

namespace cqc {

class PackedTuplePool {
 public:
  PackedTuplePool() = default;

  /// Packs `flat` (row-major, size a multiple of `arity`) at the minimal
  /// per-column widths. arity 0 keeps only the row count.
  static PackedTuplePool Pack(const std::vector<Value>& flat, int arity,
                              size_t num_rows) {
    PackedTuplePool p;
    p.arity_ = arity;
    p.num_rows_ = num_rows;
    p.widths_.assign((size_t)arity, 0);
    if (arity > 0) {
      CQC_CHECK_EQ(flat.size(), num_rows * (size_t)arity);
      for (size_t r = 0; r < num_rows; ++r)
        for (int c = 0; c < arity; ++c) {
          const Value v = flat[r * arity + c];
          const uint8_t need = v == 0 ? 0 : (uint8_t)(64 - __builtin_clzll(v));
          if (need > p.widths_[c]) p.widths_[c] = need;
        }
    }
    p.FinishLayout();
    std::vector<uint64_t> words(p.WordCount(), 0);
    for (size_t r = 0; r < num_rows; ++r)
      for (int c = 0; c < arity; ++c)
        PutBits(words.data(), r * p.row_bits_ + p.plan_[c].bit, p.widths_[c],
                flat[r * (size_t)arity + c]);
    p.words_ = ColStore<uint64_t>(std::move(words));
    return p;
  }

  /// Rebuilds from serialized parts. `words` must be exactly the padded
  /// word count for (num_rows, widths); CHECK-fails otherwise (callers
  /// validate sizes before constructing). `words` may be a borrowed
  /// ColStore over a mapping (the zero-copy load path); vectors convert
  /// implicitly for the owned path.
  static PackedTuplePool FromFlatParts(int arity, size_t num_rows,
                                       std::vector<uint8_t> widths,
                                       ColStore<uint64_t> words) {
    PackedTuplePool p;
    p.arity_ = arity;
    p.num_rows_ = num_rows;
    p.widths_ = std::move(widths);
    CQC_CHECK_EQ(p.widths_.size(), (size_t)arity);
    p.FinishLayout();
    CQC_CHECK_EQ(words.size(), p.WordCount());
    p.words_ = std::move(words);
    return p;
  }

  size_t size() const { return num_rows_; }
  int arity() const { return arity_; }
  size_t row_bits() const { return row_bits_; }

  /// Column `col` of row `id`. Branch-free two-word extract.
  Value At(size_t id, int col) const {
    return GetBits(id * row_bits_ + plan_[col].bit, plan_[col].mask);
  }

  /// Unpacks row `id` into `out` (arity() slots). The per-column loop body
  /// is a fixed shift/or/and sequence — no data-dependent branches.
  void UnpackRow(size_t id, Value* out) const {
    const size_t base = id * row_bits_;
    for (int c = 0; c < arity_; ++c)
      out[c] = GetBits(base + plan_[c].bit, plan_[c].mask);
  }

  /// Unpacks rows [first, first + n) into `out` (row-major, n * arity()
  /// slots) through the dispatched SIMD kernel — identical output to n
  /// UnpackRow calls, decoded in 4-row gather blocks where the CPU allows.
  void UnpackRows(size_t first, size_t n, Value* out) const {
    if (n == 0 || arity_ == 0) return;
    simd::UnpackRows(words_.data(), plan_.data(), arity_, row_bits_, first, n,
                     out);
  }

  size_t MemoryBytes() const {
    // Borrowed word blocks charge their mapped extent (the logical size):
    // the pool is the dominant dictionary component and pricing it at zero
    // would let a byte-budgeted planner treat a 100 MB rep as free.
    return sizeof(*this) +
           (words_.borrowed() ? words_.ByteSize() : words_.MemoryBytes()) +
           widths_.capacity() +
           plan_.capacity() * sizeof(simd::PackedColSpec);
  }

  // Serialization raw parts.
  const std::vector<uint8_t>& widths() const { return widths_; }
  const ColStore<uint64_t>& words() const { return words_; }

 private:
  // Derives the decode plan from widths_: one contiguous array of
  // (bit offset, width, mask) per column, so decode loops walk a single
  // cache-friendly spec array instead of three parallel vectors. The same
  // plan feeds the SIMD batch kernel directly.
  void FinishLayout() {
    plan_.resize(widths_.size());
    row_bits_ = 0;
    for (size_t c = 0; c < widths_.size(); ++c) {
      CQC_CHECK_LE(widths_[c], 64);
      plan_[c].bit = (uint32_t)row_bits_;
      plan_[c].width = widths_[c];
      plan_[c].mask = widths_[c] == 64 ? ~0ull : ((1ull << widths_[c]) - 1);
      row_bits_ += widths_[c];
    }
  }

  // Payload words plus one zero pad word (so GetBits may read word w+1).
  // A pool with no payload bits needs no words at all: GetBits is never
  // reached (zero rows, or zero-width rows whose per-column loop is empty).
  size_t WordCount() const {
    const size_t payload_bits = num_rows_ * row_bits_;
    return payload_bits == 0 ? 0 : (payload_bits + 63) / 64 + 1;
  }

  Value GetBits(size_t bitpos, uint64_t mask) const {
    // Width-0 columns (all-zero values) own no bits: their offset can sit
    // at or past the payload end — possibly past the pad word, or in an
    // entirely empty words array — so they must not touch memory at all.
    if (mask == 0) return 0;
    const size_t w = bitpos >> 6;
    const unsigned off = (unsigned)(bitpos & 63);
    const uint64_t lo = words_[w] >> off;
    const uint64_t hi = (words_[w + 1] << 1) << (63 - off);
    return (lo | hi) & mask;
  }

  static void PutBits(uint64_t* words, size_t bitpos, uint8_t width,
                      Value v) {
    if (width == 0) return;
    const size_t w = bitpos >> 6;
    const unsigned off = (unsigned)(bitpos & 63);
    words[w] |= v << off;
    if (off + width > 64) words[w + 1] |= v >> (64 - off);
  }

  int arity_ = 0;
  size_t num_rows_ = 0;
  size_t row_bits_ = 0;
  std::vector<uint8_t> widths_;
  std::vector<simd::PackedColSpec> plan_;  // derived from widths_
  ColStore<uint64_t> words_;  // owned after Pack(); borrowed on mmap load
};

}  // namespace cqc

#endif  // CQC_CORE_BITPACK_H_
