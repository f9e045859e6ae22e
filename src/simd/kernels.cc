// Kernel implementations for every dispatch level. x86 fast paths are
// compiled with per-function target attributes (no global -mavx2), so one
// binary carries all levels and simd_caps.cc picks at startup. All results
// are uniquely defined by the kernel contracts (first index satisfying a
// predicate, exact field bits), so levels may use different strategies —
// galloping vs block compare-and-count — and still agree bit-for-bit.
#include "simd/kernels.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace cqc {
namespace simd {
namespace detail {

namespace {

// ---------------------------------------------------------------------------
// Scalar twins. These pin the reference semantics; every vector kernel below
// must match them bit-for-bit (tests/simd_kernels_test.cc enforces it).
// ---------------------------------------------------------------------------

size_t SeekGEScalar(const Value* col, size_t begin, size_t end, Value v) {
  size_t lo = begin;
  if (lo >= end || col[lo] >= v) return lo;
  // col[lo] < v: gallop until the step overshoots, then binary-search the
  // last bracket. Invariant: col[prev] < v.
  size_t step = 1;
  size_t prev = lo;
  while (lo + step < end && col[lo + step] < v) {
    prev = lo + step;
    step <<= 1;
  }
  const size_t hi = std::min(lo + step, end);
  return std::lower_bound(col + prev + 1, col + hi, v) - col;
}

// Gallops on the equality predicate itself (rather than SeekGE(v + 1), which
// would overflow at v == UINT64_MAX). Invariant: col[lo] == v.
size_t RunEndGallop(const Value* col, size_t lo, size_t end, Value v) {
  size_t step = 1;
  while (lo + step < end && col[lo + step] == v) {
    lo += step;
    step <<= 1;
  }
  size_t hi = std::min(lo + step, end);
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (col[mid] == v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

size_t RunEndScalar(const Value* col, size_t pos, size_t end) {
  const Value v = col[pos];
  size_t i = pos + 1;
  // Short runs dominate; probe linearly, then gallop out of long runs.
  const size_t linear_end = std::min(end, pos + 32);
  while (i < linear_end && col[i] == v) ++i;
  if (i < linear_end || i >= end || col[i] != v) return i;
  return RunEndGallop(col, i, end, v);
}

void UnpackRowsScalar(const uint64_t* words, const PackedColSpec* cols,
                      int arity, size_t row_bits, size_t first, size_t n,
                      Value* out) {
  size_t base = first * row_bits;
  for (size_t r = 0; r < n; ++r, base += row_bits, out += arity) {
    for (int c = 0; c < arity; ++c) {
      const PackedColSpec& spec = cols[c];
      if (spec.mask == 0) {  // width-0 column: owns no bits, no load
        out[c] = 0;
        continue;
      }
      const size_t bitpos = base + spec.bit;
      const size_t w = bitpos >> 6;
      const unsigned off = (unsigned)(bitpos & 63);
      const uint64_t lo = words[w] >> off;
      const uint64_t hi = (words[w + 1] << 1) << (63 - off);
      out[c] = (lo | hi) & spec.mask;
    }
  }
}

constexpr KernelTable kScalarTable = {
    &SeekGEScalar, &RunEndScalar, &UnpackRowsScalar,
};

// ---------------------------------------------------------------------------
// x86: SSE4.2 (2 x u64 lanes, 16 x u8 / 4 x u32 compares) and AVX2
// (4 x u64 lanes, gathers + variable shifts). Unsigned 64-bit compares are
// built from the signed cmpgt by flipping the sign bit of both operands.
// ---------------------------------------------------------------------------
#if defined(__x86_64__) || defined(__i386__)

constexpr uint64_t kSignFlip = 0x8000000000000000ull;

__attribute__((target("sse4.2"))) size_t SeekGESse(const Value* col,
                                                   size_t begin, size_t end,
                                                   Value v) {
  size_t lo = begin;
  if (lo >= end || col[lo] >= v) return lo;
  size_t step = 1;
  size_t prev = lo;
  while (lo + step < end && col[lo + step] < v) {
    prev = lo + step;
    step <<= 1;
  }
  size_t hi = std::min(lo + step, end);
  size_t b = prev + 1;
  // Binary-narrow the bracket, then compare-and-count 2 lanes per step: the
  // column is sorted, so the first lane with col[i] >= v is the answer.
  while (hi - b > 32) {
    const size_t mid = b + (hi - b) / 2;
    if (col[mid] < v) {
      b = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m128i vflip = _mm_set1_epi64x((long long)(v ^ kSignFlip));
  const __m128i flip = _mm_set1_epi64x((long long)kSignFlip);
  size_t i = b;
  for (; i + 2 <= hi; i += 2) {
    const __m128i d = _mm_xor_si128(
        _mm_loadu_si128((const __m128i*)(col + i)), flip);
    // Lane set <=> col[i + lane] < v.
    const int m = _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpgt_epi64(vflip, d)));
    if (m != 0x3) return i + (size_t)__builtin_ctz(~(unsigned)m & 0x3u);
  }
  while (i < hi && col[i] < v) ++i;
  return i;
}

__attribute__((target("sse4.2"))) size_t RunEndSse(const Value* col,
                                                   size_t pos, size_t end) {
  const Value v = col[pos];
  size_t i = pos + 1;
  // Same hybrid shape as the AVX2 kernel: scalar for short runs, 2-lane
  // blocks for medium ones, gallop past pathological ones.
  const size_t linear_end = std::min(end, pos + 32);
  while (i < linear_end && col[i] == v) ++i;
  if (i < linear_end || i >= end || col[i] != v) return i;
  const __m128i vv = _mm_set1_epi64x((long long)v);
  const size_t scan_end = std::min(end, pos + 128);
  for (; i + 2 <= scan_end; i += 2) {
    const __m128i d = _mm_loadu_si128((const __m128i*)(col + i));
    const int m = _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(d, vv)));
    if (m != 0x3) return i + (size_t)__builtin_ctz(~(unsigned)m & 0x3u);
  }
  while (i < scan_end && col[i] == v) ++i;
  if (i < scan_end || i >= end || col[i] != v) return i;
  return RunEndGallop(col, i, end, v);
}

constexpr KernelTable kSseTable = {
    &SeekGESse, &RunEndSse, &UnpackRowsScalar,  // no gathers below AVX2
};

__attribute__((target("avx2"))) size_t SeekGEAvx2(const Value* col,
                                                  size_t begin, size_t end,
                                                  Value v) {
  size_t lo = begin;
  if (lo >= end || col[lo] >= v) return lo;
  size_t step = 1;
  size_t prev = lo;
  while (lo + step < end && col[lo + step] < v) {
    prev = lo + step;
    step <<= 1;
  }
  size_t hi = std::min(lo + step, end);
  size_t b = prev + 1;
  while (hi - b > 64) {
    const size_t mid = b + (hi - b) / 2;
    if (col[mid] < v) {
      b = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m256i vflip = _mm256_set1_epi64x((long long)(v ^ kSignFlip));
  const __m256i flip = _mm256_set1_epi64x((long long)kSignFlip);
  size_t i = b;
  for (; i + 4 <= hi; i += 4) {
    const __m256i d = _mm256_xor_si256(
        _mm256_loadu_si256((const __m256i*)(col + i)), flip);
    const int m =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vflip, d)));
    if (m != 0xF) return i + (size_t)__builtin_ctz(~(unsigned)m & 0xFu);
  }
  while (i < hi && col[i] < v) ++i;
  return i;
}

__attribute__((target("avx2"))) size_t RunEndAvx2(const Value* col, size_t pos,
                                                  size_t end) {
  const Value v = col[pos];
  size_t i = pos + 1;
  // Short runs: a scalar compare per element beats the vector pipeline's
  // compare->movemask->branch latency. Vector lanes only pay from ~32
  // elements on, where whole blocks are skipped per branch.
  const size_t linear_end = std::min(end, pos + 32);
  while (i < linear_end && col[i] == v) ++i;
  if (i < linear_end || i >= end || col[i] != v) return i;
  const __m256i vv = _mm256_set1_epi64x((long long)v);
  const size_t scan_end = std::min(end, pos + 256);
  for (; i + 4 <= scan_end; i += 4) {
    const __m256i d = _mm256_loadu_si256((const __m256i*)(col + i));
    const int m =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(d, vv)));
    if (m != 0xF) return i + (size_t)__builtin_ctz(~(unsigned)m & 0xFu);
  }
  while (i < scan_end && col[i] == v) ++i;
  if (i < scan_end || i >= end || col[i] != v) return i;
  return RunEndGallop(col, i, end, v);
}

// Batch decode, 4 rows per step: per column, gather the two covering words
// of all 4 rows, splice with variable shifts (sllv/srlv), mask, and scatter
// the lanes into the row-major output. The (x << 1) << (63 - off) splice is
// the same branch-free idiom as the scalar GetBits.
__attribute__((target("avx2"))) void UnpackRowsAvx2(
    const uint64_t* words, const PackedColSpec* cols, int arity,
    size_t row_bits, size_t first, size_t n, Value* out) {
  const __m256i row_off = _mm256_setr_epi64x(
      0, (long long)row_bits, (long long)(2 * row_bits),
      (long long)(3 * row_bits));
  const __m256i six3 = _mm256_set1_epi64x(63);
  const __m256i one = _mm256_set1_epi64x(1);
  size_t r = 0;
  size_t base = first * row_bits;
  alignas(32) uint64_t tmp[4];
  for (; r + 4 <= n; r += 4, base += 4 * row_bits, out += 4 * arity) {
    for (int c = 0; c < arity; ++c) {
      const PackedColSpec& spec = cols[c];
      if (spec.mask == 0) {
        out[0 * arity + c] = 0;
        out[1 * arity + c] = 0;
        out[2 * arity + c] = 0;
        out[3 * arity + c] = 0;
        continue;
      }
      const __m256i bitpos = _mm256_add_epi64(
          _mm256_set1_epi64x((long long)(base + spec.bit)), row_off);
      const __m256i w = _mm256_srli_epi64(bitpos, 6);
      const __m256i off = _mm256_and_si256(bitpos, six3);
      const __m256i w0 =
          _mm256_i64gather_epi64((const long long*)words, w, 8);
      const __m256i w1 = _mm256_i64gather_epi64(
          (const long long*)words, _mm256_add_epi64(w, one), 8);
      const __m256i lo = _mm256_srlv_epi64(w0, off);
      const __m256i hi = _mm256_sllv_epi64(_mm256_sllv_epi64(w1, one),
                                           _mm256_sub_epi64(six3, off));
      const __m256i val = _mm256_and_si256(
          _mm256_or_si256(lo, hi), _mm256_set1_epi64x((long long)spec.mask));
      _mm256_store_si256((__m256i*)tmp, val);
      out[0 * arity + c] = tmp[0];
      out[1 * arity + c] = tmp[1];
      out[2 * arity + c] = tmp[2];
      out[3 * arity + c] = tmp[3];
    }
  }
  if (r < n) {
    UnpackRowsScalar(words, cols, arity, row_bits, first + r, n - r, out);
  }
}

constexpr KernelTable kAvx2Table = {
    &SeekGEAvx2, &RunEndAvx2, &UnpackRowsAvx2,
};

#endif  // x86

// ---------------------------------------------------------------------------
// aarch64: NEON is baseline; 2 x u64 lanes with native unsigned compares.
// ---------------------------------------------------------------------------
#if defined(__aarch64__)

inline uint32_t Mask2(uint64x2_t cmp) {
  return (uint32_t)(vgetq_lane_u64(cmp, 0) & 1) |
         ((uint32_t)(vgetq_lane_u64(cmp, 1) & 1) << 1);
}

size_t SeekGENeon(const Value* col, size_t begin, size_t end, Value v) {
  size_t lo = begin;
  if (lo >= end || col[lo] >= v) return lo;
  size_t step = 1;
  size_t prev = lo;
  while (lo + step < end && col[lo + step] < v) {
    prev = lo + step;
    step <<= 1;
  }
  size_t hi = std::min(lo + step, end);
  size_t b = prev + 1;
  while (hi - b > 32) {
    const size_t mid = b + (hi - b) / 2;
    if (col[mid] < v) {
      b = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64x2_t vv = vdupq_n_u64(v);
  size_t i = b;
  for (; i + 2 <= hi; i += 2) {
    const uint64x2_t d = vld1q_u64(col + i);
    const uint32_t m = Mask2(vcltq_u64(d, vv));  // lane set <=> col[i] < v
    if (m != 0x3) return i + (size_t)__builtin_ctz(~m & 0x3u);
  }
  while (i < hi && col[i] < v) ++i;
  return i;
}

size_t RunEndNeon(const Value* col, size_t pos, size_t end) {
  const Value v = col[pos];
  const uint64x2_t vv = vdupq_n_u64(v);
  size_t i = pos + 1;
  const size_t scan_end = std::min(end, pos + 64);
  for (; i + 2 <= scan_end; i += 2) {
    const uint64x2_t d = vld1q_u64(col + i);
    const uint32_t m = Mask2(vceqq_u64(d, vv));
    if (m != 0x3) return i + (size_t)__builtin_ctz(~m & 0x3u);
  }
  while (i < scan_end && col[i] == v) ++i;
  if (i < scan_end || i >= end || col[i] != v) return i;
  return RunEndGallop(col, i, end, v);
}

constexpr KernelTable kNeonTable = {
    &SeekGENeon, &RunEndNeon, &UnpackRowsScalar,  // no gather on NEON
};

#endif  // aarch64

}  // namespace

// Constant-initialized to scalar so kernels called before dispatch init (or
// from other TUs' static initializers) are already correct, just unboosted.
const KernelTable* g_active = &kScalarTable;

const KernelTable* TableFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarTable;
#if defined(__x86_64__) || defined(__i386__)
    case Level::kSSE42:
      return &kSseTable;
    case Level::kAVX2:
      return &kAvx2Table;
#endif
#if defined(__aarch64__)
    case Level::kNEON:
      return &kNeonTable;
#endif
    default:
      return &kScalarTable;
  }
}

}  // namespace detail
}  // namespace simd
}  // namespace cqc
