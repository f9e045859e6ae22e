// HashIndex: a flat open-addressed membership index over a sealed relation.
//
// The index-selection policy of the probe path: isolated *point* membership
// checks (Relation::Contains, BoundAtom::ContainsValuation, the aggregate
// walks' split points, the update-path derivability filter) route here;
// Algorithm 2's enumeration split points are hinted seeks of the request's
// forward join cursor instead (they arrive in lex order); *lex-range*
// iteration and the O~(1) counting oracle stay on SortedIndex, which is the
// only structure that can refine an ordered prefix. A sorted probe is
// O(arity log N) branchy binary searches; a hash probe is one mixed hash,
// one group compare, and (usually) one row comparison.
//
// Layout is two parallel flat arrays over a power-of-two slot count:
//   fps_[slot]   one fingerprint byte (top bits of the row hash),
//   rows_[slot]  the relation row id, or kEmptySlot.
// Linear probing at <= 50% load keeps clusters short. Single point probes
// (Contains) walk slot by slot — the expected cluster is 1-2 slots, so the
// dependent chain ends immediately. Batched probes (ContainsBatch) examine
// simd::kGroupWidth slots at a time: one vector compare of the fingerprint
// bytes yields the candidate mask of a whole window, and one compare of the
// row ids yields its empty-slot mask (the cluster terminator). Both arrays
// carry kGroupWidth mirrored pad slots past the capacity so a window
// starting anywhere reads contiguously — no wraparound inside a group.
// ContainsBatch amortizes further: it hashes and prefetches a block of 8
// probes before the first compare, the shape the tombstone filter in
// core/updatable_rep.cc drains.
//
// Thread safety: built once (Relation caches it behind a call_once) and
// immutable afterwards; any number of threads may probe concurrently.
#ifndef CQC_RELATIONAL_HASH_INDEX_H_
#define CQC_RELATIONAL_HASH_INDEX_H_

#include <cstdint>
#include <vector>

#include "util/common.h"

namespace cqc {

class Relation;

class HashIndex {
 public:
  /// Builds the index over `rel` (must be sealed).
  explicit HashIndex(const Relation& rel);

  /// True iff the relation contains `t` (schema column order).
  bool Contains(TupleSpan t) const;

  /// Membership for `n` tuples laid out row-major in `flat` (n * arity
  /// values): out[i] = 1 iff Contains(tuple i). Equivalent to n Contains
  /// calls, but hashes and prefetches 8 probes ahead of the compare loop so
  /// the table misses overlap.
  void ContainsBatch(const Value* flat, size_t n, uint8_t* out) const;

  size_t num_rows() const { return num_rows_; }
  size_t capacity() const { return mask_ + 1; }
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kEmptySlot = ~0u;

  bool ProbeGroups(uint64_t h, const Value* t, size_t arity) const;

  // First row of each column's post-seal storage; the relation outlives the
  // index (it owns it), and sealed columns never move.
  std::vector<const Value*> cols_;
  size_t num_rows_ = 0;
  size_t mask_ = 0;  // capacity - 1
  std::vector<uint8_t> fps_;    // capacity + kGroupWidth mirrored pad slots
  std::vector<uint32_t> rows_;  // capacity + kGroupWidth mirrored pad slots
};

}  // namespace cqc

#endif  // CQC_RELATIONAL_HASH_INDEX_H_
