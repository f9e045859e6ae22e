// The auxiliary dictionary D (§4.3, step 2; Appendix A).
//
// For each delay-balanced-tree node w at level l and each bound valuation
// v_b such that (v_b, I(w)) is tau_l-heavy, D stores one bit: whether the
// join restricted to I(w) under v_b is non-empty. Pairs without an entry
// are light; Algorithm 2 evaluates them directly in O~(tau_l).
//
// Construction follows Appendix A:
//   (a) candidate bound valuations = the worst-case-optimal join of the
//       bound-variable projections of the atoms touching V_b (Prop. 13);
//   (b) per node, the heavy candidates are found with the O~(1) counting
//       oracle, and each heavy pair's bit is set by an early-terminating
//       WCOJ emptiness probe per box of the interval's decomposition. The
//       NPRR query-decomposition lemma bounds the total probe work by the
//       same O~(prod |R_F|^{u_F}) as the paper's streaming variant.
//   Entries propagate downward only for pairs whose bit is 1: Algorithm 2
//   never descends past a light or empty node, so deeper entries for such
//   valuations are unreachable.
//   (c) Seal() keeps only the candidates some entry names. A valuation
//   with no entry is light at every node, and a missing valuation says
//   exactly that: FindValuation returns kNoValuation, Lookup kAbsent, and
//   Algorithm 2 evaluates it directly.
//
// Storage is flat: interned valuations live in one pool (vb_arity values
// per referenced candidate, dense ids = pool order), and the per-node
// entries are a CSR — one offsets array over the tree's node ids plus
// parallel (valuation id, bit) entry columns sorted by id within each
// node. The builder appends candidates in lex order from one join pass,
// and Seal() checks that order and keeps it when it drops rows, so the
// pool is its own index: FindValuation is a binary search over pool rows,
// O(log candidates), the same code for a built and a loaded dictionary.
// A lookup is then two array reads and a binary search over a contiguous
// slice. During construction the pool is a raw Value array holding the
// whole bound join (spans stay valid for the builder's probes); Seal()
// compacts it to the referenced rows, bit-packs it to per-column minimal
// widths (core/bitpack.h) and drops the raw copy, so the served
// dictionary pays packed bits per candidate and decodes rows branch-free.
// The whole dictionary serializes as flat array blocks (packed words
// included, mmap-friendly).
//
// Thread safety — the read-only-after-seal contract. Construction
// (AddCandidate) grows the candidate pool, which MOVES memory: a
// concurrent reader holding a TupleSpan from candidate() would chase freed
// storage. AddCandidate is therefore builder-private and asserts
// (CQC_DCHECK) that the dictionary is not yet sealed; the builder and the
// deserializer seal the finished dictionary, after which every accessor
// reads immutable flat arrays — there is no lazily built state — and any
// number of enumeration threads may share one instance. The one post-seal
// mutation is SetBit (the Algorithm 4 semijoin fixup): it flips a byte in
// place — no reallocation, spans stay valid — but it is NOT synchronized,
// so run the fixup before the structure is shared across threads.
#ifndef CQC_CORE_DICTIONARY_H_
#define CQC_CORE_DICTIONARY_H_

#include <cstring>
#include <vector>

#include "core/bitpack.h"
#include "core/cost_model.h"
#include "core/dbtree.h"
#include "core/lex_domain.h"
#include "join/bound_atom.h"
#include "util/col_store.h"

namespace cqc {

class HeavyDictionary {
 public:
  enum class Bit : uint8_t { kZero = 0, kOne = 1, kAbsent = 2 };

  /// Dictionary lookup for (node, interned valuation id). O(log entries).
  Bit Lookup(int node, uint32_t vb_id) const;

  /// Position of the (node, vb_id) entry in the CSR entry columns, or
  /// kNoEntry when absent — the index the per-entry aggregate annotation
  /// columns are addressed by. Same binary search as Lookup.
  static constexpr size_t kNoEntry = ~(size_t)0;
  size_t LookupEntryIndex(int node, uint32_t vb_id) const;

  /// Id of bound valuation `vb` (binary search over the lex-sorted pool),
  /// or kNoValuation if it has no entry at any node (light everywhere) or
  /// has the wrong arity.
  static constexpr uint32_t kNoValuation = ~0u;
  uint32_t FindValuation(TupleSpan vb) const;

  size_t NumEntries() const { return entry_vb_.size(); }
  size_t NumCandidates() const { return num_candidates_; }
  /// Number of CSR entries stored for `node` (0 for out-of-range nodes) —
  /// a density signal the ShardPlanner folds into its per-subtree weights.
  size_t NumEntriesAt(int node) const {
    if (node < 0 || (size_t)node + 1 >= node_offsets_.size()) return 0;
    return node_offsets_[node + 1] - node_offsets_[node];
  }
  size_t MemoryBytes() const;

  /// Arity of every interned valuation (the number of bound variables).
  int vb_arity() const { return vb_arity_; }

  /// Build-time view of interned candidate `id` (bound order) into the raw
  /// pool. Valid only before Seal() — the raw pool is dropped when the
  /// packed pool takes over.
  TupleSpan candidate(uint32_t id) const {
    CQC_DCHECK(!sealed_) << "candidate() span on a sealed (packed) dictionary";
    return TupleSpan(candidate_pool_.data() + (size_t)id * vb_arity_,
                     (size_t)vb_arity_);
  }

  /// Decodes candidate `id` into `out` (vb_arity() slots). Works before and
  /// after Seal(); post-seal this is the branch-free bit-packed unpack.
  void UnpackCandidate(uint32_t id, Value* out) const {
    if (sealed_) {
      packed_pool_.UnpackRow(id, out);
    } else {
      const Value* src = candidate_pool_.data() + (size_t)id * vb_arity_;
      for (int c = 0; c < vb_arity_; ++c) out[c] = src[c];
    }
  }

  /// Decodes candidates [first, first + n) into `out` (row-major,
  /// n * vb_arity() slots) — identical output to n UnpackCandidate calls;
  /// post-seal this is the SIMD batch unpack of the packed pool.
  void UnpackCandidates(uint32_t first, size_t n, Value* out) const {
    if (sealed_) {
      packed_pool_.UnpackRows(first, n, out);
    } else if (vb_arity_ > 0 && n > 0) {
      std::memcpy(out, candidate_pool_.data() + (size_t)first * vb_arity_,
                  n * (size_t)vb_arity_ * sizeof(Value));
    }
  }

  /// Materializes candidate `id` (tests / cold paths).
  Tuple Candidate(uint32_t id) const {
    Tuple t(vb_arity_);
    UnpackCandidate(id, t.data());
    return t;
  }

  /// Flips an existing entry's bit (used by the Theorem-2 semijoin fixup,
  /// Algorithm 4). CHECK-fails if the entry is absent, or if the bit
  /// column borrows mapped (read-only) storage — the fixup runs at build
  /// time, never against a loaded snapshot.
  void SetBit(int node, uint32_t vb_id, bool bit);

  /// Visits every entry of `node` as fn(vb_id, bit).
  template <typename Fn>
  void ForEachEntry(int node, Fn&& fn) const {
    if (node < 0 || (size_t)node + 1 >= node_offsets_.size()) return;
    for (uint32_t i = node_offsets_[node]; i < node_offsets_[node + 1]; ++i)
      fn(entry_vb_[i], entry_bit_[i] != 0);
  }

  /// Reassembles a sealed dictionary from an already-packed pool (the
  /// deserialization path — no unpack/repack round trip). `node_offsets`
  /// has num_nodes + 1 entries; within a node's slice the `entry_vb` ids
  /// must be strictly ascending. The CSR columns may be owned (vectors
  /// convert implicitly) or borrowed from a mapping. Nothing is built
  /// over or read from the pool, so it costs O(1) whatever the pool size;
  /// the pool's lex order is not re-checked here (Seal checked it when it
  /// was built). A pool with rows no entry names (files from builds that
  /// kept the whole bound join) loads and answers the same.
  static HeavyDictionary FromPacked(int vb_arity, size_t num_candidates,
                                    PackedTuplePool pool,
                                    ColStore<uint32_t> node_offsets,
                                    ColStore<uint32_t> entry_vb,
                                    ColStore<uint8_t> entry_bit);

  // --- per-entry aggregate annotations (ring cells) ------------------------
  // Optional columns parallel to the CSR entry columns, attached after the
  // annotation build (or borrowed from a mapping) for bound reps
  // (num_bound > 0): entry e — a heavy (node, vb) pair — carries the result
  // count of that subtree under that bound valuation plus per-free-variable
  // ring sums / mins / maxs (layout as in core/aggregate.h RingCell; mu is
  // carried by the owning rep). Only bit == 1 entries hold meaningful
  // cells; bit == 0 entries stay at the ring identities.

  /// `counts` has one entry per CSR entry, `vals` 3 * mu per entry.
  void AttachAggregates(ColStore<uint64_t> counts, ColStore<Value> vals,
                        int mu);

  bool has_aggregates() const { return !entry_agg_count_.empty(); }
  uint64_t entry_agg_count(size_t e) const { return entry_agg_count_[e]; }
  /// The 3 * mu annotation values of entry `e`.
  const Value* entry_agg_vals(size_t e) const {
    return entry_agg_vals_.data() + e * (size_t)(3 * agg_mu_);
  }

  // Flat column access (serialization).
  const PackedTuplePool& packed_pool() const { return packed_pool_; }
  const ColStore<uint32_t>& node_offsets() const { return node_offsets_; }
  const ColStore<uint32_t>& entry_vbs() const { return entry_vb_; }
  const ColStore<uint8_t>& entry_bits() const { return entry_bit_; }
  const ColStore<uint64_t>& entry_agg_counts() const {
    return entry_agg_count_;
  }
  const ColStore<Value>& entry_agg_vals_pool() const {
    return entry_agg_vals_;
  }

  /// Freezes the structure: CHECKs that the candidate pool is in strict
  /// lex order (FindValuation's binary search relies on it), drops the
  /// candidates no entry names (compacting the pool in place and renumbering
  /// entry ids through the monotone old -> new map, so order and per-node
  /// sorting hold), bit-packs it (dropping the raw build-time copy) and
  /// makes any later AddCandidate a contract violation (enumeration must
  /// never mutate a shared dictionary) that aborts in debug/sanitizer
  /// builds.
  void Seal();
  bool sealed() const { return sealed_; }

 private:
  friend class DictionaryBuilder;

  /// Appends `vb` to the pool, assigning the next dense id. Build-time
  /// only: invalidates candidate() spans (pool growth) — asserts !sealed().
  /// Candidates must arrive in strict lex order (checked at Seal).
  uint32_t AddCandidate(TupleSpan vb);

  bool sealed_ = false;
  int vb_arity_ = 0;
  size_t num_candidates_ = 0;
  // Build-time raw pool (num_candidates * vb_arity); cleared by Seal().
  std::vector<Value> candidate_pool_;
  // Post-seal bit-packed pool (core/bitpack.h).
  PackedTuplePool packed_pool_;

  // CSR entries: node_offsets_[n] .. node_offsets_[n+1] index the parallel
  // entry columns, sorted by valuation id within each node. Owned after a
  // build; borrowed from the snapshot file on a load.
  ColStore<uint32_t> node_offsets_;
  ColStore<uint32_t> entry_vb_;
  ColStore<uint8_t> entry_bit_;
  // Optional per-entry aggregate annotation columns (see above).
  int agg_mu_ = 0;
  ColStore<uint64_t> entry_agg_count_;
  ColStore<Value> entry_agg_vals_;
};

/// Builds the dictionary for a tree; see file comment.
class DictionaryBuilder {
 public:
  DictionaryBuilder(const std::vector<BoundAtom>* atoms,
                    const CostModel* cost, const DelayBalancedTree* tree,
                    const LexDomain* domain, int num_bound, double tau,
                    double alpha);

  HeavyDictionary Build();

 private:
  struct Entry {
    uint32_t vb;
    uint8_t bit;
  };

  // Enumerates the candidate bound valuations (join over bound variables).
  void CollectCandidates(HeavyDictionary* dict);
  // One node's heavy-pair sweep: entries out, surviving candidates to
  // `live`. Thread-safe for distinct nodes (reads shared state only).
  void ProcessOne(const HeavyDictionary& dict, std::vector<Entry>* entries,
                  int node, const std::vector<FBox>& boxes,
                  const std::vector<uint32_t>& cand,
                  std::vector<uint32_t>* live) const;
  // Recursive heavy-pair sweep appending into `staging` (per tree node).
  void ProcessNode(HeavyDictionary* dict,
                   std::vector<std::vector<Entry>>* staging, int node,
                   const FInterval& interval,
                   const std::vector<uint32_t>& cand);
  // True iff the join under vb restricted to `boxes` is non-empty.
  bool ProbeNonEmpty(TupleSpan vb, const std::vector<FBox>& boxes) const;

  const std::vector<BoundAtom>* atoms_;
  const CostModel* cost_;
  const DelayBalancedTree* tree_;
  const LexDomain* domain_;
  int num_bound_;
  double tau_;
  double alpha_;
};

}  // namespace cqc

#endif  // CQC_CORE_DICTIONARY_H_
