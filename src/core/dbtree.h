// The delay-balanced tree (§4.3, step 1).
//
// An annotated binary tree over f-intervals: the root covers the whole free
// domain D_f; a node at level l whose cost T(I(w)) reaches the level
// threshold tau_l = tau * 2^{-l(1-1/alpha)} is split at the balanced point
// beta(w) computed by Algorithm 1, producing children over [a, beta) and
// (beta, c]. Lemma 4: T halves per level, so depth is O(log T) and size
// O(T / tau^alpha)-ish.
//
// Storage is struct-of-arrays: nodes are rows of parallel flat vectors
// (split-point pool, child offsets, cost/level/leaf annotations) indexed by
// node id, with node 0 the root and children at higher ids (preorder). Every
// split point lives in one contiguous `beta` pool at offset id * mu, so a
// lookup is pointer arithmetic (returned as TupleSpan), traversal touches
// adjacent cache lines, and the whole tree serializes as a handful of flat
// array blocks. The columns are ColStores (util/col_store.h): owned after
// Build(), or borrowed straight out of an mmap'ed rep file by the zero-copy
// load path — the accessor surface is identical either way. A node's
// interval is still recomputed from the root interval and the betas along
// the path, keeping per-node space O(mu).
#ifndef CQC_CORE_DBTREE_H_
#define CQC_CORE_DBTREE_H_

#include <algorithm>
#include <vector>

#include "core/cost_model.h"
#include "core/finterval.h"
#include "core/lex_domain.h"
#include "util/col_store.h"

namespace cqc {

/// Materialized row view of one tree node — inspection, tests and printing;
/// the hot paths use the flat per-field accessors on DelayBalancedTree.
struct DbTreeNode {
  Tuple beta;          // split point; empty for leaves
  int32_t left = -1;   // child over [lo, pred(beta)]
  int32_t right = -1;  // child over [succ(beta), hi]
  float cost = 0;      // T(I(w)) at build time (diagnostic)
  uint16_t level = 0;
  bool leaf = true;
};

class DelayBalancedTree {
 public:
  struct BuildParams {
    double tau = 1.0;
    double alpha = 1.0;        // slack of the cover on the free variables
    size_t max_nodes = 1u << 27;  // safety valve
  };

  /// Empty tree (used when some free domain is empty).
  DelayBalancedTree() = default;

  static DelayBalancedTree Build(const LexDomain& domain,
                                 const CostModel& cost, BuildParams params);

  /// Reassembles a tree from its flat arrays (deserialization only). The
  /// columns are the SoA blocks: `beta` holds num_nodes * mu values. Each
  /// may be owned (vectors convert implicitly) or borrowed from a mapping.
  static DelayBalancedTree FromFlat(int mu, ColStore<Value> beta,
                                    ColStore<int32_t> left,
                                    ColStore<int32_t> right,
                                    ColStore<float> cost,
                                    ColStore<uint16_t> level,
                                    ColStore<uint8_t> leaf);

  bool empty() const { return left_.empty(); }
  int root() const { return empty() ? -1 : 0; }
  size_t size() const { return left_.size(); }
  int max_depth() const { return max_depth_; }
  /// Arity of every split point (the number of free variables).
  int mu() const { return mu_; }

  // Flat per-field accessors (the hot-path interface).
  int32_t left(int i) const { return left_[i]; }
  int32_t right(int i) const { return right_[i]; }
  float cost(int i) const { return cost_[i]; }
  uint16_t level(int i) const { return level_[i]; }
  bool leaf(int i) const { return leaf_[i] != 0; }
  /// The split point of node `i` as a view into the contiguous pool.
  /// Meaningless (all zeros) for leaves.
  TupleSpan beta(int i) const {
    return TupleSpan(beta_.data() + (size_t)i * mu_, (size_t)mu_);
  }

  /// Materialized row view of node `i` (tests / diagnostics; allocates).
  DbTreeNode node(int i) const {
    DbTreeNode n;
    if (!leaf(i)) n.beta = beta(i).ToTuple();
    n.left = left_[i];
    n.right = right_[i];
    n.cost = cost_[i];
    n.level = level_[i];
    n.leaf = leaf(i);
    return n;
  }

  // --- per-subtree aggregate annotations (ring cells) ---------------------
  // Optional SoA columns alongside the node rows, attached after Build /
  // deserialization for boolean-bound-free (num_bound == 0) reps: node i
  // carries the result count of its subtree plus, per free variable, the
  // ring sum / min / max over the subtree's answers (layout sums[mu] |
  // mins[mu] | maxs[mu], see core/aggregate.h RingCell).

  /// `counts` has one entry per node, `vals` 3 * mu per node. Either owned
  /// vectors (annotation build) or borrowed mapped blocks (zero-copy load).
  void AttachAggregates(ColStore<uint64_t> counts, ColStore<Value> vals);

  bool has_aggregates() const { return !agg_count_.empty(); }
  uint64_t agg_count(int i) const { return agg_count_[i]; }
  /// The 3 * mu annotation values of node `i`.
  const Value* agg_vals(int i) const {
    return agg_vals_.data() + (size_t)i * 3 * mu_;
  }

  // Raw column access (serialization).
  const ColStore<Value>& beta_pool() const { return beta_; }
  const ColStore<int32_t>& lefts() const { return left_; }
  const ColStore<int32_t>& rights() const { return right_; }
  const ColStore<float>& costs() const { return cost_; }
  const ColStore<uint16_t>& levels() const { return level_; }
  const ColStore<uint8_t>& leaf_flags() const { return leaf_; }
  const ColStore<uint64_t>& agg_counts() const { return agg_count_; }
  const ColStore<Value>& agg_vals_pool() const { return agg_vals_; }

  /// Level threshold tau_l = tau * 2^(-l (1 - 1/alpha)).
  static double Threshold(double tau, double alpha, int level);

  /// Child interval derivation on the grid; returns false if empty.
  static bool LeftInterval(const FInterval& parent, TupleSpan beta,
                           const LexDomain& domain, FInterval* out);
  static bool RightInterval(const FInterval& parent, TupleSpan beta,
                            const LexDomain& domain, FInterval* out);

  size_t MemoryBytes() const;

 private:
  int BuildNode(const LexDomain& domain, const CostModel& cost,
                const BuildParams& params, const FInterval& interval,
                int level);

  // SoA node columns; row i = node i, preorder (root first, left before
  // right). beta_ is the flat split-point pool, mu_ values per node.
  int mu_ = 0;
  ColStore<Value> beta_;
  ColStore<int32_t> left_;
  ColStore<int32_t> right_;
  ColStore<float> cost_;
  ColStore<uint16_t> level_;
  ColStore<uint8_t> leaf_;
  ColStore<uint64_t> agg_count_;  // optional: one per node
  ColStore<Value> agg_vals_;      // optional: 3 * mu per node
  int max_depth_ = 0;
};

}  // namespace cqc

#endif  // CQC_CORE_DBTREE_H_
