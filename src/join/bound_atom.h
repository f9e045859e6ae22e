// BoundAtom: a view atom bound to its relation, split into bound / free
// columns, with the two sorted-trie access paths the paper's data structure
// needs:
//
//   * bf order  [bound cols..., free cols...]  — counting |R_F(v, B)| and
//     access-time joins over the free variables;
//   * fb order  [free cols..., bound cols...]  — counting |R_F(B)| with no
//     bound valuation, used while building the delay-balanced tree
//     (Algorithm 1 / Lemma 3).
//
// Free columns are ordered by the view's global free-variable order, so the
// constraints of a *canonical* f-box (unit prefix, one range, then
// unconstrained) always restrict a contiguous sorted range of the trie:
// every count is O(arity * log N).
#ifndef CQC_JOIN_BOUND_ATOM_H_
#define CQC_JOIN_BOUND_ATOM_H_

#include <vector>

#include "core/finterval.h"
#include "query/cq.h"
#include "relational/relation.h"
#include "relational/sorted_index.h"
#include "util/common.h"

namespace cqc {

class BoundAtom {
 public:
  /// Binds `atom` (a natural atom: distinct variables, no constants) to
  /// `rel`. `bound_order` / `free_order` give the view-level variable
  /// orders; every atom variable must appear in exactly one of them.
  BoundAtom(const Atom& atom, const Relation& rel,
            const std::vector<VarId>& bound_order,
            const std::vector<VarId>& free_order);

  const Relation& relation() const { return *rel_; }
  int num_bound() const { return (int)bound_positions_.size(); }
  int num_free() const { return (int)free_positions_.size(); }
  size_t relation_size() const { return rel_->size(); }

  /// Positions (indices into the view orders) of this atom's bound / free
  /// variables, ascending.
  const std::vector<int>& bound_positions() const { return bound_positions_; }
  const std::vector<int>& free_positions() const { return free_positions_; }

  /// Sorted distinct values this atom allows for the free variable at view
  /// free position `view_pos` (must be one of free_positions()).
  const std::vector<Value>& FreeDomain(int view_pos) const;

  /// |R_F ⋉ B| for a canonical f-box `box` over the view's free order.
  size_t CountBox(const FBox& box) const;

  /// |R_F(v) ⋉ B|: bound columns fixed by `bound_vals` (aligned with the
  /// view bound order), free columns restricted by canonical `box`.
  /// All valuation parameters are spans: callers pass views into arena /
  /// flat-pool storage (or Tuples, which convert) without materializing.
  size_t CountBoundBox(TupleSpan bound_vals, const FBox& box) const;

  /// |R_F(v)|: tuples matching the bound valuation.
  size_t CountBound(TupleSpan bound_vals) const;

  /// Trie range of the bf index after fixing the bound columns.
  RowRange SeekBound(TupleSpan bound_vals) const;

  /// Membership: does the relation contain the row given by `bound_vals`
  /// (view bound order) + `free_vals` (view free order)? Scatters the
  /// valuation into schema column order and runs one Relation::Contains,
  /// O(arity * log N).
  bool ContainsValuation(TupleSpan bound_vals, TupleSpan free_vals) const {
    return ContainsValuationIn(*rel_, bound_vals, free_vals);
  }

  /// The same probe against `rel`, another relation with this atom's
  /// schema (the update path's tombstones), without binding an atom to it
  /// and so without building its sorted indexes.
  bool ContainsValuationIn(const Relation& rel, TupleSpan bound_vals,
                           TupleSpan free_vals) const;

  const SortedIndex& bf_index() const { return *bf_index_; }
  const SortedIndex& fb_index() const { return *fb_index_; }

  /// bf-trie level of the k-th bound column (= k) and of the free column
  /// with view position `view_pos`.
  int BfLevelOfFree(int view_pos) const;

 private:
  const Relation* rel_;
  std::vector<int> bound_positions_;  // view bound positions, ascending
  std::vector<int> bound_cols_;       // matching relation columns
  std::vector<int> free_positions_;   // view free positions, ascending
  std::vector<int> free_cols_;        // matching relation columns
  const SortedIndex* bf_index_;
  const SortedIndex* fb_index_;
};

/// Builds BoundAtoms for every atom of a natural-join view body.
/// `resolve(name)` must return the sealed relation for an atom.
template <typename Resolver>
std::vector<BoundAtom> BindAtoms(const ConjunctiveQuery& cq,
                                 const std::vector<VarId>& bound_order,
                                 const std::vector<VarId>& free_order,
                                 Resolver&& resolve) {
  std::vector<BoundAtom> out;
  out.reserve(cq.atoms().size());
  for (const Atom& atom : cq.atoms())
    out.emplace_back(atom, resolve(atom), bound_order, free_order);
  return out;
}

/// Binds one BoundAtom per atom over pre-resolved relations (`rels[i]` for
/// `cq.atoms()[i]`), fanning the per-atom index builds out on the shared
/// build pool when build parallelism is enabled and the caller is not
/// itself a pool task. Relation::GetIndex coalesces concurrent requests
/// for one permutation, so atoms sharing a relation stay correct. The
/// result order always matches the atom order (builds are deterministic
/// across thread counts).
std::vector<BoundAtom> BindAtomsParallel(
    const ConjunctiveQuery& cq, const std::vector<const Relation*>& rels,
    const std::vector<VarId>& bound_order,
    const std::vector<VarId>& free_order);

}  // namespace cqc

#endif  // CQC_JOIN_BOUND_ATOM_H_
