#include "join/bound_atom.h"

#include <algorithm>
#include <optional>

#include "exec/par_util.h"
#include "exec/thread_pool.h"
#include "util/logging.h"

namespace cqc {
namespace {

int PositionIn(const std::vector<VarId>& order, VarId v) {
  for (size_t i = 0; i < order.size(); ++i)
    if (order[i] == v) return (int)i;
  return -1;
}

}  // namespace

BoundAtom::BoundAtom(const Atom& atom, const Relation& rel,
                     const std::vector<VarId>& bound_order,
                     const std::vector<VarId>& free_order)
    : rel_(&rel) {
  CQC_CHECK(atom.IsNaturalAtom())
      << "BoundAtom requires a natural atom (run NormalizeView first): "
      << atom.relation;
  CQC_CHECK_EQ(atom.arity(), rel.arity());

  // Collect (view position, relation column) for bound and free variables,
  // then sort by view position so trie levels follow the view orders.
  std::vector<std::pair<int, int>> bound, free;
  for (int col = 0; col < atom.arity(); ++col) {
    VarId v = atom.terms[col].var;
    int bp = PositionIn(bound_order, v);
    if (bp >= 0) {
      bound.emplace_back(bp, col);
      continue;
    }
    int fp = PositionIn(free_order, v);
    CQC_CHECK_GE(fp, 0) << "atom variable neither bound nor free";
    free.emplace_back(fp, col);
  }
  std::sort(bound.begin(), bound.end());
  std::sort(free.begin(), free.end());
  for (auto [pos, col] : bound) {
    bound_positions_.push_back(pos);
    bound_cols_.push_back(col);
  }
  for (auto [pos, col] : free) {
    free_positions_.push_back(pos);
    free_cols_.push_back(col);
  }

  std::vector<int> bf = bound_cols_;
  bf.insert(bf.end(), free_cols_.begin(), free_cols_.end());
  std::vector<int> fb = free_cols_;
  fb.insert(fb.end(), bound_cols_.begin(), bound_cols_.end());
  bf_index_ = &rel.GetIndex(bf);
  fb_index_ = &rel.GetIndex(fb);
}

const std::vector<Value>& BoundAtom::FreeDomain(int view_pos) const {
  for (size_t i = 0; i < free_positions_.size(); ++i)
    if (free_positions_[i] == view_pos)
      return rel_->ActiveDomain(free_cols_[i]);
  CQC_CHECK(false) << "atom has no free variable at view position "
                   << view_pos;
  __builtin_unreachable();
}

int BoundAtom::BfLevelOfFree(int view_pos) const {
  for (size_t i = 0; i < free_positions_.size(); ++i)
    if (free_positions_[i] == view_pos) return num_bound() + (int)i;
  return -1;
}

namespace {

// Walks the free levels of `idx` starting at `r` / `level`, applying the
// canonical box constraints for the atom's free view positions, and returns
// the final count. Constraints after a range must be kAny (canonical), so
// the walk stops at the first range / any.
size_t CountFreeLevels(const SortedIndex& idx, RowRange r, int level,
                       const std::vector<int>& free_positions,
                       const FBox& box) {
  for (size_t i = 0; i < free_positions.size() && !r.empty(); ++i) {
    const FBoxDim& dim = box.dims[free_positions[i]];
    switch (dim.kind) {
      case FBoxDim::kUnit:
        r = idx.Refine(r, level + (int)i, dim.lo);
        break;
      case FBoxDim::kRange:
        return idx.RefineRange(r, level + (int)i, dim.lo, dim.hi).size();
      case FBoxDim::kAny:
        return r.size();
    }
  }
  return r.size();
}

}  // namespace

size_t BoundAtom::CountBox(const FBox& box) const {
  return CountFreeLevels(*fb_index_, fb_index_->Root(), 0, free_positions_,
                         box);
}

RowRange BoundAtom::SeekBound(TupleSpan bound_vals) const {
  RowRange r = bf_index_->Root();
  for (size_t i = 0; i < bound_positions_.size() && !r.empty(); ++i)
    r = bf_index_->Refine(r, (int)i, bound_vals[bound_positions_[i]]);
  return r;
}

size_t BoundAtom::CountBoundBox(TupleSpan bound_vals, const FBox& box) const {
  RowRange r = SeekBound(bound_vals);
  if (r.empty()) return 0;
  return CountFreeLevels(*bf_index_, r, num_bound(), free_positions_, box);
}

size_t BoundAtom::CountBound(TupleSpan bound_vals) const {
  return SeekBound(bound_vals).size();
}

std::vector<BoundAtom> BindAtomsParallel(
    const ConjunctiveQuery& cq, const std::vector<const Relation*>& rels,
    const std::vector<VarId>& bound_order,
    const std::vector<VarId>& free_order) {
  const size_t num_atoms = cq.atoms().size();
  CQC_CHECK_EQ(rels.size(), num_atoms);
  std::vector<BoundAtom> atoms;
  atoms.reserve(num_atoms);
  if (num_atoms > 1 && par::BuildThreads() > 1 && !ThreadPool::InWorker()) {
    std::vector<std::optional<BoundAtom>> staged(num_atoms);
    // TaskGroup (not bare Submit+WaitIdle): a task dropped by a contained
    // exception or an injected thread_pool/task fault leaves its slot
    // empty — moving from it would be UB. Bind the missing atoms serially
    // instead.
    TaskGroup group(SharedBuildPool());
    for (size_t i = 0; i < num_atoms; ++i) {
      group.Submit([&, i] {
        staged[i].emplace(cq.atoms()[i], *rels[i], bound_order, free_order);
      });
    }
    group.Wait();
    for (size_t i = 0; i < num_atoms; ++i) {
      if (!staged[i].has_value())
        staged[i].emplace(cq.atoms()[i], *rels[i], bound_order, free_order);
      atoms.push_back(std::move(*staged[i]));
    }
  } else {
    for (size_t i = 0; i < num_atoms; ++i)
      atoms.emplace_back(cq.atoms()[i], *rels[i], bound_order, free_order);
  }
  return atoms;
}

bool BoundAtom::ContainsValuationIn(const Relation& rel,
                                    TupleSpan bound_vals,
                                    TupleSpan free_vals) const {
  // Scatter the valuation into schema column order (the column maps are
  // fixed at bind time) and probe the relation's sorted columns.
  Value key[kMaxVars];
  for (size_t i = 0; i < bound_cols_.size(); ++i)
    key[bound_cols_[i]] = bound_vals[bound_positions_[i]];
  for (size_t i = 0; i < free_cols_.size(); ++i)
    key[free_cols_[i]] = free_vals[free_positions_[i]];
  return rel.Contains(TupleSpan(key, (size_t)rel_->arity()));
}

}  // namespace cqc
