#include "baseline/materialized_view.h"

#include <map>
#include <numeric>

#include "join/bound_atom.h"
#include "join/generic_join.h"
#include "query/normalize.h"
#include "util/timer.h"

namespace cqc {

Result<std::unique_ptr<MaterializedView>> MaterializedView::Build(
    const AdornedView& view, const Database& db, const Database* aux_db) {
  WallTimer timer;
  const ConjunctiveQuery& cq = view.cq();
  if (!cq.IsNaturalJoin())
    return Status::Error("MaterializedView requires a natural join view");

  std::vector<VarId> order = view.bound_vars();
  order.insert(order.end(), view.free_vars().begin(),
               view.free_vars().end());
  const int k = (int)order.size();

  std::vector<VarId> no_bound;
  std::vector<const Relation*> rels;
  for (const Atom& atom : cq.atoms()) {
    const Relation* rel = ResolveRelation(atom.relation, db, aux_db);
    if (rel == nullptr)
      return Status::Error("unknown relation " + atom.relation);
    rels.push_back(rel);
  }
  // Bind atoms (index builds) on the shared pool.
  std::vector<BoundAtom> atoms = BindAtomsParallel(cq, rels, no_bound, order);

  auto mv = std::unique_ptr<MaterializedView>(new MaterializedView(view));
  mv->table_ = std::make_unique<Relation>("materialized_view", k);

  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : atoms) {
    JoinAtomInput in;
    in.index = &atom.bf_index();
    in.start = atom.bf_index().Root();
    in.start_level = 0;
    for (int i = 0; i < atom.num_free(); ++i)
      in.levels.emplace_back(atom.free_positions()[i], i);
    inputs.push_back(std::move(in));
  }
  JoinIterator join(std::move(inputs), k,
                    std::vector<LevelConstraint>(k, LevelConstraint::Any()));
  constexpr size_t kBatch = 1024;
  TupleBuffer batch(k);
  for (;;) {
    batch.Clear();
    const size_t n = join.NextBatch(&batch, kBatch);
    for (size_t i = 0; i < n; ++i) mv->table_->InsertRow(batch[i].data());
    if (n < kBatch) break;
  }
  mv->table_->Seal();
  std::vector<int> identity(k);
  std::iota(identity.begin(), identity.end(), 0);
  mv->index_ = &mv->table_->GetIndex(identity);
  mv->build_seconds_ = timer.Seconds();
  return std::move(mv);
}

std::unique_ptr<TupleEnumerator> MaterializedView::Answer(
    const BoundValuation& vb) const {
  CQC_CHECK_EQ((int)vb.size(), view_.num_bound());
  const int nb = view_.num_bound();
  const int k = nb + view_.num_free();
  RowRange r = index_->Root();
  for (int i = 0; i < nb && !r.empty(); ++i)
    r = index_->Refine(r, i, vb[i]);
  if (r.empty()) return std::make_unique<EmptyEnumerator>(k - nb);
  return std::make_unique<RangeScanEnumerator>(index_, r, nb, k);
}

bool MaterializedView::AnswerExists(const BoundValuation& vb) const {
  Tuple t;
  return Answer(vb)->Next(&t);
}

size_t MaterializedView::CountAnswer(const BoundValuation& vb) const {
  CQC_CHECK_EQ((int)vb.size(), view_.num_bound());
  RowRange r = index_->Root();
  for (int i = 0; i < view_.num_bound() && !r.empty(); ++i)
    r = index_->Refine(r, i, vb[i]);
  return r.size();
}

AggregateResult MaterializedView::AnswerAggregate(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  CQC_CHECK_EQ((int)vb.size(), view_.num_bound());
  const int nb = view_.num_bound();
  const int k = (int)group_vars.size();
  const int value_var =
      spec.func == AggFunc::kCount ? -1 : spec.value_var;
  RowRange r = index_->Root();
  for (int i = 0; i < nb && !r.empty(); ++i)
    r = index_->Refine(r, i, vb[i]);

  if (IsPrefixGroupSet(group_vars)) {
    // Rows are sorted by the free suffix, so prefix groups are contiguous
    // runs: one columnar pass, constant state.
    GroupAccumulator acc(k, spec);
    std::vector<Value> key((size_t)k);
    for (size_t row = r.begin; row < r.end; ++row) {
      for (int i = 0; i < k; ++i) key[i] = index_->ValueAt(nb + i, row);
      const Value v =
          value_var >= 0 ? index_->ValueAt(nb + value_var, row) : 0;
      acc.AddCell(key.data(), 1, v, v, v);
    }
    return acc.Finish();
  }

  // Arbitrary group set: fold through an ordered map (std::map iteration
  // is lex order, matching the prefix path's strictly-ascending groups).
  std::map<Tuple, AggCell> groups;
  Tuple key((size_t)k);
  for (size_t row = r.begin; row < r.end; ++row) {
    for (int i = 0; i < k; ++i)
      key[i] = index_->ValueAt(nb + group_vars[i], row);
    AggCell& cell = groups[key];
    if (value_var >= 0) {
      cell.FoldValue(index_->ValueAt(nb + value_var, row));
    } else {
      cell.FoldCountOnly();
    }
  }
  AggregateResult out;
  out.group_arity = k;
  for (const auto& [gk, cell] : groups) {
    out.keys.insert(out.keys.end(), gk.begin(), gk.end());
    out.counts.push_back(cell.count);
    switch (spec.func) {
      case AggFunc::kCount: break;
      case AggFunc::kSum: out.values.push_back(cell.sum); break;
      case AggFunc::kMin: out.values.push_back(cell.min); break;
      case AggFunc::kMax: out.values.push_back(cell.max); break;
    }
  }
  return out;
}

size_t MaterializedView::SpaceBytes() const {
  return table_->BaseBytes() + table_->IndexBytes();
}

}  // namespace cqc
