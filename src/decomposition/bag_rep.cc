#include "decomposition/bag_rep.h"

#include "join/bound_atom.h"
#include "join/generic_join.h"
#include "query/normalize.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace cqc {
namespace {

std::vector<int> IdentityPerm(int n) {
  std::vector<int> p(n);
  for (int i = 0; i < n; ++i) p[i] = i;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// MaterializedBagRep
// ---------------------------------------------------------------------------

Result<std::unique_ptr<MaterializedBagRep>> MaterializedBagRep::Build(
    const AdornedView& view, const Database& db, const Database* locals) {
  const ConjunctiveQuery& cq = view.cq();
  if (!cq.IsNaturalJoin())
    return Status::Error("bag view must be a natural join");
  const int nb = view.num_bound();
  const int nf = view.num_free();

  // Materialize the bag join with variable order [V_b^t..., V_f^t...]:
  // treat every variable as a join level.
  std::vector<VarId> order = view.bound_vars();
  order.insert(order.end(), view.free_vars().begin(),
               view.free_vars().end());
  std::vector<VarId> no_bound;
  std::vector<BoundAtom> atoms;
  for (const Atom& atom : cq.atoms()) {
    const Relation* rel = ResolveRelation(atom.relation, db, locals);
    if (rel == nullptr)
      return Status::Error("unknown relation " + atom.relation);
    atoms.emplace_back(atom, *rel, no_bound, order);
  }

  auto rep = std::unique_ptr<MaterializedBagRep>(
      new MaterializedBagRep(nb, nf));
  rep->table_ = std::make_unique<Relation>("bag_table", nb + nf);

  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : atoms) {
    JoinAtomInput in;
    in.index = &atom.bf_index();  // no bound vars: bf == fb == view order
    in.start = atom.bf_index().Root();
    in.start_level = 0;
    for (int i = 0; i < atom.num_free(); ++i)
      in.levels.emplace_back(atom.free_positions()[i], i);
    inputs.push_back(std::move(in));
  }
  std::vector<LevelConstraint> constraints(nb + nf, LevelConstraint::Any());
  JoinIterator join(std::move(inputs), nb + nf, std::move(constraints));
  constexpr size_t kBatch = 1024;
  TupleBuffer batch(nb + nf);
  for (;;) {
    batch.Clear();
    const size_t n = join.NextBatch(&batch, kBatch);
    for (size_t i = 0; i < n; ++i) rep->table_->InsertRow(batch[i].data());
    if (n < kBatch) break;
  }
  rep->table_->Seal();
  rep->Reindex();
  return std::move(rep);
}

void MaterializedBagRep::Reindex() {
  index_ = &table_->GetIndex(IdentityPerm(num_bound_ + num_free_));
}

std::unique_ptr<TupleEnumerator> MaterializedBagRep::Answer(
    const Tuple& vb) const {
  CQC_CHECK_EQ((int)vb.size(), num_bound_);
  RowRange r = index_->Root();
  for (int i = 0; i < num_bound_ && !r.empty(); ++i)
    r = index_->Refine(r, i, vb[i]);
  if (r.empty()) return std::make_unique<EmptyEnumerator>(num_free_);
  return std::make_unique<RangeScanEnumerator>(index_, r, num_bound_,
                                               num_bound_ + num_free_);
}

void MaterializedBagRep::Fixup(const BagLiveFn& live) {
  auto filtered =
      std::make_unique<Relation>("bag_table", num_bound_ + num_free_);
  Tuple bound(num_bound_), free(num_free_), row(num_bound_ + num_free_);
  for (size_t r = 0; r < table_->size(); ++r) {
    for (int c = 0; c < num_bound_; ++c) bound[c] = table_->At(r, c);
    for (int c = 0; c < num_free_; ++c)
      free[c] = table_->At(r, num_bound_ + c);
    if (!live(bound, free)) continue;
    for (int c = 0; c < num_bound_ + num_free_; ++c) row[c] = table_->At(r, c);
    filtered->Insert(row);
  }
  filtered->Seal();
  table_ = std::move(filtered);
  Reindex();
}

size_t MaterializedBagRep::AuxBytes() const {
  return table_->BaseBytes() + table_->IndexBytes();
}

std::string MaterializedBagRep::Describe() const {
  return StrFormat("materialized bag (%zu tuples)", table_->size());
}

// ---------------------------------------------------------------------------
// CompressedBagRep
// ---------------------------------------------------------------------------

Result<std::unique_ptr<CompressedBagRep>> CompressedBagRep::Build(
    const AdornedView& view, const Database& db, const Database* locals,
    const CompressedRepOptions& options) {
  Result<std::unique_ptr<CompressedRep>> rep =
      CompressedRep::Build(view, db, options, locals);
  if (!rep.ok()) return rep.status();
  auto out = std::unique_ptr<CompressedBagRep>(new CompressedBagRep());
  out->rep_ = std::move(rep).value();
  return std::move(out);
}

std::unique_ptr<TupleEnumerator> CompressedBagRep::Answer(
    const Tuple& vb) const {
  return rep_->Answer(vb);
}

void CompressedBagRep::Fixup(const BagLiveFn& live) {
  rep_->FixupDictionary(live);
}

size_t CompressedBagRep::AuxBytes() const {
  return rep_->stats().AuxBytes();
}

std::string CompressedBagRep::Describe() const {
  return StrFormat("compressed bag (tau=%.1f, %zu tree nodes, %zu dict)",
                   rep_->tau(), rep_->stats().tree_nodes,
                   rep_->stats().dict_entries);
}

}  // namespace cqc
