#include "baseline/direct_eval.h"

#include <optional>
#include <set>

#include "join/generic_join.h"
#include "query/normalize.h"
#include "util/timer.h"

namespace cqc {
namespace {

/// Adapts a JoinIterator to the TupleEnumerator interface.
class JoinEnumerator : public TupleEnumerator {
 public:
  JoinEnumerator(JoinIterator join, int arity)
      : TupleEnumerator(arity), join_(std::move(join)) {}
  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    return join_.NextBatch(out, max_tuples);
  }

 private:
  JoinIterator join_;
};

}  // namespace

Result<std::unique_ptr<DirectEval>> DirectEval::Build(
    const AdornedView& view, const Database& db, const Database* aux_db) {
  WallTimer timer;
  const ConjunctiveQuery& cq = view.cq();
  if (!cq.IsNaturalJoin())
    return Status::Error("DirectEval requires a natural join view");
  auto de = std::unique_ptr<DirectEval>(new DirectEval(view));
  for (const Atom& atom : cq.atoms()) {
    const Relation* rel = ResolveRelation(atom.relation, db, aux_db);
    if (rel == nullptr)
      return Status::Error("unknown relation " + atom.relation);
    de->atoms_.emplace_back(atom, *rel, view.bound_vars(),
                            view.free_vars());
  }
  de->build_seconds_ = timer.Seconds();
  return std::move(de);
}

namespace {

// Builds the per-atom join inputs for a bound valuation; nullopt when some
// atom has no rows under vb (the whole request is empty). Shared by the
// full and range-restricted answer paths so they can never diverge.
std::optional<std::vector<JoinAtomInput>> BuildJoinInputs(
    const std::vector<BoundAtom>& atoms, const BoundValuation& vb) {
  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : atoms) {
    JoinAtomInput in;
    in.index = &atom.bf_index();
    in.start = atom.SeekBound(vb);
    if (in.start.empty()) return std::nullopt;
    in.start_level = atom.num_bound();
    for (int i = 0; i < atom.num_free(); ++i)
      in.levels.emplace_back(atom.free_positions()[i], atom.num_bound() + i);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

}  // namespace

std::unique_ptr<TupleEnumerator> DirectEval::Answer(
    const BoundValuation& vb) const {
  CQC_CHECK_EQ((int)vb.size(), view_.num_bound());
  const int mu = view_.num_free();
  auto inputs = BuildJoinInputs(atoms_, vb);
  if (!inputs.has_value()) return std::make_unique<EmptyEnumerator>(mu);
  if (mu == 0) {
    // Boolean request: all atoms non-empty under vb.
    std::vector<Tuple> one{Tuple{}};
    return std::make_unique<VectorEnumerator>(0, std::move(one));
  }
  JoinIterator join(std::move(*inputs), mu,
                    std::vector<LevelConstraint>(mu, LevelConstraint::Any()));
  return std::make_unique<JoinEnumerator>(std::move(join), mu);
}

std::unique_ptr<TupleEnumerator> DirectEval::AnswerRange(
    const BoundValuation& vb, const FInterval& range) const {
  const int mu = view_.num_free();
  CQC_CHECK_GT(mu, 0) << "AnswerRange needs a free dimension";
  CQC_CHECK_EQ((int)range.lo.size(), mu);
  CQC_CHECK_EQ((int)range.hi.size(), mu);
  if (range.Empty()) return std::make_unique<EmptyEnumerator>(mu);
  auto inputs = BuildJoinInputs(atoms_, vb);
  if (!inputs.has_value()) return std::make_unique<EmptyEnumerator>(mu);
  return std::make_unique<BoxJoinEnumerator>(std::move(*inputs), mu,
                                             BoxDecompose(range));
}

bool DirectEval::AnswerExists(const BoundValuation& vb) const {
  Tuple t;
  return Answer(vb)->Next(&t);
}

size_t DirectEval::SpaceBytes() const {
  std::set<const Relation*> distinct;
  for (const BoundAtom& atom : atoms_) distinct.insert(&atom.relation());
  size_t bytes = 0;
  for (const Relation* r : distinct) bytes += r->IndexBytes();
  return bytes;
}

}  // namespace cqc
