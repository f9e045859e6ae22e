// Cross-module end-to-end scenarios: normalization -> structures ->
// agreement; k-SetDisjointness via the full view; delay instrumentation.
#include <gtest/gtest.h>

#include <set>

#include "baseline/d_representation.h"
#include "baseline/direct_eval.h"
#include "baseline/materialized_view.h"
#include "core/compressed_rep.h"
#include "decomposition/connex_builder.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::InterestingBoundValuations;
using testing::OracleAnswer;
using testing::SortedCopy;

TEST(IntegrationTest, NormalizedViewThroughAllStructures) {
  Database db;
  Rng rng(404);
  Relation* r = db.AddRelation("R", 3);
  for (int i = 0; i < 150; ++i)
    r->Insert({rng.UniformRange(1, 10), rng.UniformRange(1, 10),
               rng.UniformRange(1, 3)});
  r->Seal();
  Relation* s = db.AddRelation("S", 2);
  for (int i = 0; i < 80; ++i)
    s->Insert({rng.UniformRange(1, 10), rng.UniformRange(1, 10)});
  s->Seal();

  auto raw = ParseAdornedView("Q^bff(x,y,z) = R(x,y,2), S(y,z)");
  ASSERT_TRUE(raw.ok());
  auto norm = NormalizeView(raw.value(), db);
  ASSERT_TRUE(norm.ok());
  const AdornedView& view = norm.value().view;
  const Database* aux = &norm.value().aux_db;

  CompressedRepOptions copt;
  copt.tau = 3.0;
  auto cr = CompressedRep::Build(view, db, copt, aux);
  auto mv = MaterializedView::Build(view, db, aux);
  auto de = DirectEval::Build(view, db, aux);
  ASSERT_TRUE(cr.ok()) << cr.status().message();
  ASSERT_TRUE(mv.ok());
  ASSERT_TRUE(de.ok());
  for (const BoundValuation& vb :
       InterestingBoundValuations(view, db, aux)) {
    auto expected = OracleAnswer(view, db, vb, aux);
    EXPECT_EQ(CollectAll(*cr.value()->Answer(vb)), expected);
    EXPECT_EQ(CollectAll(*mv.value()->Answer(vb)), expected);
    EXPECT_EQ(CollectAll(*de.value()->Answer(vb)), expected);
  }
}

TEST(IntegrationTest, KSetDisjointnessThroughFullView) {
  // §3.3: answer k-SetDisjointness with the structure for the full view.
  Database db;
  MakeSetFamily(db, "R", 12, 40, 150, 0.8, 313);
  AdornedView view = SetDisjointnessView(3);
  CompressedRepOptions copt;
  copt.tau = 8.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const Relation* r = db.Find("R");
  // Oracle: intersect the element sets directly.
  auto elements_of = [&](Value set_id) {
    std::set<Value> out;
    for (size_t i = 0; i < r->size(); ++i)
      if (r->At(i, 0) == set_id) out.insert(r->At(i, 1));
    return out;
  };
  for (Value s1 = 1; s1 <= 6; ++s1) {
    for (Value s2 = s1; s2 <= 6; ++s2) {
      for (Value s3 = s2; s3 <= 6; ++s3) {
        auto e1 = elements_of(s1);
        auto e2 = elements_of(s2);
        auto e3 = elements_of(s3);
        bool intersects = false;
        for (Value v : e1)
          if (e2.count(v) && e3.count(v)) intersects = true;
        EXPECT_EQ(rep.value()->AnswerExists({s1, s2, s3}), intersects)
            << s1 << "," << s2 << "," << s3;
      }
    }
  }
}

TEST(IntegrationTest, DelayProfileCountsTuples) {
  Database db;
  MakeRandomGraph(db, "R", 20, 120, true, 99);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    auto e = rep.value()->Answer(vb);
    std::vector<Tuple> sink;
    DelayProfile p = MeasureEnumeration(*e, &sink);
    EXPECT_EQ(p.num_tuples, OracleAnswer(view, db, vb).size());
    EXPECT_EQ(p.num_tuples, sink.size());
    EXPECT_GE(p.total_ops, p.max_delay_ops);
  }
}

TEST(IntegrationTest, TradeoffSpaceShrinksWithTau) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 16);
  AdornedView view = TriangleView("bfb");
  std::vector<size_t> aux_bytes;
  for (double tau : {1.0, 8.0, 64.0, 512.0}) {
    CompressedRepOptions copt;
    copt.tau = tau;
    auto rep = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(rep.ok());
    aux_bytes.push_back(rep.value()->stats().AuxBytes());
  }
  EXPECT_LT(aux_bytes.back(), aux_bytes.front());
}

TEST(IntegrationTest, TradeoffDelayGrowsWithTauOnHardIntersections) {
  // The fast-set-intersection hard case ([13], §3.1): two large
  // *interleaved* disjoint sets. Detecting that their intersection is
  // empty costs ~|set| leapfrog probes without auxiliary information; the
  // tau = 1 dictionary answers it with a handful of lookups. This is where
  // the paper's delay guarantee bites.
  const int k = 500;
  Database db;
  Relation* r = db.AddRelation("R", 2);
  for (int i = 0; i < k; ++i) {
    r->Insert({1, (Value)(2 * i)});      // set 1: evens
    r->Insert({2, (Value)(2 * i + 1)});  // set 2: odds (disjoint)
    r->Insert({3, (Value)(2 * i)});      // set 3: equals set 1
  }
  r->Seal();
  AdornedView view = SetIntersectionView();

  auto worst_empty_delay = [&](double tau) {
    CompressedRepOptions copt;
    copt.tau = tau;
    auto rep = CompressedRep::Build(view, db, copt);
    CQC_CHECK(rep.ok()) << rep.status().message();
    auto e = rep.value()->Answer({1, 2});  // empty intersection
    DelayProfile p = MeasureEnumeration(*e);
    CQC_CHECK_EQ(p.num_tuples, 0u);
    return p.max_delay_ops;
  };
  const uint64_t tight = worst_empty_delay(1.0);
  const uint64_t loose = worst_empty_delay(1e9);
  // Without the dictionary the emptiness check ping-pongs through ~k
  // probes; with tau = 1 it is logarithmic.
  EXPECT_GE(loose, (uint64_t)k / 2);
  EXPECT_LT(tight, loose / 4);

  // Sanity: non-empty requests still answer correctly at both settings.
  for (double tau : {1.0, 1e9}) {
    CompressedRepOptions copt;
    copt.tau = tau;
    auto rep = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(CollectAll(*rep.value()->Answer({1, 3})).size(), (size_t)k);
  }

  // Non-empty hard case: sets 4 and 5 share only their first and last
  // value, with k interleaved non-matches each in between. Without the
  // dictionary the deepest-level merge steps through all of them to reach
  // the second output, and every step must reach the op clock — a merge
  // that advances without counting answers correctly but under-reports
  // delay (and ops per tuple) to every bound check. The second output is
  // found inside the first Next()'s staging block, so the worst delay
  // carries the ops spent between the two outputs.
  Database shared_ends;
  Relation* s = shared_ends.AddRelation("R", 2);
  for (int i = 0; i < k; ++i) {
    s->Insert({4, (Value)(2 * i + 2)});
    s->Insert({5, (Value)(2 * i + 1)});
  }
  for (Value end : {(Value)0, (Value)(2 * k + 1)}) {
    s->Insert({4, end});
    s->Insert({5, end});
  }
  s->Seal();
  CompressedRepOptions copt;
  copt.tau = 1e9;
  auto rep = CompressedRep::Build(view, shared_ends, copt);
  ASSERT_TRUE(rep.ok());
  auto e = rep.value()->Answer({4, 5});
  std::vector<Tuple> got;
  DelayProfile p = MeasureEnumeration(*e, &got);
  EXPECT_EQ(got, (std::vector<Tuple>{{0}, {(Value)(2 * k + 1)}}));
  EXPECT_GE(p.max_delay_ops, (uint64_t)k / 2);
}

TEST(IntegrationTest, Theorem1VsTheorem2OnPath) {
  // Same query, same data: Theorem 1 direct vs Theorem 2 zig-zag bags
  // agree for every access request.
  Database db;
  MakePathRelations(db, "R", 4, 14, 55, 606);
  AdornedView view = PathView(4);
  CompressedRepOptions copt;
  copt.tau = 4.0;
  auto t1 = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(t1.ok());
  std::vector<VarId> path_vars;
  for (int i = 1; i <= 5; ++i)
    path_vars.push_back(view.cq().FindVar("x" + std::to_string(i)));
  TreeDecomposition td = BuildZigZagPath(path_vars);
  DecomposedRepOptions dopt;
  dopt.delta = DelayAssignment::Uniform(td, 0.25);
  auto t2 = DecomposedRep::Build(view, db, td, dopt);
  ASSERT_TRUE(t2.ok());
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    EXPECT_EQ(SortedCopy(CollectAll(*t1.value()->Answer(vb))),
              SortedCopy(CollectAll(*t2.value()->Answer(vb))));
  }
}

TEST(IntegrationTest, SelfJoinTriangleWithSharedIndexes) {
  // The triangle view uses one relation three ways; index caching must
  // share the underlying tries without interference.
  Database db;
  MakeRandomGraph(db, "R", 15, 70, true, 111);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const Relation* r = db.Find("R");
  EXPECT_GT(r->IndexBytes(), 0u);
  for (const BoundValuation& vb : InterestingBoundValuations(view, db))
    EXPECT_EQ(CollectAll(*rep.value()->Answer(vb)),
              OracleAnswer(view, db, vb));
}

}  // namespace
}  // namespace cqc
