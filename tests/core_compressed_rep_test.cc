#include <gtest/gtest.h>

#include "baseline/direct_eval.h"
#include "core/compressed_rep.h"
#include "core/cursor.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::InterestingBoundValuations;
using testing::IsStrictlySortedLex;
using testing::OracleAnswer;

std::unique_ptr<CompressedRep> MustBuild(const AdornedView& view,
                                         const Database& db, double tau) {
  CompressedRepOptions options;
  options.tau = tau;
  auto rep = CompressedRep::Build(view, db, options);
  CQC_CHECK(rep.ok()) << rep.status().message();
  return std::move(rep).value();
}

// Checks every interesting access request against the oracle: same set of
// tuples, strictly lexicographic order (hence no duplicates).
void CheckAllRequests(const AdornedView& view, const Database& db,
                      const CompressedRep& rep) {
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    auto e = rep.Answer(vb);
    std::vector<Tuple> got = CollectAll(*e);
    EXPECT_TRUE(IsStrictlySortedLex(got)) << rep.view().ToString();
    EXPECT_EQ(got, OracleAnswer(view, db, vb))
        << view.ToString() << " tau=" << rep.tau();
  }
}

TEST(CompressedRepTest, TriangleBfbSmall) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, /*symmetric=*/true, 7);
  AdornedView view = TriangleView("bfb");
  for (double tau : {1.0, 2.0, 8.0, 64.0, 1e6}) {
    auto rep = MustBuild(view, db, tau);
    CheckAllRequests(view, db, *rep);
  }
}

TEST(CompressedRepTest, TriangleAllAdornments) {
  Database db;
  MakeRandomGraph(db, "R", 10, 45, /*symmetric=*/true, 19);
  for (const char* ad : {"fff", "bff", "fbf", "ffb", "bbf", "bfb", "fbb",
                         "bbb"}) {
    AdornedView view = TriangleView(ad);
    auto rep = MustBuild(view, db, 4.0);
    CheckAllRequests(view, db, *rep);
  }
}

TEST(CompressedRepTest, RunningExampleAllTaus) {
  Database db;
  Rng rng(3);
  auto make = [&](const std::string& name, uint64_t seed) {
    Rng local(seed);
    std::vector<Tuple> rows;
    for (int i = 0; i < 60; ++i)
      rows.push_back({local.UniformRange(1, 4), local.UniformRange(1, 6),
                      local.UniformRange(1, 6)});
    AddRelation(db, name, 3, rows);
  };
  make("R1", 11);
  make("R2", 12);
  make("R3", 13);
  AdornedView view = RunningExampleView();
  for (double tau : {1.0, 4.0, 16.0, 256.0}) {
    auto rep = MustBuild(view, db, tau);
    CheckAllRequests(view, db, *rep);
  }
}

TEST(CompressedRepTest, StarJoin) {
  Database db;
  for (int i = 1; i <= 3; ++i)
    MakeRandomGraph(db, "R" + std::to_string(i), 14, 70, false, 100 + i);
  AdornedView view = StarView(3);
  for (double tau : {1.0, 3.0, 27.0}) {
    auto rep = MustBuild(view, db, tau);
    EXPECT_NEAR(rep->stats().alpha, 3.0, 1e-6);  // Example 7 slack
    CheckAllRequests(view, db, *rep);
  }
}

TEST(CompressedRepTest, PathQueryTheorem1) {
  Database db;
  MakePathRelations(db, "R", 4, 12, 50, 44);
  AdornedView view = PathView(4);
  for (double tau : {1.0, 8.0}) {
    auto rep = MustBuild(view, db, tau);
    CheckAllRequests(view, db, *rep);
  }
}

TEST(CompressedRepTest, LoomisWhitney3) {
  Database db;
  MakeLoomisWhitneyRelations(db, "S", 3, 10, 50, 55);
  AdornedView view = LoomisWhitneyView(3);
  auto rep = MustBuild(view, db, 4.0);
  CheckAllRequests(view, db, *rep);
}

TEST(CompressedRepTest, SetIntersection) {
  Database db;
  MakeSetFamily(db, "R", 8, 30, 120, 0.9, 66);
  AdornedView view = SetIntersectionView();
  for (double tau : {1.0, 4.0, 32.0}) {
    auto rep = MustBuild(view, db, tau);
    CheckAllRequests(view, db, *rep);
  }
}

TEST(CompressedRepTest, BooleanAdornedView) {
  Database db;
  AddRelation(db, "R", 2, {{1, 2}, {2, 3}});
  auto view = ParseAdornedView("Q^bb(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  auto rep = MustBuild(view.value(), db, 1.0);
  EXPECT_TRUE(rep->AnswerExists({1, 2}));
  EXPECT_FALSE(rep->AnswerExists({1, 3}));
  auto e = rep->Answer({2, 3});
  Tuple t;
  ASSERT_TRUE(e->Next(&t));
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(e->Next(&t));
}

TEST(CompressedRepTest, FullEnumerationView) {
  Database db;
  MakeRandomGraph(db, "R", 10, 40, true, 5);
  AdornedView view = TriangleView("fff");
  auto rep = MustBuild(view, db, 6.0);
  auto got = CollectAll(*rep->Answer({}));
  EXPECT_TRUE(IsStrictlySortedLex(got));
  EXPECT_EQ(got, OracleAnswer(view, db, {}));
}

TEST(CompressedRepTest, EmptyRelation) {
  Database db;
  AddRelation(db, "R", 2, {});
  auto view = ParseAdornedView("Q^bf(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  auto rep = MustBuild(view.value(), db, 1.0);
  EXPECT_FALSE(rep->AnswerExists({1}));
}

TEST(CompressedRepTest, SingleTupleRelation) {
  Database db;
  AddRelation(db, "R", 2, {{5, 9}});
  auto view = ParseAdornedView("Q^bf(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  auto rep = MustBuild(view.value(), db, 1.0);
  EXPECT_EQ(CollectAll(*rep->Answer({5})), (std::vector<Tuple>{{9}}));
  EXPECT_TRUE(CollectAll(*rep->Answer({6})).empty());
}

TEST(CompressedRepTest, RejectsNonNaturalJoin) {
  Database db;
  AddRelation(db, "R", 2, {{1, 1}});
  auto view = ParseAdornedView("Q^bf(x,y) = R(x,x)");  // y unused -> invalid
  ASSERT_FALSE(view.ok());  // head var y not in body
  auto view2 = ParseAdornedView("Q^b(x) = R(x,x)");
  ASSERT_TRUE(view2.ok());
  CompressedRepOptions options;
  EXPECT_FALSE(CompressedRep::Build(view2.value(), db, options).ok());
}

TEST(CompressedRepTest, RejectsBadCover) {
  Database db;
  AddRelation(db, "R", 2, {{1, 1}});
  auto view = ParseAdornedView("Q^bf(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  CompressedRepOptions options;
  options.cover = std::vector<double>{0.2};  // does not cover x or y
  EXPECT_FALSE(CompressedRep::Build(view.value(), db, options).ok());
  options.cover = std::vector<double>{1.0, 1.0};  // wrong arity
  EXPECT_FALSE(CompressedRep::Build(view.value(), db, options).ok());
}

TEST(CompressedRepTest, SpaceShrinksAsTauGrows) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 12);
  AdornedView view = TriangleView("bfb");
  auto tight = MustBuild(view, db, 1.0);
  auto loose = MustBuild(view, db, 64.0);
  EXPECT_GT(tight->stats().dict_entries, loose->stats().dict_entries);
  EXPECT_GE(tight->stats().tree_nodes, loose->stats().tree_nodes);
}

TEST(CompressedRepTest, NormalizedViewWithConstants) {
  Database db;
  AddRelation(db, "R", 3, {{1, 2, 7}, {3, 4, 7}, {5, 6, 8}});
  AddRelation(db, "S", 2, {{2, 10}, {4, 20}});
  auto raw = ParseAdornedView("Q^bff(x,y,z) = R(x,y,7), S(y,z)");
  ASSERT_TRUE(raw.ok());
  auto norm = NormalizeView(raw.value(), db);
  ASSERT_TRUE(norm.ok()) << norm.status().message();
  CompressedRepOptions options;
  options.tau = 2.0;
  auto rep = CompressedRep::Build(norm.value().view, db, options,
                                  &norm.value().aux_db);
  ASSERT_TRUE(rep.ok()) << rep.status().message();
  auto got = CollectAll(*rep.value()->Answer({1}));
  EXPECT_EQ(got, (std::vector<Tuple>{{2, 10}}));
  EXPECT_TRUE(CollectAll(*rep.value()->Answer({5})).empty());
}

// ---------------------------------------------------------------------------
// Algorithm 2's run walk. The enumerator joins each maximal gap-free run of
// in-order items (light subtrees, heavy split points, heavy 1-bit unit
// leaves) at once; a run closes at a 0-bit subtree, at the end of the walk
// or at an item cap. The tests below check the streams against DirectEval
// on instances whose walks have every one of those shapes.
// ---------------------------------------------------------------------------

// What the in-order walk of one request meets, found by an independent
// recursive walk over the tree with exact child intervals.
struct WalkShape {
  std::vector<Tuple> split_points;   // of heavy 1-bit nodes, in order
  std::vector<FInterval> zero_gaps;  // 0-bit subtrees' intervals
  size_t unit_leaves = 0;            // heavy 1-bit unit leaves
  size_t longest_run = 0;            // most items between two gaps
};

void ShapeWalk(const CompressedRep& rep, uint32_t vb_id, int node,
               const FInterval& interval, size_t* run, WalkShape* shape) {
  const DelayBalancedTree& tree = rep.tree();
  const HeavyDictionary::Bit bit = rep.dictionary().Lookup(node, vb_id);
  if (bit == HeavyDictionary::Bit::kZero) {
    shape->zero_gaps.push_back(interval);
    shape->longest_run = std::max(shape->longest_run, *run);
    *run = 0;
    return;
  }
  if (bit == HeavyDictionary::Bit::kAbsent) {
    ++*run;
    return;
  }
  if (tree.leaf(node)) {
    EXPECT_TRUE(interval.IsUnit());
    ++shape->unit_leaves;
    ++*run;
    return;
  }
  const TupleSpan beta = tree.beta(node);
  FInterval child;
  if (tree.left(node) >= 0 &&
      DelayBalancedTree::LeftInterval(interval, beta, rep.domain(), &child))
    ShapeWalk(rep, vb_id, tree.left(node), child, run, shape);
  shape->split_points.push_back(beta.ToTuple());
  ++*run;
  if (tree.right(node) >= 0 &&
      DelayBalancedTree::RightInterval(interval, beta, rep.domain(), &child))
    ShapeWalk(rep, vb_id, tree.right(node), child, run, shape);
}

WalkShape ShapeOf(const CompressedRep& rep, const BoundValuation& vb) {
  WalkShape shape;
  if (rep.tree().empty()) return shape;
  size_t run = 0;
  ShapeWalk(rep, rep.dictionary().FindValuation(vb), rep.tree().root(),
            rep.FullRange(), &run, &shape);
  shape.longest_run = std::max(shape.longest_run, run);
  return shape;
}

std::vector<Tuple> DrainInBatches(TupleEnumerator& e, size_t batch) {
  TupleBuffer buf(e.arity());
  while (e.NextBatch(&buf, batch) == batch) {
  }
  return buf.ToTuples();
}

std::vector<Tuple> InRange(const std::vector<Tuple>& all, const Tuple& lo,
                           const Tuple& hi) {
  std::vector<Tuple> out;
  for (const Tuple& t : all)
    if (LexDomain::Compare(lo, t) <= 0 && LexDomain::Compare(t, hi) <= 0)
      out.push_back(t);
  return out;
}

// Totals over a sweep, so the sweep can assert it met every walk shape.
struct ShapeTotals {
  size_t zero_gaps = 0;
  size_t unit_leaves = 0;
  size_t longest_run = 0;
  size_t ranges = 0;
};

// Answer (batch sizes 1, 3, 512), AnswerRange over random lex ranges whose
// endpoints sit on split points, inside runs and inside 0-bit gaps, and
// Resume after k tuples, all against DirectEval.
void CheckRunWalk(const AdornedView& view, const Database& db, double tau,
                  uint64_t seed, ShapeTotals* totals) {
  const std::string where = view.ToString() + " tau=" + std::to_string(tau);
  auto rep = MustBuild(view, db, tau);
  auto de = DirectEval::Build(view, db);
  ASSERT_TRUE(de.ok()) << de.status().message();
  const int mu = view.num_free();
  Rng rng(seed);
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    const std::vector<Tuple> want = CollectAll(*de.value()->Answer(vb));
    for (size_t batch : {(size_t)1, (size_t)3, (size_t)512})
      ASSERT_EQ(DrainInBatches(*rep->Answer(vb), batch), want)
          << where << " batch " << batch;
    const WalkShape shape = ShapeOf(*rep, vb);
    totals->zero_gaps += shape.zero_gaps.size();
    totals->unit_leaves += shape.unit_leaves;
    totals->longest_run = std::max(totals->longest_run, shape.longest_run);
    if (rep->tree().empty()) continue;

    // Range endpoints: split points, answers and random grid points (inside
    // runs), the ends and a random point of 0-bit gaps, and the grid edges.
    std::vector<Tuple> ends;
    for (const Tuple& beta : shape.split_points) ends.push_back(beta);
    for (const Tuple& t : want) ends.push_back(t);
    for (const FInterval& gap : shape.zero_gaps) {
      ends.push_back(gap.lo);
      ends.push_back(gap.hi);
    }
    auto grid_point = [&] {
      Tuple t(mu);
      for (int i = 0; i < mu; ++i) {
        const std::vector<Value>& dom = rep->domain().dom(i);
        t[i] = dom[rng.Uniform(dom.size())];
      }
      return t;
    };
    for (int i = 0; i < 8; ++i) ends.push_back(grid_point());
    for (const FInterval& gap : shape.zero_gaps) {
      // A grid point strictly inside the gap when there is one.
      Tuple t = gap.lo;
      if (rep->domain().Succ(t) && LexDomain::Compare(t, gap.hi) < 0)
        ends.push_back(t);
    }
    ends.push_back(rep->FullRange().lo);
    ends.push_back(rep->FullRange().hi);
    for (int r = 0; r < 24; ++r) {
      Tuple lo = ends[rng.Uniform(ends.size())];
      Tuple hi = ends[rng.Uniform(ends.size())];
      if (LexDomain::Compare(lo, hi) > 0) std::swap(lo, hi);
      const size_t batch = r % 3 == 0 ? 1 : (r % 3 == 1 ? 3 : 512);
      ASSERT_EQ(DrainInBatches(*rep->AnswerRange(vb, FInterval{lo, hi}),
                               batch),
                InRange(want, lo, hi))
          << where << " range [" << FInterval{lo, hi}.ToString() << "]";
      ++totals->ranges;
    }

    // Resume after k tuples: the first, a random offset, the last.
    for (size_t k : {(size_t)1, want.empty() ? 0 : rng.Uniform(want.size()),
                     want.size()}) {
      CursorEnumerator ce(rep->Answer(vb));
      TupleBuffer prefix(mu);
      ce.NextBatch(&prefix, k);
      auto resumed = rep->Resume(vb, ce.cursor());
      ASSERT_TRUE(resumed.ok()) << resumed.status().message();
      const std::vector<Tuple> rest(
          want.begin() + std::min(k, want.size()), want.end());
      ASSERT_EQ(DrainInBatches(*resumed.value(), 3), rest)
          << where << " resume after " << k;
    }
  }
}

TEST(CompressedRepRunWalkTest, StreamsMatchDirectEvalAcrossWalkShapes) {
  ShapeTotals totals;
  {
    // The property sweep's 4-cycle, partially and fully free.
    Database db;
    Rng rng(99);
    for (const char* name : {"R", "S", "T", "U"}) {
      std::vector<Tuple> rows;
      for (int i = 0; i < 40; ++i)
        rows.push_back({rng.UniformRange(1, 6), rng.UniformRange(1, 6)});
      AddRelation(db, name, 2, rows);
    }
    for (const char* ad : {"bfff", "bffb", "ffff"}) {
      auto view = ParseAdornedView(std::string("Q^") + ad +
                                   "(a,b,c,d) = R(a,b), S(b,c), T(c,d), "
                                   "U(d,a)");
      ASSERT_TRUE(view.ok());
      for (double tau : {1.0, 3.0, 16.0})
        CheckRunWalk(view.value(), db, tau, 1, &totals);
    }
  }
  {
    Database db;
    MakeLoomisWhitneyRelations(db, "S", 4, 6, 60, 7);
    for (double tau : {1.0, 2.0, 16.0})
      CheckRunWalk(LoomisWhitneyView(4), db, tau, 2, &totals);
  }
  {
    Database db;
    for (int i = 1; i <= 4; ++i)
      MakeRandomGraph(db, "R" + std::to_string(i), 9, 30, false, 60 + i);
    for (double tau : {1.0, 2.0, 81.0})
      CheckRunWalk(StarView(4), db, tau, 3, &totals);
  }
  {
    Database db;
    MakePathRelations(db, "R", 5, 9, 26, 15);
    for (double tau : {1.0, 4.0})
      CheckRunWalk(PathView(5), db, tau, 4, &totals);
  }
  {
    // The triangle with a bound vertex: many tree frames per request.
    Database db;
    MakeRandomGraph(db, "R", 40, 500, /*symmetric=*/true, 5);
    for (double tau : {1.0, 4.0, 32.0})
      CheckRunWalk(TriangleView("bff"), db, tau, 5, &totals);
  }
  // The sweep met every walk shape: runs cut by 0-bit gaps, heavy 1-bit
  // unit leaves, and runs of more than twice the item cap (64).
  EXPECT_GT(totals.zero_gaps, 0u);
  EXPECT_GT(totals.unit_leaves, 0u);
  EXPECT_GT(totals.longest_run, 128u);
  EXPECT_GT(totals.ranges, 0u);
}

// Two answers on either side of a large 0-bit subtree. At tau = 1 the
// dictionary certifies the stretch between them empty, so the walk closes
// its run there and the gap costs dictionary lookups, not join steps. A
// run that crossed the gap would still emit exactly the two answers, but
// its join would merge through the k interleaved non-matches between them.
TEST(CompressedRepRunWalkTest, RunsStopAtZeroBitGaps) {
  const int k = 500;
  Database db;
  Relation* r = db.AddRelation("R", 2);
  for (int i = 0; i < k; ++i) {
    r->Insert({4, (Value)(2 * i + 2)});
    r->Insert({5, (Value)(2 * i + 1)});
  }
  for (Value end : {(Value)0, (Value)(2 * k + 1)}) {
    r->Insert({4, end});
    r->Insert({5, end});
  }
  r->Seal();
  AdornedView view = SetIntersectionView();
  auto rep = MustBuild(view, db, 1.0);
  const WalkShape shape = ShapeOf(*rep, {4, 5});
  size_t widest = 0;
  for (const FInterval& gap : shape.zero_gaps)
    widest = std::max<size_t>(widest, gap.hi[0] - gap.lo[0] + 1);
  ASSERT_GE(widest, (size_t)k / 4);
  std::vector<Tuple> got;
  DelayProfile p = MeasureEnumeration(*rep->Answer({4, 5}), &got);
  EXPECT_EQ(got, (std::vector<Tuple>{{0}, {(Value)(2 * k + 1)}}));
  // About 3 ops per gap boundary; a run across the gap costs >= k.
  EXPECT_LT(p.max_delay_ops, (uint64_t)k / 4);
}

// Property sweep: random instances x adornments x tau.
class CompressedRepSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CompressedRepSweep, MatchesOracle) {
  auto [seed, tau] = GetParam();
  Database db;
  Rng rng(seed);
  auto rand_rel = [&](const std::string& name, int arity) {
    std::vector<Tuple> rows;
    int n = 25 + (int)rng.Uniform(40);
    for (int i = 0; i < n; ++i) {
      Tuple t(arity);
      for (auto& v : t) v = rng.UniformRange(1, 7);
      rows.push_back(t);
    }
    AddRelation(db, name, arity, rows);
  };
  rand_rel("R", 2);
  rand_rel("S", 2);
  rand_rel("T", 3);
  auto view = ParseAdornedView("Q^bffb(x,y,z,w) = R(x,y), S(y,z), T(z,w,x)");
  ASSERT_TRUE(view.ok());
  auto rep = MustBuild(view.value(), db, tau);
  CheckAllRequests(view.value(), db, *rep);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressedRepSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(1.0, 4.0, 64.0)));

}  // namespace
}  // namespace cqc
