// The batch enumeration contract: NextBatch(buffer, n) and repeated Next()
// must expose the same stream — same tuples, same (lexicographic) order, no
// duplicates, no drops — for every enumerator in the library, every batch
// size (including n = 1 and sizes that leave a partial final batch), and
// mixed Next/NextBatch pulls. Runs across the property-sweep query set.
#include <gtest/gtest.h>

#include <set>

#include "baseline/direct_eval.h"
#include "baseline/materialized_view.h"
#include "core/compressed_rep.h"
#include "decomposition/connex_builder.h"
#include "decomposition/decomposed_rep.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/tuple_arena.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::InterestingBoundValuations;
using testing::IsStrictlySortedLex;
using testing::OracleAnswer;

// Drains `make()` both ways for several batch sizes and checks stream
// equality against `expected`.
void CheckBatchAgreement(
    const std::function<std::unique_ptr<TupleEnumerator>()>& make, int arity,
    const std::vector<Tuple>& expected) {
  // Baseline: one-at-a-time.
  {
    auto e = make();
    EXPECT_EQ(e->arity(), arity);
    EXPECT_EQ(CollectAll(*e), expected);
  }
  // One producer: call by call, Next() spends exactly the operations that
  // NextBatch(&buf, 1) spends on a fresh twin stream, so the delay that
  // MeasureEnumeration reports is the delay of one tuple.
  {
    auto single = make();
    auto twin = make();
    TupleBuffer buf(arity);
    Tuple t;
    for (size_t call = 0;; ++call) {
      uint64_t start = ops::Now();
      const bool more = single->Next(&t);
      const uint64_t next_ops = ops::Now() - start;
      buf.Clear();
      start = ops::Now();
      const size_t n = twin->NextBatch(&buf, 1);
      const uint64_t batch_ops = ops::Now() - start;
      ASSERT_EQ(next_ops, batch_ops) << "call " << call;
      ASSERT_EQ(more, n == 1) << "call " << call;
      if (!more) break;
      EXPECT_EQ(TupleSpan(t), buf[0]) << "call " << call;
    }
  }
  // Batched, various sizes: n = 1, tiny sizes that force partial final
  // batches, and a size larger than the whole stream.
  for (size_t batch : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       expected.size() + 16}) {
    auto e = make();
    TupleBuffer buf(arity);
    for (;;) {
      const size_t before = buf.size();
      const size_t n = e->NextBatch(&buf, batch);
      EXPECT_EQ(buf.size(), before + n);
      if (n < batch) break;
    }
    EXPECT_EQ(buf.ToTuples(), expected) << "batch size " << batch;
    // Exhausted streams stay exhausted.
    TupleBuffer again(arity);
    EXPECT_EQ(e->NextBatch(&again, 4), 0u);
    Tuple t;
    EXPECT_FALSE(e->Next(&t));
  }
  // Mixed pulls: alternate Next() and NextBatch() on one stream.
  {
    auto e = make();
    std::vector<Tuple> got;
    TupleBuffer buf(arity);
    Tuple t;
    for (;;) {
      if (e->Next(&t)) {
        got.push_back(t);
      } else {
        break;
      }
      buf.Clear();
      const size_t n = e->NextBatch(&buf, 3);
      for (size_t i = 0; i < n; ++i) got.push_back(buf[i].ToTuple());
      if (n < 3) break;
    }
    EXPECT_EQ(got, expected);
  }
}

void CheckAllStructures(const AdornedView& view, const Database& db,
                        double tau) {
  CompressedRepOptions copt;
  copt.tau = tau;
  auto cr = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(cr.ok()) << cr.status().message() << " " << view.ToString();
  auto de = DirectEval::Build(view, db);
  ASSERT_TRUE(de.ok());
  auto mv = MaterializedView::Build(view, db);
  ASSERT_TRUE(mv.ok());
  const int arity = view.num_free();
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    const std::vector<Tuple> expected = OracleAnswer(view, db, vb);
    EXPECT_TRUE(IsStrictlySortedLex(expected));
    CheckBatchAgreement([&] { return cr.value()->Answer(vb); }, arity,
                        expected);
    CheckBatchAgreement([&] { return de.value()->Answer(vb); }, arity,
                        expected);
    CheckBatchAgreement([&] { return mv.value()->Answer(vb); }, arity,
                        expected);
  }
}

// Every adornment of a 4-variable cyclic query (the property-sweep net).
class BatchAdornmentSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchAdornmentSweep, BatchMatchesNextEverywhere) {
  const int mask = GetParam();
  std::string ad;
  for (int i = 0; i < 4; ++i) ad += (mask >> i) & 1 ? 'b' : 'f';
  Database db;
  Rng rng(99);
  auto rel = [&](const std::string& name) {
    std::vector<Tuple> rows;
    for (int i = 0; i < 40; ++i)
      rows.push_back({rng.UniformRange(1, 6), rng.UniformRange(1, 6)});
    AddRelation(db, name, 2, rows);
  };
  rel("R");
  rel("S");
  rel("T");
  rel("U");
  auto view = ParseAdornedView(
      "Q^" + ad + "(a,b,c,d) = R(a,b), S(b,c), T(c,d), U(d,a)");
  ASSERT_TRUE(view.ok());
  CheckAllStructures(view.value(), db, 3.0);
}

INSTANTIATE_TEST_SUITE_P(AllMasks, BatchAdornmentSweep,
                         ::testing::Range(0, 16));

TEST(BatchEnumeration, QueryFamilies) {
  {
    Database db;
    MakeLoomisWhitneyRelations(db, "S", 4, 6, 60, 7);
    CheckAllStructures(LoomisWhitneyView(4), db, 2.0);
  }
  {
    Database db;
    for (int i = 1; i <= 4; ++i)
      MakeRandomGraph(db, "R" + std::to_string(i), 9, 30, false, 60 + i);
    CheckAllStructures(StarView(4), db, 2.0);
  }
  {
    Database db;
    MakePathRelations(db, "R", 5, 9, 26, 15);
    CheckAllStructures(PathView(5), db, 4.0);
  }
}

// The cyclic-box fast path: at high tau nearly the whole stream drains
// through WCOJ joins whose deepest level has several participating atoms
// (triangle: S's and T's z columns; Loomis–Whitney likewise), i.e. through
// the galloping-intersection scan rather than the one-participant column
// walk. Exercise large batch sizes so a single ScanLastLevel call crosses
// many runs, and batch sizes that pause it mid-run.
TEST(BatchEnumeration, CyclicDeepestLevelScanTriangle) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 16);
  AdornedView view = TriangleView("fff");
  for (double tau : {1.0, 64.0, 4096.0}) {
    CompressedRepOptions copt;
    copt.tau = tau;
    auto cr = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(cr.ok());
    const std::vector<Tuple> expected = OracleAnswer(view, db, {});
    ASSERT_FALSE(expected.empty());
    for (size_t batch : {size_t{1}, size_t{5}, size_t{256}}) {
      auto e = cr.value()->Answer({});
      TupleBuffer buf(3);
      while (e->NextBatch(&buf, batch) == batch) {
      }
      EXPECT_EQ(buf.ToTuples(), expected) << "tau " << tau << " batch "
                                          << batch;
    }
  }
}

TEST(BatchEnumeration, CyclicDeepestLevelScanLoomisWhitney) {
  Database db;
  MakeLoomisWhitneyRelations(db, "S", 3, 14, 240, 3);
  // All-free LW(3): the catalog's LoomisWhitneyView is b..bf, but the scan
  // fast path needs free join levels.
  auto view = ParseAdornedView(
      "Q^fff(x1,x2,x3) = S1(x2,x3), S2(x1,x3), S3(x1,x2)");
  ASSERT_TRUE(view.ok());
  for (double tau : {2.0, 512.0}) {
    CompressedRepOptions copt;
    copt.tau = tau;
    auto cr = CompressedRep::Build(view.value(), db, copt);
    ASSERT_TRUE(cr.ok());
    const std::vector<Tuple> expected = OracleAnswer(view.value(), db, {});
    for (size_t batch : {size_t{3}, size_t{128}}) {
      auto e = cr.value()->Answer({});
      TupleBuffer buf(3);
      while (e->NextBatch(&buf, batch) == batch) {
      }
      EXPECT_EQ(buf.ToTuples(), expected) << "tau " << tau << " batch "
                                          << batch;
    }
  }
}

TEST(BatchEnumeration, DecomposedRepAgrees) {
  Database db;
  MakePathRelations(db, "R", 5, 9, 26, 16);
  AdornedView view = PathView(5);
  std::vector<VarId> path_vars;
  for (int i = 1; i <= 6; ++i)
    path_vars.push_back(view.cq().FindVar("x" + std::to_string(i)));
  TreeDecomposition td = BuildZigZagPath(path_vars);
  DecomposedRepOptions dopt;
  dopt.delta = DelayAssignment::Uniform(td, 0.4);
  auto rep = DecomposedRep::Build(view, db, td, dopt);
  ASSERT_TRUE(rep.ok()) << rep.status().message();
  const int arity = view.num_free();
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    // Alg5's order follows the decomposition, not lex order: compare the
    // one-at-a-time stream verbatim (it is the reference for the batch).
    auto reference = CollectAll(*rep.value()->Answer(vb));
    CheckBatchAgreement([&] { return rep.value()->Answer(vb); }, arity,
                        reference);
  }
}

// ProjectingEnumerator's NextBatch pulls its inner stream in slices and
// drops repeated projections: run it through every batch size and mixed
// pulls, over inner streams with many repeats.
TEST(BatchEnumeration, ProjectingEnumeratorAgrees) {
  Database db;
  Rng rng(7);
  for (const char* name : {"R", "S", "T", "U"}) {
    std::vector<Tuple> rows;
    for (int i = 0; i < 40; ++i)
      rows.push_back({rng.UniformRange(1, 6), rng.UniformRange(1, 6)});
    AddRelation(db, name, 2, rows);
  }
  auto view =
      ParseAdornedView("Q^bfff(a,b,c,d) = R(a,b), S(b,c), T(c,d), U(d,a)");
  ASSERT_TRUE(view.ok());
  CompressedRepOptions copt;
  copt.tau = 3.0;
  auto cr = CompressedRep::Build(view.value(), db, copt);
  ASSERT_TRUE(cr.ok());
  auto de = DirectEval::Build(view.value(), db);
  ASSERT_TRUE(de.ok());
  for (const std::vector<int>& positions :
       {std::vector<int>{0}, std::vector<int>{2, 0}, std::vector<int>{1, 1},
        std::vector<int>{0, 1, 2}}) {
    for (const BoundValuation& vb :
         InterestingBoundValuations(view.value(), db)) {
      // Distinct projections in order of first appearance.
      std::vector<Tuple> expected;
      std::set<Tuple> seen;
      for (const Tuple& t : OracleAnswer(view.value(), db, vb)) {
        Tuple p;
        for (int i : positions) p.push_back(t[i]);
        if (seen.insert(p).second) expected.push_back(p);
      }
      const int arity = (int)positions.size();
      CheckBatchAgreement(
          [&]() -> std::unique_ptr<TupleEnumerator> {
            return std::make_unique<ProjectingEnumerator>(
                cr.value()->Answer(vb), positions);
          },
          arity, expected);
      CheckBatchAgreement(
          [&]() -> std::unique_ptr<TupleEnumerator> {
            return std::make_unique<ProjectingEnumerator>(
                de.value()->Answer(vb), positions);
          },
          arity, expected);
    }
  }
}

TEST(BatchEnumeration, BooleanViewAndEmptyStreams) {
  Database db;
  AddRelation(db, "R", 2, {{1, 2}, {3, 4}});
  auto view = ParseAdornedView("Q^bb(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  CompressedRepOptions copt;
  auto rep = CompressedRep::Build(view.value(), db, copt);
  ASSERT_TRUE(rep.ok());
  // Hit: one empty tuple through an arity-0 buffer.
  CheckBatchAgreement([&] { return rep.value()->Answer({1, 2}); }, 0,
                      {Tuple{}});
  // Miss: empty stream.
  CheckBatchAgreement([&] { return rep.value()->Answer({1, 4}); }, 0, {});
}

TEST(BatchEnumeration, TupleArenaAndBufferBasics) {
  TupleArena arena(4);  // tiny chunks to exercise growth
  std::vector<TupleRef> refs;
  for (Value v = 0; v < 100; ++v) {
    Tuple t{v, v + 1, v + 2};
    refs.push_back(arena.Copy(t));
  }
  for (Value v = 0; v < 100; ++v) {
    EXPECT_EQ(refs[v].ToTuple(), (Tuple{v, v + 1, v + 2}));
  }
  arena.Reset();
  TupleRef r = arena.Alloc(2);
  r[0] = 7;
  r[1] = 8;
  EXPECT_EQ(TupleSpan(r), TupleSpan(Tuple{7, 8}));

  TupleBuffer buf(2);
  EXPECT_TRUE(buf.empty());
  buf.Append(Tuple{1, 2});
  Value* slot = buf.AppendSlot();
  slot[0] = 3;
  slot[1] = 4;
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], TupleSpan(Tuple{1, 2}));
  EXPECT_EQ(buf.back(), TupleSpan(Tuple{3, 4}));
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
}

}  // namespace
}  // namespace cqc
