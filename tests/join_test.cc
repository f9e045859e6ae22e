#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/finterval.h"
#include "join/bound_atom.h"
#include "join/generic_join.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::IsStrictlySortedLex;
using testing::NaiveEvaluate;

// Runs a generic join over all (free) variables of a natural-join view with
// no bound variables and compares against the naive oracle.
std::vector<Tuple> RunFullJoin(const ConjunctiveQuery& cq,
                               const Database& db) {
  std::vector<VarId> order;
  for (VarId v = 0; v < cq.num_vars(); ++v) order.push_back(v);
  std::vector<VarId> none;
  std::vector<BoundAtom> atoms;
  for (const Atom& atom : cq.atoms())
    atoms.emplace_back(atom, *db.Find(atom.relation), none, order);
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
  JoinIterator join(
      std::move(inputs), cq.num_vars(),
      std::vector<LevelConstraint>(cq.num_vars(), LevelConstraint::Any()));
  Tuple t;
  std::vector<Tuple> out;
  while (join.Next(&t)) out.push_back(t);
  return out;
}

// Oracle with head = all variables in VarId order.
std::vector<Tuple> OracleAllVars(const ConjunctiveQuery& cq,
                                 const Database& db) {
  ConjunctiveQuery copy = cq;  // re-head with every variable
  auto text = cq.ToString();
  // Build a fresh CQ with identical body but full identity head.
  ConjunctiveQuery full;
  for (VarId v = 0; v < cq.num_vars(); ++v)
    full.GetOrAddVar(cq.var_name(v));
  for (VarId v = 0; v < cq.num_vars(); ++v) full.AddHeadVar(v);
  for (const Atom& a : cq.atoms()) full.AddAtom(a);
  return NaiveEvaluate(full, db);
}

TEST(BoundAtomTest, SplitsBoundAndFree) {
  auto q = ParseConjunctiveQuery("Q(x,y,z) = R(y,x,z)");
  ASSERT_TRUE(q.ok());
  Database db;
  AddRelation(db, "R", 3, {{1, 2, 3}});
  VarId x = q.value().FindVar("x"), y = q.value().FindVar("y"),
        z = q.value().FindVar("z");
  BoundAtom atom(q.value().atoms()[0], *db.Find("R"), {x, z}, {y});
  EXPECT_EQ(atom.num_bound(), 2);
  EXPECT_EQ(atom.num_free(), 1);
  // Bound positions ascending: x at view pos 0 (col 1), z at pos 1 (col 2).
  EXPECT_EQ(atom.bound_positions(), (std::vector<int>{0, 1}));
  EXPECT_EQ(atom.free_positions(), (std::vector<int>{0}));
  // Row (y=1, x=2, z=3): bound (x=2, z=3), free y=1.
  EXPECT_EQ(atom.CountBound(Tuple{2, 3}), 1u);
  EXPECT_EQ(atom.CountBound(Tuple{1, 3}), 0u);
  EXPECT_TRUE(atom.ContainsValuation(Tuple{2, 3}, Tuple{1}));
  EXPECT_FALSE(atom.ContainsValuation(Tuple{2, 3}, Tuple{9}));
}

TEST(BoundAtomTest, CountBoxCanonical) {
  auto q = ParseConjunctiveQuery("Q(a,b) = R(a,b)");
  ASSERT_TRUE(q.ok());
  Database db;
  AddRelation(db, "R", 2,
              {{1, 10}, {1, 20}, {2, 10}, {2, 30}, {3, 10}});
  VarId a = q.value().FindVar("a"), b = q.value().FindVar("b");
  std::vector<VarId> none;
  BoundAtom atom(q.value().atoms()[0], *db.Find("R"), none, {a, b});
  // Box <1, *>: 2 rows.
  FBox box1{{FBoxDim::Unit(1), FBoxDim::Any()}};
  EXPECT_EQ(atom.CountBox(box1), 2u);
  // Box <[2,3], *>: 3 rows.
  FBox box2{{FBoxDim::Range(2, 3), FBoxDim::Any()}};
  EXPECT_EQ(atom.CountBox(box2), 3u);
  // Box <2, [10,29]>: 1 row.
  FBox box3{{FBoxDim::Unit(2), FBoxDim::Range(10, 29)}};
  EXPECT_EQ(atom.CountBox(box3), 1u);
  // Empty range.
  FBox box4{{FBoxDim::Range(5, 4), FBoxDim::Any()}};
  EXPECT_EQ(atom.CountBox(box4), 0u);
}

TEST(BoundAtomTest, CountBoundBoxMixesBoundAndBox) {
  // R(w, x, y) with w bound; count under (w=1) and y-range.
  auto q = ParseConjunctiveQuery("Q(w,x,y) = R(w,x,y)");
  ASSERT_TRUE(q.ok());
  Database db;
  AddRelation(db, "R", 3,
              {{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {3, 1, 1}});
  VarId w = q.value().FindVar("w"), x = q.value().FindVar("x"),
        y = q.value().FindVar("y");
  BoundAtom atom(q.value().atoms()[0], *db.Find("R"), {w}, {x, y});
  FBox all{{FBoxDim::Any(), FBoxDim::Any()}};
  EXPECT_EQ(atom.CountBoundBox(Tuple{1}, all), 3u);
  FBox x1{{FBoxDim::Unit(1), FBoxDim::Any()}};
  EXPECT_EQ(atom.CountBoundBox(Tuple{1}, x1), 2u);
  FBox x1y2{{FBoxDim::Unit(1), FBoxDim::Range(2, 5)}};
  EXPECT_EQ(atom.CountBoundBox(Tuple{1}, x1y2), 1u);
  EXPECT_EQ(atom.CountBoundBox(Tuple{9}, all), 0u);
}

TEST(GenericJoinTest, TwoPathMatchesOracle) {
  auto q = ParseConjunctiveQuery("Q(x,y,z) = R(x,y), S(y,z)");
  ASSERT_TRUE(q.ok());
  Database db;
  AddRelation(db, "R", 2, {{1, 2}, {1, 3}, {4, 2}});
  AddRelation(db, "S", 2, {{2, 7}, {2, 8}, {3, 9}, {5, 1}});
  auto got = RunFullJoin(q.value(), db);
  EXPECT_TRUE(IsStrictlySortedLex(got));
  EXPECT_EQ(got, OracleAllVars(q.value(), db));
  EXPECT_EQ(got.size(), 5u);
}

TEST(GenericJoinTest, TriangleMatchesOracle) {
  auto q = ParseConjunctiveQuery("Q(x,y,z) = R(x,y), S(y,z), T(z,x)");
  ASSERT_TRUE(q.ok());
  Database db;
  Rng rng(77);
  std::vector<Tuple> edges;
  for (int i = 0; i < 120; ++i)
    edges.push_back({rng.UniformRange(1, 12), rng.UniformRange(1, 12)});
  AddRelation(db, "R", 2, edges);
  AddRelation(db, "S", 2, edges);
  AddRelation(db, "T", 2, edges);
  auto got = RunFullJoin(q.value(), db);
  EXPECT_TRUE(IsStrictlySortedLex(got));
  EXPECT_EQ(got, OracleAllVars(q.value(), db));
}

TEST(GenericJoinTest, SelfJoinSameRelation) {
  auto q = ParseConjunctiveQuery("Q(x,y,z) = R(x,y), R(y,z)");
  ASSERT_TRUE(q.ok());
  Database db;
  AddRelation(db, "R", 2, {{1, 2}, {2, 3}, {3, 1}, {2, 1}});
  auto got = RunFullJoin(q.value(), db);
  EXPECT_EQ(got, OracleAllVars(q.value(), db));
}

TEST(GenericJoinTest, EmptyRelationKillsJoin) {
  auto q = ParseConjunctiveQuery("Q(x,y,z) = R(x,y), S(y,z)");
  ASSERT_TRUE(q.ok());
  Database db;
  AddRelation(db, "R", 2, {{1, 2}});
  AddRelation(db, "S", 2, {});
  EXPECT_TRUE(RunFullJoin(q.value(), db).empty());
}

TEST(GenericJoinTest, RandomInstancesPropertySweep) {
  // Property test: on random ternary-join instances, the streaming join
  // equals the oracle and is lexicographically sorted.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto q = ParseConjunctiveQuery("Q(x,y,z,w) = R(x,y), S(y,z), T(z,w)");
    ASSERT_TRUE(q.ok());
    Database db;
    Rng rng(seed);
    auto rand_rel = [&](const std::string& name) {
      std::vector<Tuple> rows;
      int n = 20 + (int)rng.Uniform(40);
      for (int i = 0; i < n; ++i)
        rows.push_back({rng.UniformRange(1, 8), rng.UniformRange(1, 8)});
      AddRelation(db, name, 2, rows);
    };
    rand_rel("R");
    rand_rel("S");
    rand_rel("T");
    auto got = RunFullJoin(q.value(), db);
    EXPECT_TRUE(IsStrictlySortedLex(got)) << "seed " << seed;
    EXPECT_EQ(got, OracleAllVars(q.value(), db)) << "seed " << seed;
  }
}

TEST(GenericJoinTest, UnitAndRangeConstraints) {
  auto q = ParseConjunctiveQuery("Q(x,y) = R(x,y)");
  ASSERT_TRUE(q.ok());
  Database db;
  AddRelation(db, "R", 2, {{1, 5}, {1, 6}, {2, 5}, {3, 7}});
  std::vector<VarId> none;
  BoundAtom atom(q.value().atoms()[0], *db.Find("R"), none,
                 {q.value().FindVar("x"), q.value().FindVar("y")});
  JoinAtomInput in;
  in.index = &atom.bf_index();
  in.start = atom.bf_index().Root();
  in.start_level = 0;
  in.levels = {{0, 0}, {1, 1}};
  {
    JoinIterator join({in}, 2,
                      {LevelConstraint::Unit(1), LevelConstraint::Any()});
    Tuple t;
    std::vector<Tuple> got;
    while (join.Next(&t)) got.push_back(t);
    EXPECT_EQ(got, (std::vector<Tuple>{{1, 5}, {1, 6}}));
  }
  {
    LevelConstraint range{FBoxDim::kRange, 2, 3};
    JoinIterator join({in}, 2, {range, LevelConstraint::Any()});
    Tuple t;
    std::vector<Tuple> got;
    while (join.Next(&t)) got.push_back(t);
    EXPECT_EQ(got, (std::vector<Tuple>{{2, 5}, {3, 7}}));
  }
}

TEST(GenericJoinTest, ZeroLevelExistenceCheck) {
  auto q = ParseConjunctiveQuery("Q(x) = R(x)");
  ASSERT_TRUE(q.ok());
  Database db;
  AddRelation(db, "R", 1, {{1}});
  std::vector<VarId> none;
  BoundAtom atom(q.value().atoms()[0], *db.Find("R"),
                 {q.value().FindVar("x")}, none);
  JoinAtomInput in;
  in.index = &atom.bf_index();
  in.start = atom.SeekBound(Tuple{1});
  in.start_level = 1;
  JoinIterator join({in}, 0, {});
  Tuple t;
  EXPECT_TRUE(join.Next(&t));
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(join.Next(&t));

  JoinAtomInput miss = in;
  miss.start = atom.SeekBound(Tuple{9});
  JoinIterator join2({miss}, 0, {});
  EXPECT_FALSE(join2.Next(&t));
}

// One JoinIterator reused through random restart sequences must emit, for
// every box, exactly what a fresh iterator emits for it. The sequences mix
// what Algorithm 2 feeds its request cursor (Lemma 1 boxes of ascending lex
// intervals with unit boxes at the split points between them) with repeated
// boxes and backward jumps, and stop some boxes mid-stream, so the hinted
// restart rule is pinned from both sides: hint only while the parent runs
// are unchanged, and only for targets >= the level's current value.
TEST(GenericJoinTest, ReusedIteratorMatchesFreshAcrossResets) {
  const std::vector<std::pair<std::string, std::vector<int>>> queries = {
      {"Q(x,y,z) = R(x,y), S(y,z), T(z,x)", {2, 2, 2}},
      {"Q(x1,x2,x3) = R(x2,x3), S(x1,x3), T(x1,x2)", {2, 2, 2}},
      {"Q(x,y,z,w) = R(x,y,z), S(y,z,w), T(z,w,x), U(w,x,y)", {3, 3, 3, 3}},
      {"Q(x,y,z,w) = R(x,y,z), S(x,z), T(z,w), U(y,w,x)", {3, 2, 2, 3}},
  };
  const char* names[] = {"R", "S", "T", "U"};
  for (const auto& [text, arities] : queries) {
    auto q = ParseConjunctiveQuery(text);
    ASSERT_TRUE(q.ok());
    const ConjunctiveQuery& cq = q.value();
    const int n = cq.num_vars();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 7919 + (uint64_t)n);
      const Value dom = 5 + (Value)rng.Uniform(4);
      Database db;
      for (size_t a = 0; a < arities.size(); ++a) {
        std::vector<Tuple> rows;
        const int count = 40 + (int)rng.Uniform(80);
        for (int i = 0; i < count; ++i) {
          Tuple row;
          for (int c = 0; c < arities[a]; ++c)
            row.push_back(rng.UniformRange(1, dom));
          rows.push_back(row);
        }
        AddRelation(db, names[a], arities[a], rows);
      }
      std::vector<VarId> order, none;
      for (VarId v = 0; v < n; ++v) order.push_back(v);
      std::vector<BoundAtom> atoms;
      for (const Atom& atom : cq.atoms())
        atoms.emplace_back(atom, *db.Find(atom.relation), none, order);
      std::vector<JoinAtomInput> inputs;
      for (const BoundAtom& atom : atoms) {
        JoinAtomInput in;
        in.index = &atom.bf_index();
        in.start = atom.bf_index().Root();
        for (int i = 0; i < atom.num_free(); ++i)
          in.levels.emplace_back(atom.free_positions()[i], i);
        inputs.push_back(std::move(in));
      }

      const std::vector<Tuple> results = OracleAllVars(cq, db);
      // Half the points are join results, so unit boxes hit as often as
      // they miss; the rest are anywhere in (and just outside) the domain.
      auto random_point = [&] {
        if (!results.empty() && rng.Bernoulli(0.5))
          return results[rng.Uniform(results.size())];
        Tuple t(n);
        for (Value& v : t) v = rng.UniformRange(0, dom + 1);
        return t;
      };
      // Boxes to run, in order; unit boxes are the split points.
      std::vector<FBox> boxes;
      auto add_interval = [&](const Tuple& lo, const Tuple& hi) {
        if (LexDomain::Compare(lo, hi) > 0) return;
        for (const FBox& box : BoxDecompose(FInterval{lo, hi}))
          boxes.push_back(box);
      };
      auto add_point = [&](const Tuple& p) {
        FBox box;
        for (Value v : p) box.dims.push_back(FBoxDim::Unit(v));
        boxes.push_back(std::move(box));
      };
      for (int round = 0; round < 4; ++round) {
        // An ascending walk: intervals between sorted split points, each
        // split point probed as a unit box in between.
        std::vector<Tuple> cuts;
        for (int i = 0; i < 6; ++i) cuts.push_back(random_point());
        std::sort(cuts.begin(), cuts.end());
        Tuple lo(n, kBottom);
        for (const Tuple& cut : cuts) {
          Tuple before = cut;
          int i = n - 1;
          while (i >= 0 && before[i] == kBottom) before[i--] = kTop;
          if (i >= 0) {
            --before[i];
            add_interval(lo, before);
          }
          add_point(cut);
          if (rng.Bernoulli(0.2)) add_point(cut);  // repeated box
          // The same suffix under a neighbouring prefix value: a new run at
          // some level, then targets equal to (or past) the deeper runs'
          // old values, whose parents have changed.
          Tuple moved = cut;
          Value& at = moved[rng.Uniform(n - 1)];
          at = rng.Bernoulli(0.5) ? at + 1 : (at > 0 ? at - 1 : at);
          add_point(moved);
          lo = cut;
          i = n - 1;
          while (i >= 0 && lo[i] == kTop) lo[i--] = kBottom;
          if (i < 0) break;
          ++lo[i];
        }
        // Backward jumps: a random interval and a random point anywhere.
        Tuple a = random_point(), b = random_point();
        if (b < a) std::swap(a, b);
        add_interval(a, b);
        if (rng.Bernoulli(0.5)) {
          FBox again = boxes[rng.Uniform(boxes.size())];
          boxes.push_back(std::move(again));
        }
        add_point(random_point());
      }

      std::optional<JoinIterator> reused;
      TupleBuffer got(n), want(n);
      Tuple t;
      for (size_t b = 0; b < boxes.size(); ++b) {
        const FBox& box = boxes[b];
        std::vector<LevelConstraint> c;
        for (const FBoxDim& d : box.dims)
          c.push_back(LevelConstraint::FromDim(d));
        if (!reused.has_value()) {
          reused.emplace(&inputs, n, c);
        } else {
          reused->ResetToBox(box);  // unit boxes are the point probes
        }
        want.Clear();
        for (const Tuple& r : results)
          if (box.Contains(r)) want.Append(r);
        JoinIterator fresh(&inputs, n, c);
        std::vector<Tuple> fresh_out;
        while (fresh.Next(&t)) fresh_out.push_back(t);
        ASSERT_EQ(fresh_out, want.ToTuples());
        // Drain through a random mix of Next and NextBatch; sometimes stop
        // early, leaving the cursor mid-box for the next restart.
        const size_t limit =
            rng.Bernoulli(0.25) ? rng.Uniform(want.size() + 1) : want.size();
        got.Clear();
        while (got.size() < limit) {
          if (rng.Bernoulli(0.3)) {
            if (!reused->Next(&t)) break;
            got.Append(t);
          } else {
            const size_t ask = 1 + rng.Uniform(8);
            if (reused->NextBatch(&got, ask) < ask) break;
          }
        }
        const std::string where =
            text + " seed " + std::to_string(seed) + " box " +
            std::to_string(b);
        ASSERT_GE(got.size(), limit) << where;
        ASSERT_LE(got.size(), want.size()) << where;
        for (size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got[i].ToTuple(), want[i].ToTuple()) << where << " row "
                                                         << i;
        if (limit == want.size()) {
          ASSERT_EQ(reused->NextBatch(&got, 4), 0u) << where;
        }
      }
    }
  }
}

// A one-tuple pull that stops inside a deepest-level run keeps the merge
// cursors for the next pull. When the stream then ends, and the next box
// starts exactly at the last emitted tuple, the restart must see that
// tuple's run, not the run the merge started from: otherwise it re-emits
// the values in between, out of order.
TEST(GenericJoinTest, RestartAfterOneTuplePullsSeesTheLastRun) {
  Database db;
  Rng rng(5);
  for (const char* name : {"R", "S", "T"}) {
    std::vector<Tuple> rows;
    for (int i = 0; i < 60; ++i)
      rows.push_back({rng.UniformRange(1, 4), rng.UniformRange(1, 12)});
    AddRelation(db, name, 2, rows);
  }
  // z is the deepest level, shared by S and T: a two-way merge.
  auto q = ParseConjunctiveQuery("Q(x,y,z) = R(x,y), S(y,z), T(x,z)");
  ASSERT_TRUE(q.ok());
  const ConjunctiveQuery& cq = q.value();
  std::vector<VarId> order{0, 1, 2}, none;
  std::vector<BoundAtom> atoms;
  for (const Atom& atom : cq.atoms())
    atoms.emplace_back(atom, *db.Find(atom.relation), none, order);
  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : atoms) {
    JoinAtomInput in;
    in.index = &atom.bf_index();
    in.start = atom.bf_index().Root();
    for (int i = 0; i < atom.num_free(); ++i)
      in.levels.emplace_back(atom.free_positions()[i], i);
    inputs.push_back(std::move(in));
  }
  const std::vector<Tuple> results = OracleAllVars(cq, db);
  ASSERT_GT(results.size(), 3u);
  // Every prefix (x, y) with at least two z values: drain its box one
  // tuple at a time to the end, then restart on [last z, top] under the
  // same prefix, which holds exactly the last tuple.
  JoinIterator join(&inputs, 3, std::vector<LevelConstraint>(3));
  TupleBuffer got(3);
  size_t checked = 0;
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    const Tuple& t = results[i];
    if (i > 0 && results[i - 1][0] == t[0] && results[i - 1][1] == t[1])
      continue;  // not the first tuple of its prefix
    if (results[i + 1][0] != t[0] || results[i + 1][1] != t[1]) continue;
    FBox box;
    box.dims = {FBoxDim::Unit(t[0]), FBoxDim::Unit(t[1]), FBoxDim::Any()};
    join.ResetToBox(box);
    got.Clear();
    while (join.NextBatch(&got, 1) == 1) {
    }
    ASSERT_GE(got.size(), 2u);
    const TupleSpan last = got.back();
    box.dims[2] = FBoxDim::Range(last[2], kTop);
    join.ResetToBox(box);
    TupleBuffer again(3);
    while (join.NextBatch(&again, 4) == 4) {
    }
    ASSERT_EQ(again.size(), 1u) << "prefix " << t[0] << "," << t[1];
    EXPECT_EQ(again[0], last);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace cqc
