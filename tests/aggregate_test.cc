// Differential suite for grouped ring aggregates (COUNT/SUM/MIN/MAX).
//
// The contract under test: AnswerRep::AnswerAggregate is value-identical
// across every representation family — pushed annotation walks (compressed,
// with tree annotations for free views and dictionary-entry annotations for
// bound views), the decomposed bag-product recurrence, the materialized
// columnar fold, the direct drain fallback — and against an independent
// oracle (naive join + map fold), for prefix and non-prefix group sets,
// under UpdatableRep churn (insert / delete / un-delete), and through a
// save -> load / save -> mmap round trip of the CQCREP05 annotation blocks.
//
// Also here: the Olteanu-Zavodny ring-recurrence pinning test referenced by
// docs/paper-map.md, the MaterializedView::CountAnswer bound-prefix
// coverage (non-empty bound valuations, range edges), and the Explain
// capability-tag pin.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/serialization.h"
#include "plan/answer_rep.h"
#include "plan/planner.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::InterestingBoundValuations;
using testing::OracleAnswer;

/// Independent reference: fold the oracle's distinct answer tuples through
/// a map. Shares no code with GroupedDrainAggregate or the pushed walks.
AggregateResult NaiveAggregate(const std::vector<Tuple>& answers,
                               const std::vector<int>& group_vars,
                               const AggSpec& spec) {
  std::map<Tuple, AggCell> groups;
  for (const Tuple& t : answers) {
    Tuple key;
    for (int g : group_vars) key.push_back(t[(size_t)g]);
    AggCell& c = groups[key];
    if (spec.func == AggFunc::kCount)
      c.FoldCountOnly();
    else
      c.FoldValue(t[(size_t)spec.value_var]);
  }
  AggregateResult out;
  out.group_arity = (int)group_vars.size();
  for (const auto& [key, cell] : groups) {
    out.keys.insert(out.keys.end(), key.begin(), key.end());
    out.counts.push_back(cell.count);
    switch (spec.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
        out.values.push_back(cell.sum);
        break;
      case AggFunc::kMin:
        out.values.push_back(cell.min);
        break;
      case AggFunc::kMax:
        out.values.push_back(cell.max);
        break;
    }
  }
  return out;
}

std::unique_ptr<AnswerRep> MustBuild(RepKind kind, const AdornedView& view,
                                     const Database& db, double tau = 4.0) {
  RepBuildSpec spec;
  spec.kind = kind;
  spec.compressed.tau = tau;
  spec.compressed.build_aggregates = true;
  spec.updatable.rep.tau = tau;
  spec.updatable.rep.build_aggregates = true;
  auto rep = BuildAnswerRep(spec, view, db);
  CQC_CHECK(rep.ok()) << RepKindName(kind) << ": " << rep.status().message();
  return std::move(rep).value();
}

/// Group sets exercised per view: every lex prefix plus non-prefix sets
/// (which force the grouped-drain fallback even on annotated structures).
std::vector<std::vector<int>> GroupSets(int mu) {
  std::vector<std::vector<int>> out;
  for (int k = 0; k <= mu; ++k) {
    std::vector<int> prefix;
    for (int i = 0; i < k; ++i) prefix.push_back(i);
    out.push_back(std::move(prefix));
  }
  if (mu > 1) out.push_back({mu - 1});
  if (mu > 2) out.push_back({0, mu - 1});
  return out;
}

std::vector<AggSpec> AllSpecs(int mu) {
  std::vector<AggSpec> out = {AggSpec::Count(), AggSpec::Sum(0),
                              AggSpec::Min(0), AggSpec::Max(0)};
  if (mu > 1) {
    out.push_back(AggSpec::Sum(mu - 1));
    out.push_back(AggSpec::Min(mu - 1));
    out.push_back(AggSpec::Max(mu - 1));
  }
  return out;
}

/// Every family's AnswerAggregate vs the naive oracle, for every
/// interesting request x group set x spec.
void CheckAllFamilies(const AdornedView& view, const Database& db,
                      double tau = 4.0) {
  constexpr RepKind kKinds[] = {RepKind::kCompressed, RepKind::kDecomposed,
                                RepKind::kDirect, RepKind::kMaterialized};
  std::vector<std::unique_ptr<AnswerRep>> reps;
  for (RepKind kind : kKinds) reps.push_back(MustBuild(kind, view, db, tau));
  const int mu = view.num_free();
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    const std::vector<Tuple> oracle = OracleAnswer(view, db, vb);
    for (const std::vector<int>& gv : GroupSets(mu)) {
      for (const AggSpec& spec : AllSpecs(mu)) {
        const AggregateResult want = NaiveAggregate(oracle, gv, spec);
        for (const auto& rep : reps) {
          auto got = rep->AnswerAggregate(vb, gv, spec);
          ASSERT_TRUE(got.ok()) << got.status().message();
          EXPECT_EQ(got.value(), want)
              << RepKindName(rep->kind()) << " " << AggFuncName(spec.func)
              << " k=" << gv.size();
        }
      }
    }
  }
}

// --- full-free views: tree-mode annotations --------------------------------

TEST(AggregateDifferential, Path2FreeView) {
  Database db;
  MakePathRelations(db, "R", 2, 30, 120, 7);
  const AdornedView view = PathView(2, "fff");
  // Annotations must actually be present (the pushed path is live, not the
  // fallback masquerading as it).
  auto rep = MustBuild(RepKind::kCompressed, view, db);
  EXPECT_TRUE(rep->capabilities().aggregates);
  EXPECT_TRUE(static_cast<const CompressedAnswerRep&>(*rep)
                  .underlying()
                  .has_aggregates());
  CheckAllFamilies(view, db);
}

TEST(AggregateDifferential, TriangleFreeView) {
  Database db;
  MakeRandomGraph(db, "R", 18, 90, /*symmetric=*/true, 11);
  CheckAllFamilies(TriangleView("fff"), db);
}

// --- bound views: dictionary-entry annotations -----------------------------

TEST(AggregateDifferential, StarBoundView) {
  Database db;
  // Small domains force shared z-lists, so heavy (x1,x2) pairs exist and
  // the dictionary carries annotated entries at tau = 2.
  MakeRandomRelation(db, "R1", {8, 20}, 80, 3);
  MakeRandomRelation(db, "R2", {8, 20}, 80, 4);
  CheckAllFamilies(StarView(2), db, /*tau=*/2.0);
}

TEST(AggregateDifferential, RunningExampleBoundView) {
  Database db;
  MakeRandomRelation(db, "R1", {6, 10, 10}, 70, 21);
  MakeRandomRelation(db, "R2", {6, 10, 10}, 70, 22);
  MakeRandomRelation(db, "R3", {6, 10, 10}, 70, 23);
  CheckAllFamilies(RunningExampleView(), db, /*tau=*/2.0);
}

// --- randomized sweep ------------------------------------------------------

TEST(AggregateDifferential, RandomizedSweep) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Database db;
    MakePathRelations(db, "R", 2, 20 + 5 * seed, 80 + 20 * seed, seed);
    CheckAllFamilies(PathView(2, "fff"), db, /*tau=*/1 + (double)seed);
  }
}

// --- churn: UpdatableRep insert / delete / un-delete -----------------------

TEST(AggregateUnderChurn, InsertDeleteUndelete) {
  const AdornedView view = PathView(2, "fff");
  Database db;
  MakePathRelations(db, "R", 2, 20, 60, 17);

  // Mirror of the current data, for rebuilding the oracle database after
  // every script step.
  std::map<std::string, std::set<Tuple>> mirror;
  for (const std::string& name : {"R1", "R2"}) {
    const Relation* r = db.Find(name);
    ASSERT_NE(r, nullptr);
    for (size_t i = 0; i < r->size(); ++i) {
      Tuple t;
      for (int c = 0; c < r->arity(); ++c) t.push_back(r->At(i, c));
      mirror[name].insert(std::move(t));
    }
  }

  RepBuildSpec spec;
  spec.kind = RepKind::kUpdatable;
  spec.updatable.rep.tau = 3.0;
  spec.updatable.rep.build_aggregates = true;
  spec.updatable.rebuild_fraction = 1e9;  // script drives Rebuild explicitly
  auto built = BuildAnswerRep(spec, view, db);
  ASSERT_TRUE(built.ok()) << built.status().message();
  std::unique_ptr<AnswerRep> rep = std::move(built).value();
  EXPECT_TRUE(rep->capabilities().aggregates);

  auto check = [&]() {
    Database current;
    for (const auto& [name, rows] : mirror)
      AddRelation(current, name, 2,
                  std::vector<Tuple>(rows.begin(), rows.end()));
    const std::vector<Tuple> oracle = OracleAnswer(view, current, {});
    for (const std::vector<int>& gv : GroupSets(3)) {
      for (const AggSpec& aspec :
           {AggSpec::Count(), AggSpec::Sum(2), AggSpec::Min(1)}) {
        auto got = rep->AnswerAggregate({}, gv, aspec);
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(got.value(), NaiveAggregate(oracle, gv, aspec));
      }
    }
  };
  auto apply = [&](const UpdateBatch& batch) {
    for (const UpdateOp& op : batch) {
      if (op.kind == UpdateOp::kInsert)
        mirror[op.relation].insert(op.tuple);
      else
        mirror[op.relation].erase(op.tuple);
    }
    ASSERT_TRUE(rep->ApplyDelta(batch).ok());
  };

  check();  // clean epoch: pushed through the annotated snapshot

  // Inserts that create new answers.
  apply({UpdateOp::Insert("R1", {100, 101}), UpdateOp::Insert("R2", {101, 102}),
         UpdateOp::Insert("R2", {101, 103})});
  check();

  // Delete an original tuple (tombstone filtering of snapshot answers).
  const Tuple victim = *mirror["R2"].begin();
  apply({UpdateOp::Delete("R2", victim)});
  check();

  // Un-delete: the tombstone must cancel exactly.
  apply({UpdateOp::Insert("R2", victim)});
  check();

  // Insert-then-delete nets to nothing.
  apply({UpdateOp::Insert("R1", {200, 201}), UpdateOp::Delete("R1", {200, 201})});
  check();

  // Rebuild folds the delta and re-derives annotations: the clean epoch
  // must answer pushed again, with identical values.
  auto* up = static_cast<UpdatableAnswerRep*>(rep.get());
  ASSERT_TRUE(up->Rebuild().ok());
  EXPECT_TRUE(up->underlying().rep().has_aggregates());
  check();
}

// --- serialization round trip ----------------------------------------------

TEST(AggregateSerialization, TreeAnnotationsSurviveRoundTrip) {
  const AdornedView view = PathView(2, "fff");
  Database db;
  MakePathRelations(db, "R", 2, 25, 90, 29);
  CompressedRepOptions opt;
  opt.tau = 3.0;
  opt.build_aggregates = true;
  auto built = CompressedRep::Build(view, db, opt);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<CompressedRep> orig = std::move(built).value();
  ASSERT_TRUE(orig->has_aggregates());

  const std::string path = ::testing::TempDir() + "/agg_tree.cqcrep";
  ASSERT_TRUE(SaveCompressedRep(*orig, path).ok());

  auto loaded = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded.value()->has_aggregates());
  EXPECT_EQ(loaded.value()->stats().agg_bytes, orig->stats().agg_bytes);
  for (const std::vector<int>& gv : GroupSets(3)) {
    for (const AggSpec& spec : AllSpecs(3)) {
      EXPECT_EQ(loaded.value()->AnswerAggregate({}, gv, spec),
                orig->AnswerAggregate({}, gv, spec))
          << AggFuncName(spec.func);
    }
  }
  std::remove(path.c_str());
}

TEST(AggregateSerialization, DictionaryAnnotationsSurviveRoundTrip) {
  const AdornedView view = StarView(2);
  Database db;
  MakeRandomRelation(db, "R1", {8, 20}, 80, 3);
  MakeRandomRelation(db, "R2", {8, 20}, 80, 4);
  CompressedRepOptions opt;
  opt.tau = 2.0;
  opt.build_aggregates = true;
  auto built = CompressedRep::Build(view, db, opt);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<CompressedRep> orig = std::move(built).value();

  const std::string path = ::testing::TempDir() + "/agg_dict.cqcrep";
  ASSERT_TRUE(SaveCompressedRep(*orig, path).ok());
  const std::vector<BoundValuation> requests =
      InterestingBoundValuations(view, db);

  auto loaded = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value()->has_aggregates(), orig->has_aggregates());
  for (const BoundValuation& vb : requests) {
    for (const AggSpec& spec : AllSpecs(1)) {
      EXPECT_EQ(loaded.value()->AnswerAggregate(vb, {}, spec),
                orig->AnswerAggregate(vb, {}, spec));
      EXPECT_EQ(loaded.value()->AnswerAggregate(vb, {0}, spec),
                orig->AnswerAggregate(vb, {0}, spec));
    }
  }
  std::remove(path.c_str());
}

TEST(AggregateSerialization, UnannotatedFileLoadsWithoutAggregates) {
  const AdornedView view = PathView(2, "fff");
  Database db;
  MakePathRelations(db, "R", 2, 20, 60, 31);
  auto built = CompressedRep::Build(view, db, {});  // no annotations
  ASSERT_TRUE(built.ok());
  ASSERT_FALSE(built.value()->has_aggregates());

  const std::string path = ::testing::TempDir() + "/agg_none.cqcrep";
  ASSERT_TRUE(SaveCompressedRep(*built.value(), path).ok());
  auto loaded = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_FALSE(loaded.value()->has_aggregates());
  // The drain fallback still answers correctly.
  const std::vector<Tuple> oracle = OracleAnswer(view, db, {});
  EXPECT_EQ(loaded.value()->AnswerAggregate({}, {0}, AggSpec::Sum(2)),
            NaiveAggregate(oracle, {0}, AggSpec::Sum(2)));
  std::remove(path.c_str());
}

TEST(AggregateSerialization, OldMagicRejected) {
  const AdornedView view = PathView(2, "fff");
  Database db;
  MakePathRelations(db, "R", 2, 15, 40, 37);
  auto built = CompressedRep::Build(view, db, {});
  ASSERT_TRUE(built.ok());
  const std::string path = ::testing::TempDir() + "/agg_v04.cqcrep";
  ASSERT_TRUE(SaveCompressedRep(*built.value(), path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 7, SEEK_SET);  // version digit of "CQCREP05"
    std::fputc('4', f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadCompressedRep(view, db, path).ok());
  std::remove(path.c_str());
}

// --- satellite: MaterializedView::CountAnswer with non-empty bounds --------

TEST(MaterializedViewCount, BoundPrefixCountMatchesOracle) {
  const AdornedView view = StarView(2);
  Database db;
  MakeRandomRelation(db, "R1", {6, 15}, 60, 41);
  MakeRandomRelation(db, "R2", {6, 15}, 60, 42);
  auto built = MaterializedView::Build(view, db);
  ASSERT_TRUE(built.ok());
  const MaterializedView& mv = *built.value();
  size_t nonempty = 0;
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    const size_t want = OracleAnswer(view, db, vb).size();
    EXPECT_EQ(mv.CountAnswer(vb), want)
        << "vb = (" << vb[0] << "," << vb[1] << ")";
    if (want > 0) ++nonempty;
  }
  // The suite's point: the O(log) bound-prefix refinement must be hit with
  // bounds that actually select rows, not just misses.
  EXPECT_GT(nonempty, 0u);

  // Range edges: below every stored value, above every stored value, and
  // a first-column match with a second-column miss.
  EXPECT_EQ(mv.CountAnswer({0, 0}), OracleAnswer(view, db, {0, 0}).size());
  EXPECT_EQ(mv.CountAnswer({kTop, kTop}),
            OracleAnswer(view, db, {kTop, kTop}).size());
  EXPECT_EQ(mv.CountAnswer({1, 0}), OracleAnswer(view, db, {1, 0}).size());
}

// --- pinning: the Olteanu-Zavodny ring-aggregate recurrence ----------------
// docs/paper-map.md points here: grouped aggregates fold the commutative
// ring (count, sum, min, max) bottom-up — annotation cells merge
// associatively (DelayBalancedTree / HeavyDictionary annotations), and
// independent factors combine by the product rule (DecomposedRep bags).

TEST(OlteanuZavodnyRing, CellMergeIsAssociativeAndOrderFree) {
  Rng rng(5);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 64; ++i)
    tuples.push_back({rng.Uniform(100), rng.Uniform(100), rng.Uniform(100)});

  RingCell all;
  all.Reset(3);
  for (const Tuple& t : tuples) all.FoldTuple(t);
  // Any split point gives the same merged cell (the tree stores exactly
  // these partial folds per subtree).
  for (size_t split : {(size_t)1, tuples.size() / 2, tuples.size() - 1}) {
    RingCell lo, hi;
    lo.Reset(3);
    hi.Reset(3);
    for (size_t i = 0; i < split; ++i) lo.FoldTuple(tuples[i]);
    for (size_t i = split; i < tuples.size(); ++i) hi.FoldTuple(tuples[i]);
    lo.Merge(hi);
    EXPECT_EQ(lo.count, all.count);
    EXPECT_EQ(lo.vals, all.vals);
  }
}

TEST(OlteanuZavodnyRing, DecomposedProductRecurrencePinned) {
  // Q^fff(x,y,z) = R1(x,y), R2(y,z) over hand-computable data:
  //   answers: (1,5,100), (2,5,100), (1,6,200).
  Database db;
  AddRelation(db, "R1", 2, {{1, 5}, {2, 5}, {1, 6}});
  AddRelation(db, "R2", 2, {{5, 100}, {6, 200}});
  const AdornedView view = PathView(2, "fff");

  for (RepKind kind : {RepKind::kCompressed, RepKind::kDecomposed}) {
    auto rep = MustBuild(kind, view, db, /*tau=*/1.0);
    auto count = rep->AnswerAggregate({}, {}, AggSpec::Count());
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value().counts, std::vector<uint64_t>{3});
    auto sum_z = rep->AnswerAggregate({}, {}, AggSpec::Sum(2));
    ASSERT_TRUE(sum_z.ok());
    EXPECT_EQ(sum_z.value().values, std::vector<Value>{400});
    auto min_x = rep->AnswerAggregate({}, {}, AggSpec::Min(0));
    ASSERT_TRUE(min_x.ok());
    EXPECT_EQ(min_x.value().values, std::vector<Value>{1});
    auto max_z = rep->AnswerAggregate({}, {}, AggSpec::Max(2));
    ASSERT_TRUE(max_z.ok());
    EXPECT_EQ(max_z.value().values, std::vector<Value>{200});
    // Grouped by x: x=1 -> {count 2, sum z 300}, x=2 -> {count 1, sum 100}.
    auto grouped = rep->AnswerAggregate({}, {0}, AggSpec::Sum(2));
    ASSERT_TRUE(grouped.ok());
    EXPECT_EQ(grouped.value().keys, (std::vector<Value>{1, 2}));
    EXPECT_EQ(grouped.value().counts, (std::vector<uint64_t>{2, 1}));
    EXPECT_EQ(grouped.value().values, (std::vector<Value>{300, 100}));
  }
}

// --- satellite: Explain prints the full capability tag set -----------------

TEST(PlannerAggregates, ExplainShowsCapabilityTagsAndPricing) {
  Database db;
  MakeRandomRelation(db, "R1", {8, 20}, 80, 3);
  MakeRandomRelation(db, "R2", {8, 20}, 80, 4);
  Planner planner(&db);
  PlannerOptions opt;
  opt.aggregate_fraction = 0.5;
  auto plan = planner.PlanView(StarView(2), opt);
  ASSERT_TRUE(plan.ok()) << plan.status().message();

  const std::string explain = plan.value().Explain();
  EXPECT_NE(explain.find("aggregates:"), std::string::npos) << explain;
  // Every scored candidate row carries its bracketed tag set; the
  // materialized candidate must show `count` (the tag Explain used to
  // omit) and `agg`.
  EXPECT_NE(explain.find("[lex,count,agg]"), std::string::npos) << explain;

  bool saw_compressed = false, saw_materialized = false;
  for (const PlanCandidate& c : plan.value().candidates) {
    if (c.kind == RepKind::kCompressed) {
      saw_compressed = true;
      EXPECT_TRUE(c.caps.aggregates);  // annotations priced into the build
    }
    if (c.kind == RepKind::kMaterialized) {
      saw_materialized = true;
      EXPECT_TRUE(c.caps.counting);
      EXPECT_TRUE(c.caps.aggregates);
    }
  }
  EXPECT_TRUE(saw_compressed);
  EXPECT_TRUE(saw_materialized);

  // The chosen spec builds annotations when the mix prices them.
  if (plan.value().kind() == RepKind::kCompressed)
    EXPECT_TRUE(plan.value().spec.compressed.build_aggregates);
}

// --- hardened entry validation ---------------------------------------------

TEST(AggregateValidation, MalformedRequestsReturnErrors) {
  Database db;
  MakePathRelations(db, "R", 2, 15, 40, 3);
  auto rep = MustBuild(RepKind::kCompressed, PathView(2, "fff"), db);

  EXPECT_FALSE(rep->AnswerAggregate({1}, {}, AggSpec::Count()).ok())
      << "wrong bound arity";
  EXPECT_FALSE(rep->AnswerAggregate({}, {1, 0}, AggSpec::Count()).ok())
      << "descending group vars";
  EXPECT_FALSE(rep->AnswerAggregate({}, {0, 0}, AggSpec::Count()).ok())
      << "duplicate group vars";
  EXPECT_FALSE(rep->AnswerAggregate({}, {3}, AggSpec::Count()).ok())
      << "group var out of range";
  EXPECT_FALSE(rep->AnswerAggregate({}, {}, AggSpec::Sum(7)).ok())
      << "value var out of range";
  EXPECT_FALSE(rep->AnswerAggregate({}, {}, AggSpec::Sum(-1)).ok())
      << "missing value var";
}

}  // namespace
}  // namespace cqc
