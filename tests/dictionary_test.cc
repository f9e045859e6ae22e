// Deep invariants of the heavy-pair dictionary (Appendix A): entries exist
// exactly where Algorithm 2 can reach a heavy pair, bits reflect true
// emptiness of the restricted join, and light reachable pairs are cheap.
#include <gtest/gtest.h>

#include <set>

#include "core/compressed_rep.h"
#include "core/cursor.h"
#include "core/serialization.h"
#include "core/shard_planner.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;

// Walks the delay-balanced tree with its intervals, calling
// visit(node, interval).
template <typename Fn>
void WalkTree(const CompressedRep& rep, Fn&& visit) {
  if (rep.tree().empty()) return;
  FInterval root{rep.domain().MinTuple(), rep.domain().MaxTuple()};
  std::vector<std::pair<int, FInterval>> stack{{rep.tree().root(), root}};
  while (!stack.empty()) {
    auto [node, interval] = stack.back();
    stack.pop_back();
    visit(node, interval);
    const DbTreeNode& n = rep.tree().node(node);
    if (n.leaf) continue;
    FInterval child;
    if (n.left >= 0 &&
        DelayBalancedTree::LeftInterval(interval, n.beta, rep.domain(),
                                        &child))
      stack.emplace_back(n.left, child);
    if (n.right >= 0 &&
        DelayBalancedTree::RightInterval(interval, n.beta, rep.domain(),
                                         &child))
      stack.emplace_back(n.right, child);
  }
}

// Oracle: does the view (restricted to interval I and bound valuation vb)
// have any output?
bool OracleNonEmpty(const AdornedView& view, const Database& db,
                    const BoundValuation& vb, const FInterval& interval) {
  for (const Tuple& vf : testing::OracleAnswer(view, db, vb))
    if (interval.Contains(vf)) return true;
  return false;
}

TEST(DictionaryInvariantTest, BitsMatchOracleEmptiness) {
  Database db;
  MakeRandomGraph(db, "R", 14, 70, true, 5);
  AdornedView view = TriangleView("bfb");
  for (double tau : {1.0, 4.0, 32.0}) {
    CompressedRepOptions copt;
    copt.tau = tau;
    auto rep = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(rep.ok());
    const HeavyDictionary& dict = rep.value()->dictionary();
    WalkTree(*rep.value(), [&](int node, const FInterval& interval) {
      dict.ForEachEntry(node, [&](uint32_t vb_id, bool bit) {
        const Tuple vb = dict.Candidate(vb_id);
        EXPECT_EQ(bit, OracleNonEmpty(view, db, vb, interval))
            << "node " << node << " tau " << tau;
      });
    });
  }
}

TEST(DictionaryInvariantTest, EntriesOnlyWhereParentLive) {
  // An entry below the root requires the parent entry to exist with bit 1
  // (Algorithm 2 never descends otherwise).
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 8);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const HeavyDictionary& dict = rep.value()->dictionary();
  const DelayBalancedTree& tree = rep.value()->tree();
  // Build child -> parent map.
  std::vector<int> parent(tree.size(), -1);
  for (size_t i = 0; i < tree.size(); ++i) {
    const DbTreeNode& n = tree.node((int)i);
    if (n.left >= 0) parent[n.left] = (int)i;
    if (n.right >= 0) parent[n.right] = (int)i;
  }
  for (size_t node = 1; node < tree.size(); ++node) {
    dict.ForEachEntry((int)node, [&](uint32_t vb_id, bool bit) {
      ASSERT_GE(parent[node], 0);
      EXPECT_EQ(dict.Lookup(parent[node], vb_id),
                HeavyDictionary::Bit::kOne)
          << "orphan dictionary entry at node " << node;
    });
  }
}

TEST(DictionaryInvariantTest, LeafEntriesOnlyOnUnitIntervals) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 6);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 1.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const HeavyDictionary& dict = rep.value()->dictionary();
  WalkTree(*rep.value(), [&](int node, const FInterval& interval) {
    if (!rep.value()->tree().node(node).leaf) return;
    size_t entries = 0;
    dict.ForEachEntry(node, [&](uint32_t, bool) { ++entries; });
    if (entries > 0) EXPECT_TRUE(interval.IsUnit());
  });
}

TEST(DictionaryInvariantTest, CandidatesAreExactlyReferencedValuations) {
  // Seal keeps only the valuations some entry names: every candidate id is
  // referenced, every referenced id round-trips through FindValuation, and
  // a valuation outside the bound join is no candidate. At tau 2 every
  // pair of sets is heavy at the root; at tau 6 one is light everywhere.
  Database db;
  MakeSetFamily(db, "R", 6, 20, 50, 0.5, 3);
  AdornedView view = SetIntersectionView();
  for (double tau : {2.0, 6.0}) {
    CompressedRepOptions copt;
    copt.tau = tau;
    auto rep = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(rep.ok());
    const HeavyDictionary& dict = rep.value()->dictionary();
    std::set<uint32_t> referenced;
    for (size_t node = 0; node < rep.value()->tree().size(); ++node)
      dict.ForEachEntry((int)node, [&](uint32_t vb_id, bool) {
        referenced.insert(vb_id);
      });
    ASSERT_FALSE(referenced.empty());
    EXPECT_EQ(referenced.size(), dict.NumCandidates()) << "tau " << tau;
    EXPECT_LT(*referenced.rbegin(), dict.NumCandidates());
    for (uint32_t id : referenced)
      EXPECT_EQ(dict.FindValuation(dict.Candidate(id)), id);
    EXPECT_EQ(dict.FindValuation(Tuple{999, 999}),
              HeavyDictionary::kNoValuation);
  }
}

// COUNT over `answers`, grouped by nothing: one group unless empty.
AggregateResult CountOf(const std::vector<Tuple>& answers) {
  AggregateResult out;
  if (!answers.empty()) out.counts.push_back(answers.size());
  return out;
}

// Every request a rep serves, for one bound valuation, against the oracle.
void ExpectServesOracle(const CompressedRep& rep, const BoundValuation& vb,
                        const std::vector<Tuple>& expected) {
  SCOPED_TRACE(::testing::Message() << "vb=(" << vb[0] << "," << vb[1] << ")");
  EXPECT_EQ(CollectAll(*rep.Answer(vb)), expected);
  EXPECT_EQ(rep.AnswerExists(vb), !expected.empty());
  // AnswerRange over every shard of a plan: each shard yields exactly the
  // oracle's tuples inside it.
  for (const FInterval& range : ShardPlanner::Plan(rep, 4).shards) {
    std::vector<Tuple> inside;
    for (const Tuple& t : expected)
      if (range.Contains(t)) inside.push_back(t);
    EXPECT_EQ(CollectAll(*rep.AnswerRange(vb, range)), inside);
  }
  // Pause halfway, resume: prefix + resumed suffix is the whole answer.
  CursorEnumerator paused(rep.Answer(vb));
  std::vector<Tuple> stitched;
  Tuple t;
  while (stitched.size() < expected.size() / 2 && paused.Next(&t))
    stitched.push_back(t);
  auto resumed = rep.Resume(vb, paused.cursor());
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  while (resumed.value()->Next(&t)) stitched.push_back(t);
  EXPECT_EQ(stitched, expected);
  EXPECT_EQ(rep.AnswerAggregate(vb, {}, AggSpec::Count()), CountOf(expected));
}

TEST(DictionaryInvariantTest, DroppedValuationsServeLikeKeptOnes) {
  // A small snapshot_lookup-shaped family: set intersection over a Zipf
  // author-paper relation. Most author pairs are light at the root, so
  // Seal drops them; every pair of the bound join, kept or dropped, must
  // still answer exactly as the oracle says, built and after save/load,
  // with and without aggregate annotations.
  Database db;
  MakeZipfBipartite(db, "R", 24, 60, 240, 0.9, 11);
  AdornedView view = SetIntersectionView();
  const Relation* r = db.Find("R");
  std::set<Value> authors;
  for (size_t i = 0; i < r->size(); ++i) authors.insert(r->At(i, 0));
  std::vector<std::pair<BoundValuation, std::vector<Tuple>>> cases;
  for (Value s1 : authors)
    for (Value s2 : authors) {
      const BoundValuation vb{s1, s2};
      cases.emplace_back(vb, testing::OracleAnswer(view, db, vb));
    }
  for (bool aggregates : {false, true}) {
    CompressedRepOptions copt;
    copt.tau = 8.0;
    copt.build_aggregates = aggregates;
    auto built = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(built.ok());
    const HeavyDictionary& dict = built.value()->dictionary();
    ASSERT_GT(dict.NumCandidates(), 0u);
    ASSERT_LT(dict.NumCandidates(), cases.size())
        << "no bound-join valuation was dropped";
    const std::string path = ::testing::TempDir() + "/dropped_vals.cqcrep";
    ASSERT_TRUE(SaveCompressedRep(*built.value(), path).ok());
    auto loaded = LoadCompressedRep(view, db, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value()->dictionary().NumCandidates(),
              dict.NumCandidates());
    for (const CompressedRep* rep : {built.value().get(),
                                     loaded.value().get()}) {
      SCOPED_TRACE(::testing::Message()
                   << (rep == built.value().get() ? "built" : "loaded")
                   << " aggregates=" << aggregates);
      for (const auto& [vb, expected] : cases)
        ExpectServesOracle(*rep, vb, expected);
    }
  }
}

TEST(DictionaryInvariantTest, FixupFlipsDeadBits) {
  // FixupDictionary with a live-predicate that rejects everything must
  // flip every 1-bit to 0; afterwards every request must come up empty
  // when routed through the dictionary (light intervals still evaluate,
  // so answers can remain — this checks only the bit state).
  Database db;
  MakeRandomGraph(db, "R", 10, 50, true, 99);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 1.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  rep.value()->FixupDictionary(
      [](const BoundValuation&, const Tuple&) { return false; });
  const HeavyDictionary& dict = rep.value()->dictionary();
  for (size_t node = 0; node < rep.value()->tree().size(); ++node) {
    dict.ForEachEntry((int)node, [&](uint32_t, bool bit) {
      EXPECT_FALSE(bit);
    });
  }
}

TEST(DictionaryInvariantTest, FixupKeepsLiveBits) {
  Database db;
  MakeRandomGraph(db, "R", 10, 50, true, 99);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 1.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  size_t ones_before = 0;
  const HeavyDictionary& dict = rep.value()->dictionary();
  for (size_t node = 0; node < rep.value()->tree().size(); ++node)
    dict.ForEachEntry((int)node, [&](uint32_t, bool bit) {
      if (bit) ++ones_before;
    });
  rep.value()->FixupDictionary(
      [](const BoundValuation&, const Tuple&) { return true; });
  size_t ones_after = 0;
  for (size_t node = 0; node < rep.value()->tree().size(); ++node)
    dict.ForEachEntry((int)node, [&](uint32_t, bool bit) {
      if (bit) ++ones_after;
    });
  EXPECT_EQ(ones_before, ones_after);
}

}  // namespace
}  // namespace cqc
