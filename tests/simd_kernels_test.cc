// Differential suite for the SIMD kernel layer (src/simd/): every kernel
// must be BIT-IDENTICAL to its scalar twin at every dispatch level the
// machine supports. Levels differ in instruction choice only — the suite
// sweeps simd::SupportedLevels() over randomized and adversarial inputs
// and compares against independent scalar references computed here (not
// against the kernels' own scalar table, except where noted).
//
// The CQC_FORCE_SCALAR=1 environment override is resolved once at static
// init, so it cannot be toggled from inside a test process; the scalar CI
// job (.github/workflows/ci.yml, job scalar-fallback) runs this whole
// binary — and the full suite — under the override instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "core/bitpack.h"
#include "core/updatable_rep.h"
#include "relational/relation.h"
#include "simd/kernels.h"
#include "simd/simd_caps.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::OracleAnswer;
using testing::SortedCopy;

// Restores the detected dispatch level after each test so a failing sweep
// cannot leave the rest of the suite pinned to a stale level.
class SimdKernelsTest : public ::testing::Test {
 protected:
  ~SimdKernelsTest() override { simd::SetLevel(simd::Detected()); }
};

TEST_F(SimdKernelsTest, DetectionAndLevelClamping) {
  const std::vector<simd::Level> levels = simd::SupportedLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  EXPECT_EQ(levels.back(), simd::Detected());
  for (size_t i = 1; i < levels.size(); ++i)
    EXPECT_LT((int)levels[i - 1], (int)levels[i]);

  for (simd::Level l : levels) {
    EXPECT_EQ(simd::SetLevel(l), l);
    EXPECT_EQ(simd::Active(), l);
    EXPECT_NE(simd::LevelName(l), nullptr);
  }
  // A level this machine cannot run clamps to something runnable instead
  // of dispatching into illegal instructions.
#if defined(__aarch64__)
  const simd::Level foreign = simd::Level::kAVX2;
#else
  const simd::Level foreign = simd::Level::kNEON;
#endif
  const simd::Level got = simd::SetLevel(foreign);
  EXPECT_NE(got, foreign);
  EXPECT_EQ(got, simd::Active());
}

// Sorted adversarial columns: long duplicate runs, 1-element runs,
// near-miss tails, extreme values, and random mixtures.
std::vector<std::vector<Value>> AdversarialColumns() {
  std::vector<std::vector<Value>> cols;
  cols.push_back({});                     // empty
  cols.push_back({7});                    // singleton
  cols.push_back(std::vector<Value>(300, 42));  // one giant run
  {
    std::vector<Value> c;  // runs of varied lengths incl. 1
    for (size_t len : {1, 2, 3, 1, 5, 17, 1, 64, 257, 1, 33})
      c.insert(c.end(), len, c.empty() ? 0 : c.back() + 1);
    cols.push_back(std::move(c));
  }
  {
    std::vector<Value> c(500);  // strictly increasing (all runs length 1)
    for (size_t i = 0; i < c.size(); ++i) c[i] = i * 3 + 1;
    cols.push_back(std::move(c));
  }
  {
    std::vector<Value> c;  // near-miss tail: v-1 repeated, then v, then max
    c.insert(c.end(), 130, 999);
    c.push_back(1000);
    c.insert(c.end(), 40, UINT64_MAX - 1);
    c.insert(c.end(), 17, UINT64_MAX);
    cols.push_back(std::move(c));
  }
  Rng rng(123);
  for (size_t n : {9, 31, 100, 1000, 4097}) {
    std::vector<Value> c(n);  // random with duplicates, then sorted
    for (auto& v : c) v = rng.Uniform(n / 2 + 1) * 7;
    std::sort(c.begin(), c.end());
    cols.push_back(std::move(c));
  }
  return cols;
}

TEST_F(SimdKernelsTest, SeekGEMatchesLowerBoundEverywhere) {
  const auto columns = AdversarialColumns();
  Rng rng(7);
  for (simd::Level level : simd::SupportedLevels()) {
    ASSERT_EQ(simd::SetLevel(level), level);
    for (const auto& col : columns) {
      const size_t end = col.size();
      std::vector<Value> probes = {0, 1, UINT64_MAX, UINT64_MAX - 1};
      for (int i = 0; i < 40 && !col.empty(); ++i) {
        const Value v = col[rng.Uniform(end)];
        probes.push_back(v);
        probes.push_back(v == 0 ? 0 : v - 1);
        probes.push_back(v == UINT64_MAX ? v : v + 1);
      }
      std::vector<size_t> begins = {0};
      if (end > 0) begins.insert(begins.end(), {end / 2, end - 1, end});
      for (size_t begin : begins) {
        for (Value v : probes) {
          const size_t want =
              std::lower_bound(col.data() + begin, col.data() + end, v) -
              col.data();
          EXPECT_EQ(simd::SeekGE(col.data(), begin, end, v), want)
              << "level=" << simd::LevelName(level) << " n=" << end
              << " begin=" << begin << " v=" << v;
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, RunEndMatchesScalarReference) {
  const auto columns = AdversarialColumns();
  for (simd::Level level : simd::SupportedLevels()) {
    ASSERT_EQ(simd::SetLevel(level), level);
    for (const auto& col : columns) {
      const size_t end = col.size();
      // Every position, not just run heads: RunEnd's contract is
      // "first i in (pos, end) with col[i] != col[pos]".
      for (size_t pos = 0; pos < end; ++pos) {
        size_t want = pos + 1;
        while (want < end && col[want] == col[pos]) ++want;
        ASSERT_EQ(simd::RunEnd(col.data(), pos, end), want)
            << "level=" << simd::LevelName(level) << " n=" << end
            << " pos=" << pos;
      }
    }
  }
}

TEST_F(SimdKernelsTest, UnpackRowsMatchesUnpackRowRandomized) {
  Rng rng(20260808);
  const std::vector<uint32_t> width_menu = {0,  1,  3,  7,  8,  13, 21,
                                            31, 32, 33, 47, 63, 64};
  for (int trial = 0; trial < 60; ++trial) {
    const int arity = 1 + (int)rng.Uniform(6);
    const size_t rows = 1 + rng.Uniform(600);
    std::vector<uint32_t> widths(arity);
    for (auto& w : widths) w = width_menu[rng.Uniform(width_menu.size())];
    std::vector<Value> flat(rows * arity);
    for (size_t r = 0; r < rows; ++r)
      for (int c = 0; c < arity; ++c) {
        const uint32_t w = widths[c];
        Value v = 0;
        if (w == 64) {
          v = rng.Bernoulli(0.05) ? UINT64_MAX : rng.Next();
        } else if (w > 0) {
          const Value cap = (Value(1) << w) - 1;
          v = rng.Bernoulli(0.05) ? cap : rng.Next() & cap;
        }
        flat[r * arity + c] = v;
      }
    // Pack() derives widths from the data; force each column's planned
    // width by planting its max value in row 0.
    for (int c = 0; c < arity; ++c)
      if (widths[c] > 0)
        flat[c] = widths[c] == 64 ? UINT64_MAX : (Value(1) << widths[c]) - 1;
      else
        flat[c] = 0;
    const PackedTuplePool pool = PackedTuplePool::Pack(flat, arity, rows);

    std::vector<Value> want(rows * arity);
    for (size_t r = 0; r < rows; ++r) pool.UnpackRow(r, &want[r * arity]);
    ASSERT_EQ(want, flat);  // the per-row path itself round-trips

    for (simd::Level level : simd::SupportedLevels()) {
      ASSERT_EQ(simd::SetLevel(level), level);
      // Random windows plus the boundary shapes: full pool, single row,
      // ragged tail (n not a multiple of the 4-row gather block).
      std::vector<std::pair<size_t, size_t>> windows = {
          {0, rows}, {0, 1}, {rows - 1, 1}};
      const size_t ragged = rows % 4 + 1;  // not a multiple of the block
      if (ragged <= rows) windows.emplace_back(rows - ragged, ragged);
      for (int i = 0; i < 6; ++i) {
        const size_t first = rng.Uniform(rows);
        windows.emplace_back(first, 1 + rng.Uniform(rows - first));
      }
      std::vector<Value> got;
      for (auto [first, n] : windows) {
        got.assign(n * arity, 0xDEADBEEF);
        pool.UnpackRows(first, n, got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), want.data() + first * arity,
                                 n * arity * sizeof(Value)))
            << "level=" << simd::LevelName(level) << " arity=" << arity
            << " rows=" << rows << " window=[" << first << "," << n << ")";
      }
    }
  }
}

TEST_F(SimdKernelsTest, TombstoneFilterMatchesOracleUnderChurn) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 5);
  const AdornedView view = TriangleView("fff");
  UpdatableRepOptions opt;
  opt.rep.tau = 2.0;
  opt.rebuild_fraction = 1e9;  // keep tombstones live (no auto-rebuild)
  auto rep = UpdatableRep::Build(view, db, opt);
  ASSERT_TRUE(rep.ok()) << rep.status().message();

  // Current edge set, replayed into a fresh database for the oracle.
  std::set<Tuple> edges;
  const Relation* r0 = db.Find("R");
  for (size_t i = 0; i < r0->size(); ++i)
    edges.insert({r0->At(i, 0), r0->At(i, 1)});

  Rng rng(31);
  std::vector<Tuple> deleted;  // snapshot edges deleted so far
  for (int round = 0; round < 5; ++round) {
    // Delete a slice of surviving edges (drives the tombstone filter) and
    // insert a few new ones (exercises delta + snapshot mixing).
    std::vector<Tuple> alive(edges.begin(), edges.end());
    for (int i = 0; i < 8 && !alive.empty(); ++i) {
      const Tuple& t = alive[rng.Uniform(alive.size())];
      if (!edges.count(t)) continue;
      ASSERT_TRUE(rep.value()->Delete("R", t).ok());
      if (r0->Contains(t)) deleted.push_back(t);
      edges.erase(t);
    }
    for (int i = 0; i < 4; ++i) {
      Value a = rng.UniformRange(1, 12), b = rng.UniformRange(1, 12);
      if (a == b || edges.count({a, b})) continue;
      ASSERT_TRUE(rep.value()->Insert("R", {a, b}).ok());
      edges.insert({a, b});
    }
    if (round == 2) {
      // Un-delete: re-inserting a deleted snapshot edge cancels its
      // tombstone, so the snapshot answers through it must reappear.
      ASSERT_FALSE(deleted.empty());
      const size_t deletes_before = rep.value()->pending_deletes();
      bool undeleted = false;
      for (const Tuple& t : deleted) {
        if (edges.count(t)) continue;
        ASSERT_TRUE(rep.value()->Insert("R", t).ok());
        edges.insert(t);
        undeleted = true;
        break;
      }
      ASSERT_TRUE(undeleted);
      EXPECT_EQ(rep.value()->pending_deletes(), deletes_before - 1);
    }

    Database current;
    Relation* rel = current.AddRelation("R", 2);
    for (const Tuple& t : edges) rel->Insert(t);
    rel->Seal();
    const std::vector<Tuple> want = OracleAnswer(view, current, {});

    // The tombstone filter must agree with the oracle at every dispatch
    // level — and with itself across levels — on the single-tuple Next()
    // drain, the NextBatch(…, 1) drain and the NextBatch() drain alike.
    std::vector<Tuple> scalar_single;
    for (simd::Level level : simd::SupportedLevels()) {
      ASSERT_EQ(simd::SetLevel(level), level);
      std::vector<Tuple> single = CollectAll(*rep.value()->Answer({}));
      const TupleBuffer ones =
          CollectAllBatched(*rep.value()->Answer({}), view.num_free(), 1);
      EXPECT_EQ(ones.ToTuples(), single)
          << "level=" << simd::LevelName(level) << " round=" << round;
      const TupleBuffer batched =
          CollectAllBatched(*rep.value()->Answer({}), view.num_free(), 33);
      std::vector<Tuple> batched_tuples;
      for (size_t i = 0; i < batched.size(); ++i) {
        const TupleSpan t = batched[i];
        batched_tuples.emplace_back(t.begin(), t.end());
      }
      EXPECT_EQ(SortedCopy(single), want)
          << "level=" << simd::LevelName(level) << " round=" << round;
      EXPECT_EQ(SortedCopy(batched_tuples), want)
          << "level=" << simd::LevelName(level) << " round=" << round;
      EXPECT_EQ(batched_tuples, single)
          << "level=" << simd::LevelName(level) << " round=" << round;
      if (level == simd::Level::kScalar)
        scalar_single = single;
      else
        EXPECT_EQ(single, scalar_single)
            << "level=" << simd::LevelName(level) << " round=" << round;
    }
  }
  EXPECT_EQ(rep.value()->num_rebuilds(), 0);
}

}  // namespace
}  // namespace cqc
