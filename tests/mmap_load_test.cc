// Built-vs-loaded differential suite: a rep loaded from its snapshot must
// be observationally identical to the rep it was saved from on every
// enumeration API — Answer, AnswerRange, NextBatch, Resume, AnswerExists —
// across the standard view families, agree with the oracle, and a save ->
// load -> save round trip must reproduce the file byte for byte. A loaded
// rep must keep serving after its file is removed or replaced. The
// dictionary probe (a binary search over the sorted candidate pool) is
// checked directly on both reps. Plus RepFile unit coverage and a
// concurrent-probe smoke test on a fresh mapping.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cursor.h"
#include "core/rep_file.h"
#include "core/serialization.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::InterestingBoundValuations;
using testing::OracleAnswer;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<Tuple> DrainInSmallBatches(TupleEnumerator& e, int arity) {
  TupleBuffer buf(arity);
  std::vector<Tuple> out;
  constexpr size_t kBatch = 3;  // deliberately tiny: many refill boundaries
  for (;;) {
    buf.Clear();
    const size_t n = e.NextBatch(&buf, kBatch);
    for (size_t i = 0; i < n; ++i) out.push_back(buf[i].ToTuple());
    if (n < kBatch) break;
  }
  return out;
}

/// Runs every serving API on the built and the loaded rep for every
/// interesting bound valuation and requires byte-identical streams.
void ExpectIdenticalServing(const AdornedView& view, const Database& db,
                            const CompressedRep& built,
                            const CompressedRep& loaded) {
  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    const std::vector<Tuple> expect = CollectAll(*built.Answer(vb));
    EXPECT_EQ(CollectAll(*loaded.Answer(vb)), expect);
    EXPECT_EQ(expect, OracleAnswer(view, db, vb));
    EXPECT_EQ(loaded.AnswerExists(vb), built.AnswerExists(vb));
    if (view.num_free() == 0) continue;

    // Range-restricted enumeration: the full range and an answer-derived
    // subrange (endpoints taken from actual outputs, so it is non-trivial).
    {
      auto full = loaded.AnswerRange(vb, loaded.FullRange());
      EXPECT_EQ(CollectAll(*full), expect);
    }
    if (expect.size() >= 2) {
      const FInterval sub{expect[1], expect[expect.size() / 2]};
      EXPECT_EQ(CollectAll(*loaded.AnswerRange(vb, sub)),
                CollectAll(*built.AnswerRange(vb, sub)));
    }

    // Batched drain with many refill boundaries.
    {
      auto e = loaded.Answer(vb);
      EXPECT_EQ(DrainInSmallBatches(*e, view.num_free()), expect);
    }

    // Pause mid-stream on the loaded rep, resume on both: identical tails.
    if (!expect.empty()) {
      CursorEnumerator paused(loaded.Answer(vb));
      Tuple t;
      const size_t consumed = (expect.size() + 1) / 2;
      for (size_t i = 0; i < consumed; ++i) ASSERT_TRUE(paused.Next(&t));
      const std::vector<Tuple> expect_tail(expect.begin() + consumed,
                                           expect.end());
      auto resumed_l = loaded.Resume(vb, paused.cursor());
      ASSERT_TRUE(resumed_l.ok()) << resumed_l.status().message();
      EXPECT_EQ(CollectAll(*resumed_l.value()), expect_tail);
      auto resumed_b = built.Resume(vb, paused.cursor());
      ASSERT_TRUE(resumed_b.ok()) << resumed_b.status().message();
      EXPECT_EQ(CollectAll(*resumed_b.value()), expect_tail);
    }
  }
}

/// FindValuation is exact: every candidate id round-trips, and a probe
/// answers its candidate id or kNoValuation — for each row with one column
/// moved by +-1, for tuples below the first and above the last row, and
/// for wrong-arity probes.
void ExpectExactProbes(const HeavyDictionary& dict) {
  const int arity = dict.vb_arity();
  const uint32_t n = (uint32_t)dict.NumCandidates();
  std::map<Tuple, uint32_t> ids;
  for (uint32_t id = 0; id < n; ++id) {
    const Tuple row = dict.Candidate(id);
    ASSERT_EQ(dict.FindValuation(row), id);
    ids.emplace(row, id);
  }
  ASSERT_EQ(ids.size(), (size_t)n);
  const auto expect_probe = [&](const Tuple& probe) {
    const auto it = ids.find(probe);
    EXPECT_EQ(dict.FindValuation(probe),
              it == ids.end() ? HeavyDictionary::kNoValuation : it->second);
  };
  for (const auto& [row, id] : ids) {
    for (int c = 0; c < arity; ++c) {
      for (const Value delta : {Value{1}, ~Value{0}}) {  // +1, -1 (wrapping)
        Tuple moved = row;
        moved[c] += delta;
        expect_probe(moved);
      }
    }
  }
  if (n > 0 && arity > 0) {
    const Tuple first = dict.Candidate(0), last = dict.Candidate(n - 1);
    Tuple below(arity, 0), above(arity, ~Value{0});
    if (below < first) {
      EXPECT_EQ(dict.FindValuation(below), HeavyDictionary::kNoValuation);
    }
    if (last < above) {
      EXPECT_EQ(dict.FindValuation(above), HeavyDictionary::kNoValuation);
    }
    EXPECT_EQ(dict.FindValuation(Tuple(first.begin(), first.end() - 1)),
              HeavyDictionary::kNoValuation);
  }
  EXPECT_EQ(dict.FindValuation(Tuple(arity + 1, 0)),
            HeavyDictionary::kNoValuation);
}

/// Build -> save -> load -> differential serving against the built rep ->
/// re-save the loaded rep and require byte identity with the original.
void RunFamily(const std::string& name, const AdornedView& view,
               const Database& db, double tau) {
  SCOPED_TRACE(name + " tau=" + std::to_string(tau));
  CompressedRepOptions copt;
  copt.tau = tau;
  auto built = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const std::string path = TempPath(name + ".cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*built.value(), path).ok());

  auto loaded = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(built.value()->stats().mapped_bytes, 0u);
  EXPECT_EQ(built.value()->backing(), nullptr);
  EXPECT_NE(loaded.value()->backing(), nullptr);
  if (loaded.value()->stats().tree_nodes > 0)
    EXPECT_GT(loaded.value()->stats().mapped_bytes, 0u);
  // The loader agrees with the builder on the structural stats.
  EXPECT_EQ(loaded.value()->stats().tree_nodes,
            built.value()->stats().tree_nodes);
  EXPECT_EQ(loaded.value()->stats().dict_entries,
            built.value()->stats().dict_entries);

  ExpectIdenticalServing(view, db, *built.value(), *loaded.value());
  {
    SCOPED_TRACE("built dictionary");
    ExpectExactProbes(built.value()->dictionary());
  }
  {
    SCOPED_TRACE("loaded dictionary");
    ExpectExactProbes(loaded.value()->dictionary());
  }

  // The loaded rep must serialize back to the identical file.
  const std::string resaved = TempPath(name + "_resave.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*loaded.value(), resaved).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, ReadFileBytes(resaved));
}

TEST(MmapLoadTest, TriangleBoundAcrossTaus) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  for (double tau : {1.0, 2.0, 16.0})
    RunFamily("mmap_tri_bfb", TriangleView("bfb"), db, tau);
}

TEST(MmapLoadTest, TriangleFullEnumeration) {
  Database db;
  MakeRandomGraph(db, "R", 10, 45, true, 13);
  RunFamily("mmap_tri_fff", TriangleView("fff"), db, 4.0);
}

TEST(MmapLoadTest, StarJoin) {
  Database db;
  for (int i = 1; i <= 3; ++i)
    MakeRandomGraph(db, "R" + std::to_string(i), 10, 40, false, 70 + i);
  RunFamily("mmap_star3", StarView(3), db, 4.0);
}

TEST(MmapLoadTest, PathFullEnumeration) {
  Database db;
  MakePathRelations(db, "R", 3, 8, 40, 21);
  RunFamily("mmap_path_ffff", PathView(3, "ffff"), db, 4.0);
}

TEST(MmapLoadTest, PathBoundPrefix) {
  Database db;
  MakePathRelations(db, "R", 3, 9, 45, 33);
  RunFamily("mmap_path_bfff", PathView(3, "bfff"), db, 2.0);
}

TEST(MmapLoadTest, WideBoundColumns) {
  // 48-bit bound columns (as in bench_load's fixture): the probe compares
  // wide packed fields, and +-1 neighbours straddle packed-word boundaries.
  Database db;
  Relation* r = db.AddRelation("R", 3);
  Rng rng(48);
  std::vector<Value> wide(40);
  for (Value& v : wide) v = rng.Uniform(uint64_t{1} << 48);
  for (int i = 0; i < 300; ++i)
    r->Insert(Tuple{wide[rng.Uniform(wide.size())],
                    (uint64_t{1} << 47) + rng.Uniform(4), rng.Uniform(8)});
  r->Seal();
  auto view = ParseAdornedView("Q^bbf(a,b,c) = R(a,b,c)");
  ASSERT_TRUE(view.ok());
  for (double tau : {1.0, 4.0})
    RunFamily("mmap_wide_bbf", view.value(), db, tau);
}

TEST(MmapLoadTest, BooleanView) {
  Database db;
  testing::AddRelation(db, "R", 2, {{1, 2}, {3, 4}});
  auto view = ParseAdornedView("Q^bb(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  RunFamily("mmap_boolean", view.value(), db, 1.0);
  CompressedRepOptions copt;
  auto rep = CompressedRep::Build(view.value(), db, copt);
  ASSERT_TRUE(rep.ok());
  const std::string path = TempPath("mmap_boolean_probe.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  auto loaded = LoadCompressedRep(view.value(), db, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded.value()->AnswerExists({1, 2}));
  EXPECT_FALSE(loaded.value()->AnswerExists({1, 4}));
}

TEST(MmapLoadTest, LoadedRepOutlivesItsFile) {
  // After the load returns, the rep must not depend on the path: removing
  // the file, or replacing it through SaveCompressedRep's write-temp-then-
  // rename, leaves every answer intact.
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto built = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const std::string path = TempPath("mmap_outlives.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*built.value(), path).ok());

  auto loaded = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(std::remove(path.c_str()), 0);
  ExpectIdenticalServing(view, db, *built.value(), *loaded.value());

  // Save the loaded rep (its columns read from the removed file) back to
  // the same path, then replace that file with a smaller snapshot while a
  // second load still maps it.
  ASSERT_TRUE(SaveCompressedRep(*loaded.value(), path).ok());
  ExpectIdenticalServing(view, db, *built.value(), *loaded.value());
  auto reloaded = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
  const std::string mapped_bytes = ReadFileBytes(path);
  Database tiny_db;
  testing::AddRelation(tiny_db, "R", 2, {{1, 2}, {2, 3}, {3, 1}});
  auto tiny = CompressedRep::Build(view, tiny_db, copt);
  ASSERT_TRUE(tiny.ok()) << tiny.status().message();
  ASSERT_TRUE(SaveCompressedRep(*tiny.value(), path).ok());
  ASSERT_LT(ReadFileBytes(path).size(), mapped_bytes.size());
  // Answers alone cannot show a changed tree (any split points partition
  // the space correctly), so compare the bytes the second load serves.
  const RepFile& backing = *reloaded.value()->backing();
  EXPECT_TRUE(std::string(reinterpret_cast<const char*>(backing.data()),
                          backing.size()) == mapped_bytes)
      << "replacing the file changed the bytes a live load serves";
  ExpectIdenticalServing(view, db, *built.value(), *loaded.value());
  ExpectIdenticalServing(view, db, *built.value(), *reloaded.value());
  std::remove(path.c_str());
}

TEST(MmapLoadTest, ConcurrentProbesOnFreshMapping) {
  // A loaded dictionary serves its very first probes with no lazy
  // initialization (FindValuation binary-searches the mapped pool): hammer
  // a fresh load from several threads at once and require every stream to
  // be correct (TSan in CI checks there is nothing to race on).
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const std::string path = TempPath("mmap_concurrent.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  auto mapped = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();

  const std::vector<BoundValuation> vbs = InterestingBoundValuations(view, db);
  std::vector<std::vector<std::vector<Tuple>>> got(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (const BoundValuation& vb : vbs)
        got[t].push_back(CollectAll(*mapped.value()->Answer(vb)));
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < vbs.size(); ++i) {
    const std::vector<Tuple> expect = OracleAnswer(view, db, vbs[i]);
    for (int t = 0; t < 4; ++t) EXPECT_EQ(got[t][i], expect);
  }
}

TEST(MmapLoadTest, ResidentBytesAccounting) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  // Built reps: resident == logical total.
  EXPECT_EQ(rep.value()->ResidentBytes(), rep.value()->stats().TotalBytes());
  const std::string path = TempPath("mmap_resident.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  auto mapped = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  // Mapped reps: the heap share is strictly below the logical total, and
  // the mapped share is bounded by the file's resident pages.
  const auto& stats = mapped.value()->stats();
  EXPECT_LE(stats.mapped_bytes, stats.TotalBytes());
  EXPECT_LE(mapped.value()->ResidentBytes(),
            stats.TotalBytes() + mapped.value()->backing()->size());
}

TEST(RepFileTest, OpenErrorsAndEmptyFiles) {
  EXPECT_FALSE(RepFile::Open(TempPath("repfile_missing.bin")).ok());
  const std::string empty = TempPath("repfile_empty.bin");
  std::ofstream(empty, std::ios::binary).flush();
  auto opened = RepFile::Open(empty);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened.value()->size(), 0u);
  EXPECT_EQ(opened.value()->ResidentBytes(), 0u);
}

TEST(RepFileTest, MapsBytesFaithfully) {
  const std::string path = TempPath("repfile_bytes.bin");
  std::string payload;
  for (int i = 0; i < 10000; ++i) payload.push_back((char)(i * 131 % 251));
  std::ofstream(path, std::ios::binary) << payload;
  auto opened = RepFile::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ASSERT_EQ(opened.value()->size(), payload.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(opened.value()->data()),
                        opened.value()->size()),
            payload);
  // Touching every byte makes the mapping resident, never beyond the file.
  EXPECT_LE(opened.value()->ResidentBytes(),
            opened.value()->size() + 4096);
}

}  // namespace
}  // namespace cqc
