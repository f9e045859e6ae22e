#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "core/serialization.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::InterestingBoundValuations;
using testing::OracleAnswer;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializationTest, RoundTripAnswersIdentically) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto original = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(original.ok());

  const std::string path = TempPath("triangle.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*original.value(), path).ok());
  auto loaded = LoadCompressedRep(view, db, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  EXPECT_EQ(loaded.value()->stats().tree_nodes,
            original.value()->stats().tree_nodes);
  EXPECT_EQ(loaded.value()->stats().dict_entries,
            original.value()->stats().dict_entries);
  EXPECT_DOUBLE_EQ(loaded.value()->tau(), original.value()->tau());

  for (const BoundValuation& vb : InterestingBoundValuations(view, db)) {
    EXPECT_EQ(CollectAll(*loaded.value()->Answer(vb)),
              CollectAll(*original.value()->Answer(vb)));
    EXPECT_EQ(CollectAll(*loaded.value()->Answer(vb)),
              OracleAnswer(view, db, vb));
  }
}

TEST(SerializationTest, RoundTripStarAndRunningExample) {
  {
    Database db;
    for (int i = 1; i <= 3; ++i)
      MakeRandomGraph(db, "R" + std::to_string(i), 10, 40, false, 70 + i);
    AdornedView view = StarView(3);
    CompressedRepOptions copt;
    copt.tau = 4.0;
    auto rep = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(rep.ok());
    const std::string path = TempPath("star.cqcrep");
    ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
    auto loaded = LoadCompressedRep(view, db, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    for (const BoundValuation& vb : InterestingBoundValuations(view, db))
      EXPECT_EQ(CollectAll(*loaded.value()->Answer(vb)),
                OracleAnswer(view, db, vb));
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SerializationTest, FlatLayoutRoundTripsByteIdentically) {
  // Save -> load -> save must reproduce the file byte for byte: the flat
  // SoA tree / CSR dictionary layout on disk is exactly the in-memory
  // layout, so a lossless round trip implies the loaded structure is
  // field-identical (a prerequisite for a future zero-copy mmap load).
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  for (double tau : {1.0, 2.0, 16.0}) {
    AdornedView view = TriangleView("bfb");
    CompressedRepOptions copt;
    copt.tau = tau;
    auto rep = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(rep.ok());
    const std::string path1 = TempPath("byteident1.cqcrep");
    const std::string path2 = TempPath("byteident2.cqcrep");
    ASSERT_TRUE(SaveCompressedRep(*rep.value(), path1).ok());
    auto loaded = LoadCompressedRep(view, db, path1);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    ASSERT_TRUE(SaveCompressedRep(*loaded.value(), path2).ok());
    const std::string bytes1 = ReadFileBytes(path1);
    const std::string bytes2 = ReadFileBytes(path2);
    ASSERT_FALSE(bytes1.empty());
    EXPECT_EQ(bytes1, bytes2) << "tau=" << tau;
  }
}

TEST(SerializationTest, FullEnumerationViewByteIdentical) {
  // num_bound == 0 exercises the arity-0 candidate pool encoding.
  Database db;
  MakePathRelations(db, "R", 3, 8, 40, 21);
  AdornedView view = PathView(3, "ffff");
  CompressedRepOptions copt;
  copt.tau = 4.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok()) << rep.status().message();
  const std::string path1 = TempPath("fullenum1.cqcrep");
  const std::string path2 = TempPath("fullenum2.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path1).ok());
  auto loaded = LoadCompressedRep(view, db, path1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(SaveCompressedRep(*loaded.value(), path2).ok());
  EXPECT_EQ(ReadFileBytes(path1), ReadFileBytes(path2));
  EXPECT_EQ(CollectAll(*loaded.value()->Answer({})),
            OracleAnswer(view, db, {}));
}

TEST(SerializationTest, DetectsWrongData) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const std::string path = TempPath("fingerprint.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());

  Database other;
  MakeRandomGraph(other, "R", 12, 59, true, 10);  // different size
  EXPECT_FALSE(LoadCompressedRep(view, other, path).ok());
}

TEST(SerializationTest, DetectsGarbageFiles) {
  Database db;
  MakeRandomGraph(db, "R", 8, 30, true, 4);
  AdornedView view = TriangleView("bfb");
  const std::string path = TempPath("garbage.cqcrep");
  std::ofstream(path) << "not a rep file at all";
  EXPECT_FALSE(LoadCompressedRep(view, db, path).ok());
  EXPECT_FALSE(LoadCompressedRep(view, db, TempPath("missing.cqcrep")).ok());
}

TEST(SerializationTest, DetectsTruncation) {
  Database db;
  MakeRandomGraph(db, "R", 10, 50, true, 6);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const std::string path = TempPath("full.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::string cut = TempPath("cut.cqcrep");
  std::ofstream(cut, std::ios::binary)
      << data.substr(0, data.size() / 2);
  EXPECT_FALSE(LoadCompressedRep(view, db, cut).ok());
}

// --- corrupt-input coverage ------------------------------------------------
// Every malformed file must come back as a Status error: no crash, no
// CHECK-abort, no unbounded allocation (run under ASan/UBSan in CI).

class CorruptInputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeRandomGraph(db_, "R", 12, 60, true, 9);
    view_ = TriangleView("bfb");
    CompressedRepOptions copt;
    copt.tau = 2.0;
    auto rep = CompressedRep::Build(*view_, db_, copt);
    ASSERT_TRUE(rep.ok());
    // The sweeps below only cover the pool and entry blocks if the base
    // file has rows in them (Seal keeps only referenced candidates).
    ASSERT_GE(rep.value()->dictionary().NumCandidates(), 1u);
    ASSERT_GE(rep.value()->dictionary().NumEntries(), 1u);
    path_ = TempPath("corrupt_base.cqcrep");
    ASSERT_TRUE(SaveCompressedRep(*rep.value(), path_).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_FALSE(bytes_.empty());
  }

  // Writes `data` to a scratch file and loads it. The loader must not
  // crash on any input. An accepted file is also probed with every decoded
  // candidate row plus the all-zero tuple, so every row of an accepted
  // (possibly corrupt, possibly unsorted) pool is decoded and searched.
  Status TryLoad(const std::string& data) {
    const std::string p = TempPath("corrupt_case.cqcrep");
    std::ofstream(p, std::ios::binary) << data;
    auto loaded = LoadCompressedRep(*view_, db_, p);
    if (!loaded.ok()) return loaded.status();
    const HeavyDictionary& dict = loaded.value()->dictionary();
    for (uint32_t id = 0; id < dict.NumCandidates(); ++id)
      dict.FindValuation(dict.Candidate(id));
    dict.FindValuation(Tuple(dict.vb_arity(), 0));
    return Status::Ok();
  }

  Database db_;
  std::optional<AdornedView> view_;
  std::string path_;
  std::string bytes_;
};

TEST_F(CorruptInputTest, TruncationAtEveryStride) {
  // Cut the file at a spread of positions including every early byte (the
  // header decode path) and strides through the array blocks.
  std::vector<size_t> cuts;
  for (size_t i = 0; i < std::min<size_t>(bytes_.size(), 64); ++i)
    cuts.push_back(i);
  for (size_t i = 64; i < bytes_.size(); i += 97) cuts.push_back(i);
  for (size_t cut : cuts) {
    EXPECT_FALSE(TryLoad(bytes_.substr(0, cut)).ok()) << "cut=" << cut;
  }
}

TEST_F(CorruptInputTest, BitFlippedHeaders) {
  // Flipping any single bit of the first 64 bytes (magic, tau/alpha,
  // cover, fingerprint region) must be rejected — or, if it lands in a
  // semantically neutral spot, still load without crashing.
  for (size_t byte = 0; byte < std::min<size_t>(bytes_.size(), 64); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes_;
      mutated[byte] = (char)(mutated[byte] ^ (1 << bit));
      TryLoad(mutated);  // must not crash; result may be error or ok
    }
  }
  // The magic itself must always be rejected.
  for (size_t byte = 0; byte < 8; ++byte) {
    std::string mutated = bytes_;
    mutated[byte] = (char)(mutated[byte] ^ 0x40);
    EXPECT_FALSE(TryLoad(mutated).ok()) << "magic byte " << byte;
  }
}

// v04 fixed header fields for this fixture (triangle: 3 cover weights, 3
// atom digests): magic(8) tau(8) alpha(8) cover_n(4) cover(8*3) atoms_n(4)
// digests(8*3) mu(4) vb_arity(4) num_candidates(8) num_blocks(4) = 100,
// then the block directory: 11 x (offset u64, count u64).
constexpr size_t kDirectoryPos = 8 + 8 + 8 + 4 + 24 + 4 + 24 + 4 + 4 + 8 + 4;
constexpr size_t kDirEntrySize = 16;
constexpr size_t kNumBlocks = 11;

TEST_F(CorruptInputTest, OversizedBlockLengths) {
  // Block element counts live in the header's directory; inflating one
  // must produce a clean error (the loader validates every claim against
  // the file size BEFORE allocating — no bad_alloc, no OOM kill).
  const size_t first_block_count_pos = kDirectoryPos + 8;  // dir[0].count
  ASSERT_LE(first_block_count_pos + 8, bytes_.size());
  for (uint64_t huge :
       {~uint64_t{0}, ~uint64_t{0} / 2, (uint64_t)bytes_.size() + 1}) {
    std::string mutated = bytes_;
    std::memcpy(mutated.data() + first_block_count_pos, &huge, sizeof(huge));
    EXPECT_FALSE(TryLoad(mutated).ok());
  }
  // Stomp every directory u64 (offsets AND counts): offsets past EOF,
  // overlapping or misaligned blocks must all be rejected cleanly.
  for (size_t e = 0; e < 2 * kNumBlocks; ++e) {
    const size_t pos = kDirectoryPos + 8 * e;
    ASSERT_LE(pos + 8, bytes_.size());
    for (uint64_t bad : {~uint64_t{0} / 3, (uint64_t)bytes_.size(),
                         (uint64_t)bytes_.size() * 2}) {
      std::string mutated = bytes_;
      std::memcpy(mutated.data() + pos, &bad, sizeof(bad));
      TryLoad(mutated);  // must return cleanly; inflations are errors
    }
  }
  // Stomp u64s across the whole payload tail: every load must return
  // cleanly (error or structurally-valid ok), never crash.
  for (size_t pos = kDirectoryPos; pos + 8 <= bytes_.size(); pos += 37) {
    std::string mutated = bytes_;
    const uint64_t huge = ~uint64_t{0} / 3;
    std::memcpy(mutated.data() + pos, &huge, sizeof(huge));
    TryLoad(mutated);
  }
}

TEST_F(CorruptInputTest, EntryBitMustBeZeroOrOne) {
  // dir[10] is the entry_bit block (one u8 per dictionary entry, the §5
  // set-membership bit). Any value other than 0/1 is a corrupt file.
  const size_t dir10 = kDirectoryPos + 10 * kDirEntrySize;
  uint64_t offset = 0, count = 0;
  std::memcpy(&offset, bytes_.data() + dir10, 8);
  std::memcpy(&count, bytes_.data() + dir10 + 8, 8);
  ASSERT_GT(count, 0u) << "fixture should have dictionary entries";
  ASSERT_LE(offset + count, bytes_.size());
  for (uint8_t bad : {uint8_t{2}, uint8_t{0xff}}) {
    std::string mutated = bytes_;
    mutated[offset] = (char)bad;
    Status s = TryLoad(mutated);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("entry bits"), std::string::npos)
        << s.message();
  }
}

TEST_F(CorruptInputTest, CorruptTreeLinksAndBetaPool) {
  // Flip bytes in the back half of the file (tree columns / CSR entries):
  // every load must terminate with a clean Status or a structurally valid
  // reload — never hang (link cycles are rejected), never abort (off-grid
  // split points are rejected), never read out of bounds (ASan verifies).
  for (size_t pos = bytes_.size() / 2; pos < bytes_.size(); pos += 31) {
    std::string mutated = bytes_;
    mutated[pos] = (char)(mutated[pos] ^ 0xff);
    TryLoad(mutated);  // result may be error or ok; must return cleanly
  }
}

TEST(SerializationTest, BooleanViewRoundTrip) {
  Database db;
  testing::AddRelation(db, "R", 2, {{1, 2}, {3, 4}});
  auto view = ParseAdornedView("Q^bb(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  CompressedRepOptions copt;
  auto rep = CompressedRep::Build(view.value(), db, copt);
  ASSERT_TRUE(rep.ok());
  const std::string path = TempPath("boolean.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  auto loaded = LoadCompressedRep(view.value(), db, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded.value()->AnswerExists({1, 2}));
  EXPECT_FALSE(loaded.value()->AnswerExists({1, 4}));
}

// Several threads save different structures to one path at once. Each save
// must succeed, the installed file must be one saver's whole
// serialization (never an interleaving of two), it must load, and no temp
// file may be left beside it.
TEST(SerializationTest, ConcurrentSavesToOnePathInstallOneWholeFile) {
  Database db;
  MakeRandomGraph(db, "R", 40, 600, true, 21);
  AdornedView view = TriangleView("bfb");
  const std::vector<double> taus = {1.0, 2.0, 4.0, 8.0};
  const std::filesystem::path dir = TempPath("concurrent_saves");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::vector<std::unique_ptr<CompressedRep>> reps;
  std::vector<std::string> own_bytes;  // each rep's own serialization
  for (size_t i = 0; i < taus.size(); ++i) {
    CompressedRepOptions copt;
    copt.tau = taus[i];
    auto rep = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(rep.ok());
    const std::string own = (dir / ("own" + std::to_string(i))).string();
    ASSERT_TRUE(SaveCompressedRep(*rep.value(), own).ok());
    own_bytes.push_back(ReadFileBytes(own));
    std::filesystem::remove(own);
    reps.push_back(std::move(rep).value());
  }

  const std::string shared = (dir / "shared.cqcrep").string();
  for (int round = 0; round < 10; ++round) {
    std::atomic<size_t> arrived{0};
    std::vector<Status> results(reps.size());
    std::vector<std::thread> savers;
    for (size_t i = 0; i < reps.size(); ++i) {
      savers.emplace_back([&, i] {
        arrived.fetch_add(1);
        while (arrived.load() < reps.size()) std::this_thread::yield();
        results[i] = SaveCompressedRep(*reps[i], shared);
      });
    }
    for (std::thread& t : savers) t.join();
    for (size_t i = 0; i < reps.size(); ++i)
      EXPECT_TRUE(results[i].ok())
          << "round " << round << " saver " << i << ": "
          << results[i].message();

    const std::string installed = ReadFileBytes(shared);
    int winner = -1;
    for (size_t i = 0; i < own_bytes.size(); ++i)
      if (installed == own_bytes[i]) winner = (int)i;
    ASSERT_GE(winner, 0) << "round " << round
                         << ": installed file is no saver's serialization";
    auto loaded = LoadCompressedRep(view, db, shared);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_DOUBLE_EQ(loaded.value()->tau(), taus[winner]);
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      EXPECT_EQ(entry.path().filename().string().find(".tmp"),
                std::string::npos)
          << "leftover temp file " << entry.path();
  }
}

// A save cut between opening its temp file and renaming it leaves the temp
// file behind. The next save of the path removes it when its process is
// gone, and leaves a live process's temp file (a concurrent save) alone.
TEST(SerializationTest, SaveRemovesTempFilesOfExitedSavers) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  auto rep = CompressedRep::Build(view, db, CompressedRepOptions{});
  ASSERT_TRUE(rep.ok());
  const std::filesystem::path dir = TempPath("stale_temps");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "rep.cqcrep").string();

  // A pid that has exited and been reaped.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);

  const std::string stale = path + ".tmp." + std::to_string(child) + ".0";
  const std::string live = path + ".tmp." + std::to_string(::getppid()) + ".0";
  const std::string other = (dir / "other.cqcrep.tmp.1.0").string();
  for (const std::string& f : {stale, live, other})
    std::ofstream(f) << "partial";

  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_TRUE(std::filesystem::exists(live));
  EXPECT_TRUE(std::filesystem::exists(other));
  EXPECT_TRUE(LoadCompressedRep(view, db, path).ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cqc
