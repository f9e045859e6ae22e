#include "core/serialization.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/rep_file.h"
#include "util/col_store.h"
#include "util/logging.h"

namespace cqc {
namespace {

// Format 05: every payload block is a flat raw array, 64-byte-aligned in
// the file, located through an (offset, count) directory in the header.
// Alignment + raw storage (the v03 per-row delta varints for the entry ids
// are gone) make each block directly usable in place, so the loader
// borrows every column out of the file with zero decode. v05 appends four
// optional aggregate-annotation blocks (per-node / per-entry ring cells)
// so a rep built with aggregates answers them zero-copy after a load.
constexpr char kMagic[8] = {'C', 'Q', 'C', 'R', 'E', 'P', '0', '5'};

// The fixed block order. num_nodes is recovered as dir[kBlockLeft].count
// and the candidate count is a header field, so counts are redundant but
// cross-checked (every column's count must agree with the header shape).
enum BlockId {
  kBlockBeta = 0,     // Value  (tree split-point pool, num_nodes * mu)
  kBlockLeft,         // i32
  kBlockRight,        // i32
  kBlockCost,         // f32
  kBlockLevel,        // u16
  kBlockLeaf,         // u8
  kBlockWidths,       // u8    (packed pool per-column bit widths)
  kBlockWords,        // u64   (packed pool words, pad word included)
  kBlockOffsets,      // u32   (CSR node offsets, num_nodes + 1)
  kBlockEntryVb,      // u32   (entry valuation ids, raw)
  kBlockEntryBit,     // u8
  // Aggregate annotations (v05, optional — all four empty when the rep was
  // built without them). The vals pools are 3*mu cells per row in the
  // RingCell layout: sums | mins | maxs.
  kBlockTreeAggCount,   // u64   (per-node answer counts, num_nodes)
  kBlockTreeAggVals,    // Value (per-node ring cells, num_nodes * 3 * mu)
  kBlockEntryAggCount,  // u64   (per-entry answer counts, num_entries)
  kBlockEntryAggVals,   // Value (per-entry ring cells, num_entries * 3 * mu)
  kNumBlocks
};

constexpr size_t kBlockElemSize[kNumBlocks] = {
    sizeof(Value), 4, 4, 4, 2, 1, 1, 8, 4, 4, 1,
    8, sizeof(Value), 8, sizeof(Value)};

constexpr size_t kBlockAlign = 64;

struct BlockDir {
  uint64_t offset = 0;  // absolute file offset; 0 for an empty block
  uint64_t count = 0;   // element count
};

// Everything before the payload blocks. Fixed-layout except the two
// length-prefixed arrays, so its size is computable from cover/atom counts.
struct Header {
  double tau = 0;
  double alpha = 0;
  std::vector<double> cover;
  std::vector<uint64_t> digests;
  uint32_t mu = 0;
  uint32_t vb_arity = 0;
  uint64_t num_candidates = 0;
  BlockDir dir[kNumBlocks];

  size_t ByteSize() const {
    return sizeof(kMagic) + 8 + 8 + 4 + 8 * cover.size() + 4 +
           8 * digests.size() + 4 + 4 + 8 + 4 + 16 * (size_t)kNumBlocks;
  }
};

// Little-endian POD writer (x86-64 target; the on-disk format is the
// native layout of these fixed-width types).
template <typename T>
void Put(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Flushes the file or directory at `path` to stable storage.
bool SyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Removes the temp files `<path>.tmp.<pid>.<n>` of saves whose process no
// longer exists, i.e. saves cut between opening the temp file and renaming
// it. A temp file of a live process is left alone: it may be a concurrent
// save still writing. Best effort; errors are ignored. The pid test assumes
// the savers of one directory share a host.
void RemoveStaleTemps(const std::filesystem::path& dir,
                      const std::string& file_name) {
  namespace fs = std::filesystem;
  const std::string prefix = file_name + ".tmp.";
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    char* pid_end = nullptr;
    const long pid = std::strtol(name.c_str() + prefix.size(), &pid_end, 10);
    if (pid <= 0 || *pid_end != '.') continue;
    if (::kill((pid_t)pid, 0) == 0 || errno != ESRCH) continue;
    std::error_code rm_ec;
    fs::remove(it->path(), rm_ec);
  }
}

// Bounds-checked sequential reader over the file bytes (the header parse).
struct MemReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool ReadRaw(void* p, size_t n) {
    if (n > size - pos) return false;  // pos <= size invariant
    std::memcpy(p, data + pos, n);     // memcpy: header fields are unaligned
    pos += n;
    return true;
  }
};

template <typename T>
bool Get(MemReader& r, T* v) {
  return r.ReadRaw(v, sizeof(T));
}

/// Parses and sanity-checks the header (everything that needs no database:
/// magic, parameter finiteness, shape bounds, the block directory against
/// the file extent). Every block is validated against the file size here,
/// so the loader never trusts a claimed length the file cannot hold.
Status ReadHeader(const RepFile& f, Header* h) {
  const uint64_t file_size = f.size();
  MemReader r{f.data(), f.size()};
  char magic[8];
  if (!r.ReadRaw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return Status::Error("not a cqc compressed-rep (v05) file");

  if (!Get(r, &h->tau) || !Get(r, &h->alpha))
    return Status::Error("truncated header");
  // Bit-flipped float fields can decode as NaN, which slides through
  // ordering checks (every comparison is false) — reject non-finite
  // parameters outright.
  if (!std::isfinite(h->tau) || h->tau <= 0 || !std::isfinite(h->alpha) ||
      h->alpha <= 0)
    return Status::Error("corrupt header: non-finite tau/alpha");

  uint32_t cover_size;
  if (!Get(r, &cover_size) || cover_size > 1u << 16)
    return Status::Error("bad cover");
  h->cover.resize(cover_size);
  for (double& w : h->cover) {
    if (!Get(r, &w)) return Status::Error("truncated cover");
    if (!std::isfinite(w) || w < 0) return Status::Error("corrupt cover weight");
  }

  uint32_t num_atoms;
  if (!Get(r, &num_atoms) || num_atoms > 1u << 16)
    return Status::Error("bad atom count");
  h->digests.resize(num_atoms);
  for (uint64_t& d : h->digests)
    if (!Get(r, &d)) return Status::Error("truncated fingerprint");

  if (!Get(r, &h->mu) || h->mu > (uint32_t)kMaxVars)
    return Status::Error("bad tree arity");
  if (!Get(r, &h->vb_arity) || h->vb_arity > (uint32_t)kMaxVars)
    return Status::Error("bad dictionary arity");
  if (!Get(r, &h->num_candidates) || h->num_candidates >= 0xffffffffull ||
      (h->vb_arity == 0 && h->num_candidates > 1))
    return Status::Error("bad candidate count");

  uint32_t num_blocks;
  if (!Get(r, &num_blocks) || num_blocks != (uint32_t)kNumBlocks)
    return Status::Error("bad block count");
  for (BlockDir& d : h->dir)
    if (!Get(r, &d.offset) || !Get(r, &d.count))
      return Status::Error("truncated block directory");

  // Directory validation against the file extent. Blocks are laid out in
  // order, aligned, non-overlapping; a count that cannot fit between its
  // offset and EOF is rejected BEFORE any column is borrowed, so a corrupt
  // length yields a clean error, never an out-of-bounds read.
  uint64_t prev_end = h->ByteSize();
  for (int b = 0; b < kNumBlocks; ++b) {
    const BlockDir& d = h->dir[b];
    if (d.count == 0) {
      if (d.offset != 0) return Status::Error("corrupt block directory");
      continue;
    }
    if (d.offset % kBlockAlign != 0 || d.offset < prev_end ||
        d.offset > file_size)
      return Status::Error("corrupt block directory");
    if (d.count > (file_size - d.offset) / kBlockElemSize[b])
      return Status::Error("corrupt block directory");
    prev_end = d.offset + d.count * kBlockElemSize[b];
  }
  return Status::Ok();
}

/// Borrowed view of one directory block straight out of the file. The
/// 64-byte file alignment plus the RepFile base (page-aligned when mapped,
/// malloc-aligned on the read fallback) make the reinterpret_cast
/// well-aligned for every element type used here (at most 8 bytes).
template <typename T>
ColStore<T> BorrowBlock(const RepFile& f, const BlockDir& d) {
  if (d.count == 0) return ColStore<T>();
  return ColStore<T>::Borrow(reinterpret_cast<const T*>(f.data() + d.offset),
                             (size_t)d.count);
}

}  // namespace

/// Loader internals, friended by CompressedRep. Assemble() builds the
/// skeleton (view/database resolution), borrows every column out of
/// `file`, cross-checks each against the header shape and the structures'
/// invariants, then moves the columns into the rep, which keeps `file`
/// alive. O(header + tree nodes + dictionary entries) — the packed pool
/// words are count-checked but never scanned, which is what keeps a load
/// independent of the candidate pool size.
class RepSerde {
 public:
  static Result<std::unique_ptr<CompressedRep>> Assemble(
      const AdornedView& view, const Database& db, const Database* aux_db,
      const Header& h, std::shared_ptr<RepFile> file);
};

Result<std::unique_ptr<CompressedRep>> RepSerde::Assemble(
    const AdornedView& view, const Database& db, const Database* aux_db,
    const Header& h, std::shared_ptr<RepFile> file) {
  Result<std::unique_ptr<CompressedRep>> skeleton =
      CompressedRep::MakeSkeleton(view, db, h.cover, h.tau, aux_db);
  if (!skeleton.ok()) return skeleton.status();
  std::unique_ptr<CompressedRep> rep = std::move(skeleton).value();
  if (std::abs(rep->alpha_ - h.alpha) > 1e-9)
    return Status::Error("slack mismatch: file built for a different view");

  // Fingerprint.
  if (h.digests.size() != rep->atoms_.size())
    return Status::Error("atom count mismatch");
  for (size_t i = 0; i < rep->atoms_.size(); ++i) {
    if (h.digests[i] != rep->atoms_[i].relation().ContentHash())
      return Status::Error(
          "relation content mismatch: file built over different data");
  }

  const RepFile& f = *file;
  ColStore<Value> beta = BorrowBlock<Value>(f, h.dir[kBlockBeta]);
  ColStore<int32_t> left = BorrowBlock<int32_t>(f, h.dir[kBlockLeft]);
  ColStore<int32_t> right = BorrowBlock<int32_t>(f, h.dir[kBlockRight]);
  ColStore<float> cost = BorrowBlock<float>(f, h.dir[kBlockCost]);
  ColStore<uint16_t> level = BorrowBlock<uint16_t>(f, h.dir[kBlockLevel]);
  ColStore<uint8_t> leaf = BorrowBlock<uint8_t>(f, h.dir[kBlockLeaf]);
  // Widths are a handful of bytes and the pool wants its own copy anyway.
  const BlockDir& wd = h.dir[kBlockWidths];
  std::vector<uint8_t> widths(f.data() + wd.offset,
                              f.data() + wd.offset + wd.count);
  ColStore<uint64_t> words = BorrowBlock<uint64_t>(f, h.dir[kBlockWords]);
  ColStore<uint32_t> offsets = BorrowBlock<uint32_t>(f, h.dir[kBlockOffsets]);
  ColStore<uint32_t> entry_vb = BorrowBlock<uint32_t>(f, h.dir[kBlockEntryVb]);
  ColStore<uint8_t> entry_bit = BorrowBlock<uint8_t>(f, h.dir[kBlockEntryBit]);
  ColStore<uint64_t> tree_agg_count =
      BorrowBlock<uint64_t>(f, h.dir[kBlockTreeAggCount]);
  ColStore<Value> tree_agg_vals =
      BorrowBlock<Value>(f, h.dir[kBlockTreeAggVals]);
  ColStore<uint64_t> entry_agg_count =
      BorrowBlock<uint64_t>(f, h.dir[kBlockEntryAggCount]);
  ColStore<Value> entry_agg_vals =
      BorrowBlock<Value>(f, h.dir[kBlockEntryAggVals]);

  // Tree columns.
  const size_t num_nodes = left.size();
  if (right.size() != num_nodes || cost.size() != num_nodes ||
      level.size() != num_nodes || leaf.size() != num_nodes ||
      beta.size() != num_nodes * (size_t)h.mu)
    return Status::Error("inconsistent tree column lengths");
  for (size_t i = 0; i < num_nodes; ++i) {
    // Children live at strictly higher preorder ids: also rules out link
    // cycles, which would hang the traversal on a corrupt file.
    if (left[i] >= (int64_t)num_nodes || right[i] >= (int64_t)num_nodes ||
        (left[i] >= 0 && left[i] <= (int64_t)i) ||
        (right[i] >= 0 && right[i] <= (int64_t)i))
      return Status::Error("corrupt tree links");
    // Non-leaf split points must be grid tuples: the traversal takes their
    // grid successor/predecessor, which CHECK-aborts off the grid.
    if (!leaf[i]) {
      for (uint32_t d = 0; d < h.mu; ++d) {
        if (rep->domain_.IndexOf((int)d, beta[i * h.mu + d]) < 0)
          return Status::Error("corrupt split point (off-grid value)");
      }
    }
  }

  // Dictionary columns.
  if (widths.size() != h.vb_arity)
    return Status::Error("bad candidate pool widths");
  size_t row_bits = 0;
  for (uint8_t w : widths) {
    if (w > 64) return Status::Error("bad candidate pool widths");
    row_bits += w;
  }
  const uint64_t payload_bits = h.num_candidates * row_bits;
  if (words.size() != (payload_bits == 0 ? 0 : (payload_bits + 63) / 64 + 1))
    return Status::Error("bad candidate pool length");
  if (offsets.size() != num_nodes + 1 &&
      !(offsets.empty() && num_nodes == 0))
    return Status::Error("bad dictionary offsets length");
  if (!offsets.empty()) {
    if (offsets.front() != 0)
      return Status::Error("corrupt dictionary offsets");
    for (size_t n = 0; n + 1 < offsets.size(); ++n)
      if (offsets[n] > offsets[n + 1])
        return Status::Error("corrupt dictionary offsets");
    if ((size_t)offsets.back() != entry_vb.size())
      return Status::Error("corrupt dictionary offsets");
  } else if (!entry_vb.empty()) {
    return Status::Error("dictionary entries without offsets");
  }
  if (entry_vb.size() != entry_bit.size())
    return Status::Error("inconsistent dictionary entry columns");
  // Within a node's slice ids must be strictly ascending (the lookups
  // binary-search it) and name real candidates.
  for (size_t n = 0; n + 1 < offsets.size(); ++n) {
    for (uint32_t i = offsets[n]; i < offsets[n + 1]; ++i) {
      if (entry_vb[i] >= h.num_candidates ||
          (i > offsets[n] && entry_vb[i] <= entry_vb[i - 1]))
        return Status::Error("corrupt dictionary ordering");
    }
  }
  // The flag column is addressed as a boolean; a bit flip in the file must
  // not smuggle other values into it.
  for (size_t i = 0; i < entry_bit.size(); ++i)
    if (entry_bit[i] > 1)
      return Status::Error("corrupt dictionary entry bits");

  // Aggregate annotations: each family is all-or-nothing (a count column
  // without its ring cells — or vice versa — is a corrupt file, not a
  // half-annotated rep) and its lengths are fully determined by the shape.
  const bool tree_agg = !tree_agg_count.empty() || !tree_agg_vals.empty();
  if (tree_agg &&
      (tree_agg_count.size() != num_nodes ||
       tree_agg_vals.size() != num_nodes * 3 * (size_t)h.mu))
    return Status::Error("inconsistent tree aggregate annotation lengths");
  const bool entry_agg =
      !entry_agg_count.empty() || !entry_agg_vals.empty();
  if (entry_agg &&
      (entry_agg_count.size() != entry_vb.size() ||
       entry_agg_vals.size() != entry_vb.size() * 3 * (size_t)h.mu))
    return Status::Error("inconsistent entry aggregate annotation lengths");
  if (tree_agg && entry_agg)
    return Status::Error("aggregate annotations on both tree and dictionary");
  if (tree_agg && h.vb_arity > 0)
    return Status::Error("tree aggregate annotations on a bound view");
  if (entry_agg && h.vb_arity == 0)
    return Status::Error("entry aggregate annotations on a free view");

  rep->tree_ = DelayBalancedTree::FromFlat(
      (int)h.mu, std::move(beta), std::move(left), std::move(right),
      std::move(cost), std::move(level), std::move(leaf));
  rep->dict_ = HeavyDictionary::FromPacked(
      (int)h.vb_arity, (size_t)h.num_candidates,
      PackedTuplePool::FromFlatParts((int)h.vb_arity,
                                     (size_t)h.num_candidates,
                                     std::move(widths), std::move(words)),
      std::move(offsets), std::move(entry_vb), std::move(entry_bit));
  if (tree_agg)
    rep->tree_.AttachAggregates(std::move(tree_agg_count),
                                std::move(tree_agg_vals));
  if (entry_agg)
    rep->dict_.AttachAggregates(std::move(entry_agg_count),
                                std::move(entry_agg_vals), (int)h.mu);
  rep->backing_ = std::move(file);

  // Refresh stats that depend on the loaded parts.
  CompressedRepStats& s = rep->stats_;
  s.tree_nodes = rep->tree_.size();
  s.tree_depth = rep->tree_.max_depth();
  if (!rep->tree_.empty()) s.root_cost = rep->tree_.cost(0);
  s.dict_entries = rep->dict_.NumEntries();
  s.num_candidates = rep->dict_.NumCandidates();
  s.tree_bytes = rep->tree_.MemoryBytes();
  s.dict_bytes = rep->dict_.MemoryBytes();
  if (tree_agg)
    s.agg_bytes = rep->tree_.agg_counts().ByteSize() +
                  rep->tree_.agg_vals_pool().ByteSize();
  if (entry_agg)
    s.agg_bytes = rep->dict_.entry_agg_counts().ByteSize() +
                  rep->dict_.entry_agg_vals_pool().ByteSize();
  s.mapped_bytes = 0;
  for (int b = 0; b < kNumBlocks; ++b)
    if (b != kBlockWidths)
      s.mapped_bytes += (size_t)h.dir[b].count * kBlockElemSize[b];
  return rep;
}

Status SaveCompressedRep(const CompressedRep& rep, const std::string& path) {
  const DelayBalancedTree& tree = rep.tree_;
  const HeavyDictionary& dict = rep.dict_;

  // An unsealed dictionary has no packed pool yet; only a never-built one
  // (boolean view / empty domain) may be serialized that way.
  std::vector<uint8_t> empty_widths;
  if (!dict.sealed()) {
    CQC_CHECK_EQ(dict.NumCandidates(), 0u)
        << "serializing an unsealed non-empty dictionary";
    empty_widths.assign((size_t)dict.vb_arity(), 0);
  }
  const std::vector<uint8_t>& widths =
      dict.sealed() ? dict.packed_pool().widths() : empty_widths;

  Header h;
  h.tau = rep.tau_;
  h.alpha = rep.alpha_;
  h.cover = rep.stats_.cover;
  for (const BoundAtom& atom : rep.atoms_)
    h.digests.push_back(atom.relation().ContentHash());
  h.mu = (uint32_t)tree.mu();
  h.vb_arity = (uint32_t)dict.vb_arity();
  h.num_candidates = (uint64_t)dict.NumCandidates();

  // The blocks in file order: raw bytes + element counts.
  struct Src {
    const void* data;
    uint64_t count;
  };
  const Src blocks[kNumBlocks] = {
      {tree.beta_pool().data(), tree.beta_pool().size()},
      {tree.lefts().data(), tree.lefts().size()},
      {tree.rights().data(), tree.rights().size()},
      {tree.costs().data(), tree.costs().size()},
      {tree.levels().data(), tree.levels().size()},
      {tree.leaf_flags().data(), tree.leaf_flags().size()},
      {widths.data(), widths.size()},
      {dict.sealed() ? dict.packed_pool().words().data() : nullptr,
       dict.sealed() ? dict.packed_pool().words().size() : 0},
      {dict.node_offsets().data(), dict.node_offsets().size()},
      {dict.entry_vbs().data(), dict.entry_vbs().size()},
      {dict.entry_bits().data(), dict.entry_bits().size()},
      {tree.agg_counts().data(), tree.agg_counts().size()},
      {tree.agg_vals_pool().data(), tree.agg_vals_pool().size()},
      {dict.entry_agg_counts().data(), dict.entry_agg_counts().size()},
      {dict.entry_agg_vals_pool().data(), dict.entry_agg_vals_pool().size()},
  };

  // Lay out the directory: blocks in order, each aligned up from the
  // previous end, empty blocks at offset 0. Deterministic, so identical
  // structures serialize byte-identically.
  uint64_t cursor = h.ByteSize();
  for (int b = 0; b < kNumBlocks; ++b) {
    h.dir[b].count = blocks[b].count;
    if (blocks[b].count == 0) continue;
    cursor = (cursor + kBlockAlign - 1) / kBlockAlign * kBlockAlign;
    h.dir[b].offset = cursor;
    cursor += blocks[b].count * kBlockElemSize[b];
  }

  // Write to a sibling temp file and rename into place. Atomic on POSIX,
  // and — load-bearing for the snapshot cache — an overwrite never touches
  // the old inode, so a live mmap of the previous file keeps reading
  // consistent bytes instead of taking SIGBUS when the file is truncated
  // under it. The temp name is unique per save (pid + a process-wide
  // counter), so concurrent savers of one path never share a temp file and
  // the last rename wins with a whole file. The file is fsynced before the
  // rename and its directory after it, so a crash leaves the old file or
  // the new one at `path`. A save cut before its rename leaves its temp
  // file behind; the next save of the path removes it.
  const std::filesystem::path fs_path(path);
  std::filesystem::path dir = fs_path.parent_path();
  if (dir.empty()) dir = ".";
  RemoveStaleTemps(dir, fs_path.filename().string());
  static std::atomic<uint64_t> save_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_seq.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::Error("cannot open " + tmp);
  out.write(kMagic, sizeof(kMagic));
  Put<double>(out, h.tau);
  Put<double>(out, h.alpha);
  Put<uint32_t>(out, (uint32_t)h.cover.size());
  for (double w : h.cover) Put<double>(out, w);
  Put<uint32_t>(out, (uint32_t)h.digests.size());
  for (uint64_t d : h.digests) Put<uint64_t>(out, d);
  Put<uint32_t>(out, h.mu);
  Put<uint32_t>(out, h.vb_arity);
  Put<uint64_t>(out, h.num_candidates);
  Put<uint32_t>(out, (uint32_t)kNumBlocks);
  for (const BlockDir& d : h.dir) {
    Put<uint64_t>(out, d.offset);
    Put<uint64_t>(out, d.count);
  }

  static constexpr char kPad[kBlockAlign] = {};
  uint64_t pos = h.ByteSize();
  for (int b = 0; b < kNumBlocks; ++b) {
    if (h.dir[b].count == 0) continue;
    CQC_DCHECK(h.dir[b].offset >= pos);
    out.write(kPad, (std::streamsize)(h.dir[b].offset - pos));
    const uint64_t bytes = h.dir[b].count * kBlockElemSize[b];
    out.write(static_cast<const char*>(blocks[b].data),
              (std::streamsize)bytes);
    pos = h.dir[b].offset + bytes;
  }
  out.close();
  if (!out.good() || !SyncPath(tmp, O_RDONLY)) {
    std::remove(tmp.c_str());
    return Status::Error("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("cannot move " + tmp + " into place");
  }
  if (!SyncPath(dir.string(), O_RDONLY | O_DIRECTORY))
    return Status::Error("installed " + path + " but cannot sync directory " +
                         dir.string() + ": the file may not survive a crash");
  return Status::Ok();
}

Result<std::unique_ptr<CompressedRep>> LoadCompressedRep(
    const AdornedView& view, const Database& db, const std::string& path,
    const Database* aux_db) {
  Result<std::shared_ptr<RepFile>> open = RepFile::Open(path);
  if (!open.ok()) return open.status();
  std::shared_ptr<RepFile> file = std::move(open).value();

  Header h;
  Status st = ReadHeader(*file, &h);
  if (!st.ok()) return Status::Error(path + ": " + st.message());
  return RepSerde::Assemble(view, db, aux_db, h, std::move(file));
}

}  // namespace cqc
