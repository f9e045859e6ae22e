// RepFile: a read-only handle over a rep container file, backing the
// snapshot loader (core/serialization.h, LoadCompressedRep).
//
// On POSIX systems the file is mmap'ed PROT_READ / MAP_PRIVATE: opening is
// O(1) regardless of file size, the structures borrow their columns
// straight out of the mapping (util/col_store.h), and the OS pages data in
// on demand — a rep larger than RAM serves with the page cache as the
// eviction policy. On platforms without mmap the handle degrades to a heap
// read (same interface, O(bytes) open), so callers never need a platform
// branch.
//
// ResidentBytes() reports the bytes of the mapping currently resident in
// physical memory (mincore page sweep). This is what a byte-budgeted cache
// must charge a mapped entry: the *virtual* size of the mapping is the
// file size, but an untouched mapping costs nothing — see
// plan/rep_cache.h (RepCacheOptions::max_resident_bytes).
//
// Lifetime: structures borrowing from the mapping hold no reference to it;
// the CompressedRep that owns them keeps the shared_ptr<RepFile> alive for
// as long as any borrowed column can be read.
#ifndef CQC_CORE_REP_FILE_H_
#define CQC_CORE_REP_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace cqc {

class RepFile {
 public:
  /// Maps `path` read-only. Fails with a Status error on a missing or
  /// unreadable file; an empty file opens with size() == 0 (the loader
  /// rejects it at the magic check).
  static Result<std::shared_ptr<RepFile>> Open(const std::string& path);

  ~RepFile();
  RepFile(const RepFile&) = delete;
  RepFile& operator=(const RepFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Bytes of the mapping currently resident in physical memory (mincore
  /// page sweep; the heap fallback and platforms without mincore report
  /// the full size — the conservative charge).
  size_t ResidentBytes() const;

 private:
  RepFile() = default;

  std::string path_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  void* map_ = nullptr;          // non-null iff mmap'ed
  int fd_ = -1;
  std::vector<uint8_t> heap_;    // fallback storage when mmap is unavailable
};

}  // namespace cqc

#endif  // CQC_CORE_REP_FILE_H_
