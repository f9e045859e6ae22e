// ColStore<T>: one flat column that either OWNS a std::vector<T> or BORROWS
// a read-only span of externally managed memory (an mmap'ed rep file).
//
// The serving structures (DelayBalancedTree, HeavyDictionary,
// PackedTuplePool) are struct-of-arrays over columns exactly like their
// on-disk blocks. A build fills owned vectors; a snapshot load points each
// column straight into the file mapping. ColStore unifies the two behind
// one accessor surface so the hot paths stay
// branch-free: the data pointer and size are cached members, read access
// is a plain indexed load regardless of mode.
//
// Contract:
//   * Read access (data/size/operator[]/iterators) is always valid.
//   * Mutation (push_back/resize/assign/clear/mutable_data) is owned-mode
//     only and CHECK-fails on a borrowed column — a borrowed column aliases
//     a PROT_READ mapping, so a write would fault anyway; the CHECK turns
//     that into a diagnosable contract violation.
//   * A borrowed column does NOT keep its backing alive. The owner of the
//     mapping (core/rep_file.h held by the CompressedRep) must outlive
//     every structure borrowing from it.
//   * Copying deep-copies an owned column and aliases a borrowed one
//     (both copies then borrow the same backing).
#ifndef CQC_UTIL_COL_STORE_H_
#define CQC_UTIL_COL_STORE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace cqc {

template <typename T>
class ColStore {
 public:
  ColStore() = default;

  /// Takes ownership of `v` (implicit: vector call sites keep working).
  ColStore(std::vector<T> v)  // NOLINT implicit
      : own_(std::move(v)), data_(own_.data()), size_(own_.size()) {}

  /// Borrowed view over `[data, data + n)`; the backing must outlive this.
  static ColStore Borrow(const T* data, size_t n) {
    ColStore c;
    c.borrowed_ = true;
    c.data_ = data;
    c.size_ = n;
    return c;
  }

  ColStore(const ColStore& o) { *this = o; }
  ColStore& operator=(const ColStore& o) {
    if (this == &o) return *this;
    own_ = o.own_;
    borrowed_ = o.borrowed_;
    data_ = borrowed_ ? o.data_ : own_.data();
    size_ = o.size_;
    return *this;
  }
  ColStore(ColStore&& o) noexcept { *this = std::move(o); }
  ColStore& operator=(ColStore&& o) noexcept {
    if (this == &o) return *this;
    own_ = std::move(o.own_);
    borrowed_ = o.borrowed_;
    data_ = borrowed_ ? o.data_ : own_.data();
    size_ = o.size_;
    o.own_.clear();
    o.borrowed_ = false;
    o.data_ = nullptr;
    o.size_ = 0;
    return *this;
  }

  // --- read access (both modes) --------------------------------------------
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  bool borrowed() const { return borrowed_; }

  /// Logical payload bytes (both modes).
  size_t ByteSize() const { return size_ * sizeof(T); }
  /// Heap footprint: allocation for owned columns, 0 for borrowed ones
  /// (the pages belong to the mapping and are charged via the RepFile).
  size_t MemoryBytes() const {
    return borrowed_ ? 0 : own_.capacity() * sizeof(T);
  }

  // --- mutation (owned mode only) ------------------------------------------
  T* mutable_data() {
    CQC_CHECK(!borrowed_) << "mutating a borrowed (mapped) column";
    return own_.data();
  }
  void push_back(const T& v) {
    CQC_CHECK(!borrowed_) << "mutating a borrowed (mapped) column";
    own_.push_back(v);
    Sync();
  }
  void resize(size_t n, const T& v = T()) {
    CQC_CHECK(!borrowed_) << "mutating a borrowed (mapped) column";
    own_.resize(n, v);
    Sync();
  }
  void assign(size_t n, const T& v) {
    CQC_CHECK(!borrowed_) << "mutating a borrowed (mapped) column";
    own_.assign(n, v);
    Sync();
  }
  void reserve(size_t n) {
    CQC_CHECK(!borrowed_) << "mutating a borrowed (mapped) column";
    own_.reserve(n);
    Sync();
  }
  void clear() {
    CQC_CHECK(!borrowed_) << "mutating a borrowed (mapped) column";
    own_.clear();
    own_.shrink_to_fit();
    Sync();
  }

 private:
  void Sync() {
    data_ = own_.data();
    size_ = own_.size();
  }

  std::vector<T> own_;
  bool borrowed_ = false;
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace cqc

#endif  // CQC_UTIL_COL_STORE_H_
