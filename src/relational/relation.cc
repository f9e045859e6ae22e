#include "relational/relation.h"

#include <algorithm>
#include <numeric>

#include "exec/par_util.h"
#include "relational/sorted_index.h"
#include "util/hashing.h"
#include "util/logging.h"
#include "util/op_counter.h"

namespace cqc {

Relation::Relation(std::string name, int arity)
    : name_(std::move(name)), arity_(arity) {
  CQC_CHECK_GT(arity, 0);
  CQC_CHECK_LE(arity, kMaxVars);
}

Relation::~Relation() = default;

void Relation::Insert(const Tuple& t) {
  CQC_CHECK(!sealed_) << "insert into sealed relation " << name_;
  CQC_CHECK_EQ((int)t.size(), arity_)
      << "tuple arity mismatch on relation " << name_;
  InsertRow(t.data());
}

void Relation::InsertRow(const Value* row) {
  CQC_CHECK(!sealed_) << "insert into sealed relation " << name_;
  CQC_CHECK(row != nullptr) << "null row inserted into relation " << name_;
  staging_.insert(staging_.end(), row, row + arity_);
}

void Relation::Seal() {
  CQC_CHECK(!sealed_);
  const size_t n = staging_.size() / arity_;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const int arity = arity_;
  const Value* data = staging_.data();
  auto row_less = [&](size_t a, size_t b) {
    const Value* ra = data + a * arity;
    const Value* rb = data + b * arity;
    return std::lexicographical_compare(ra, ra + arity, rb, rb + arity);
  };
  auto row_eq = [&](size_t a, size_t b) {
    const Value* ra = data + a * arity;
    const Value* rb = data + b * arity;
    return std::equal(ra, ra + arity, rb);
  };
  par::ParallelSort(order.begin(), order.end(), row_less);
  order.erase(std::unique(order.begin(), order.end(), row_eq), order.end());
  num_rows_ = order.size();

  // Column scatter + per-column active domains, one task per column.
  cols_.assign(arity_, {});
  active_domains_.assign(arity_, {});
  std::vector<std::function<void()>> tasks;
  tasks.reserve(arity_);
  for (int c = 0; c < arity_; ++c) {
    tasks.push_back([this, c, data, arity, &order] {
      cols_[c].resize(num_rows_);
      for (size_t i = 0; i < num_rows_; ++i)
        cols_[c][i] = data[order[i] * arity + c];
      auto dom = cols_[c];
      std::sort(dom.begin(), dom.end());
      dom.erase(std::unique(dom.begin(), dom.end()), dom.end());
      active_domains_[c] = std::move(dom);
    });
  }
  par::RunTasks(std::move(tasks), num_rows_);
  staging_.clear();
  staging_.shrink_to_fit();
  sealed_ = true;
}

Value Relation::At(size_t row, int col) const {
  CQC_CHECK(sealed_) << "At() on unsealed relation " << name_;
  CQC_CHECK_LT(row, num_rows_) << "row out of range on relation " << name_;
  CQC_CHECK_GE(col, 0);
  CQC_CHECK_LT(col, arity_) << "column out of range on relation " << name_;
  return cols_[col][row];
}

const std::vector<Value>& Relation::ActiveDomain(int col) const {
  CQC_CHECK(sealed_);
  CQC_CHECK_GE(col, 0);
  CQC_CHECK_LT(col, arity_);
  return active_domains_[col];
}

const SortedIndex& Relation::GetIndex(const std::vector<int>& perm) const {
  CQC_CHECK(sealed_);
  // A malformed permutation would silently build an index over the wrong
  // (possibly repeated) columns; reject it here where the caller is visible.
  CQC_CHECK_EQ((int)perm.size(), arity_)
      << "index permutation size mismatch on relation " << name_;
  std::vector<bool> seen(arity_, false);
  for (int c : perm) {
    CQC_CHECK(c >= 0 && c < arity_)
        << "index permutation entry " << c << " out of range on relation "
        << name_;
    CQC_CHECK(!seen[c]) << "index permutation repeats column " << c
                        << " on relation " << name_;
    seen[c] = true;
  }
  std::shared_ptr<IndexSlot> slot;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    auto it = index_cache_.find(perm);
    if (it == index_cache_.end())
      it = index_cache_.emplace(perm, std::make_shared<IndexSlot>()).first;
    slot = it->second;
  }
  // Build outside the map lock: concurrent requests for the same perm
  // coalesce on the once_flag, distinct perms build in parallel.
  std::call_once(slot->once, [&] {
    slot->index = std::make_unique<SortedIndex>(*this, perm);
    slot->ready.store(true, std::memory_order_release);
  });
  return *slot->index;
}

bool Relation::Contains(TupleSpan t) const {
  CQC_CHECK(sealed_);
  CQC_CHECK_EQ((int)t.size(), arity_);
  ops::Bump();
  ops::BumpHashProbe();
  // Rows are lex-sorted in identity column order, so the rows matching a
  // prefix t[0..c) form one range, and column c is sorted within it.
  size_t lo = 0, hi = num_rows_;
  for (int c = 0; c < arity_ && lo < hi; ++c) {
    const Value* col = cols_[c].data();
    const auto [first, last] = std::equal_range(col + lo, col + hi, t[c]);
    lo = first - col;
    hi = last - col;
  }
  return lo < hi;
}

uint64_t Relation::ContentHash() const {
  CQC_CHECK(sealed_);
  // Memoized: the digest is checked on every snapshot load, and a fresh
  // pass over the columns there would make an otherwise O(header) mmap
  // open scale with relation size. Content is frozen after Seal().
  std::call_once(content_hash_once_, [this] {
    uint64_t h = 0x243f6a8885a308d3ULL ^ ((uint64_t)arity_ << 32) ^ num_rows_;
    for (size_t r = 0; r < num_rows_; ++r)
      for (int c = 0; c < arity_; ++c)
        h = (h ^ MixHash(cols_[c][r] + (uint64_t)c)) * 0x100000001b3ULL;
    content_hash_ = h;
  });
  return content_hash_;
}

size_t Relation::BaseBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& c : cols_) bytes += c.capacity() * sizeof(Value);
  for (const auto& d : active_domains_) bytes += d.capacity() * sizeof(Value);
  return bytes;
}

size_t Relation::IndexBytes() const {
  size_t bytes = 0;
  std::lock_guard<std::mutex> lock(index_mu_);
  for (const auto& [perm, slot] : index_cache_)
    if (slot->ready.load(std::memory_order_acquire))
      bytes += slot->index->MemoryBytes();
  return bytes;
}

}  // namespace cqc
