// Set-semantics relation with columnar storage.
//
// Relations are immutable once Seal()ed: construction bulk-loads tuples,
// Seal() sorts, deduplicates, and computes per-column active domains.
// Point membership (Contains) searches the sealed columns themselves, which
// are lex-sorted in identity column order, so it needs no index. Lex-range
// iteration and the counting oracle use SortedIndexes
// (relational/sorted_index.h) over arbitrary column permutations, built
// lazily and cached on the relation. The cache is guarded so concurrent
// readers (parallel enumeration, parallel rep builds) can trigger
// first-use builds safely; an index is built exactly once and immutable
// afterwards.
#ifndef CQC_RELATIONAL_RELATION_H_
#define CQC_RELATIONAL_RELATION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.h"

namespace cqc {

class SortedIndex;

/// A named relation of fixed arity holding a set of tuples.
class Relation {
 public:
  Relation(std::string name, int arity);
  ~Relation();

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const std::string& name() const { return name_; }
  int arity() const { return arity_; }

  /// Number of tuples. Valid only after Seal().
  size_t size() const { return num_rows_; }
  bool sealed() const { return sealed_; }

  /// Appends a tuple (pre-seal only). `t.size()` must equal arity().
  void Insert(const Tuple& t);
  /// Appends a tuple given as a pointer to `arity()` values (pre-seal only).
  void InsertRow(const Value* row);

  /// Sorts, deduplicates and freezes the relation; computes active domains.
  void Seal();

  /// Value at (row, col). Valid only after Seal().
  Value At(size_t row, int col) const;

  /// Raw post-seal column storage (num rows values, row-sorted). The
  /// pointer is stable for the relation's lifetime.
  const Value* ColumnData(int col) const { return cols_[col].data(); }

  /// The sorted distinct values appearing in column `col`.
  const std::vector<Value>& ActiveDomain(int col) const;

  /// Returns (building and caching on first use) the index that stores the
  /// tuples sorted lexicographically by the column order `perm`. `perm` must
  /// be a permutation of {0..arity-1}. Thread-safe: concurrent callers for
  /// the same perm share one build; distinct perms build concurrently.
  const SortedIndex& GetIndex(const std::vector<int>& perm) const;

  /// True iff the tuple (given in schema column order) is present. The
  /// only point-membership path: one equal-range search per column over
  /// the sealed, lex-sorted columns, O(arity * log N), with no index and
  /// no lazy state. Accepts any span view (Tuple converts implicitly) — no
  /// materialization.
  bool Contains(TupleSpan t) const;

  /// Order-insensitive 64-bit digest of the relation's content (rows are
  /// canonically sorted after Seal, so this identifies the tuple set).
  /// Used by serialization fingerprints. Valid only after Seal(); computed
  /// once on first use and cached (content is immutable post-Seal).
  uint64_t ContentHash() const;

  /// Approximate heap footprint of base data (excludes cached indexes).
  size_t BaseBytes() const;
  /// Approximate heap footprint of all cached sorted indexes.
  size_t IndexBytes() const;

 private:
  // A lazily-built sorted index: the map entry is created under the cache
  // mutex, the (expensive) build runs outside it exactly once. `ready`
  // (release after the build, acquire by stats readers) lets IndexBytes
  // observe finished builds without touching the once_flag.
  struct IndexSlot {
    std::once_flag once;
    std::unique_ptr<SortedIndex> index;
    std::atomic<bool> ready{false};
  };

  std::string name_;
  int arity_;
  bool sealed_ = false;
  size_t num_rows_ = 0;
  // Pre-seal staging: row-major buffer. Post-seal: empty.
  std::vector<Value> staging_;
  // Post-seal: column-major storage, rows sorted by identity permutation.
  std::vector<std::vector<Value>> cols_;
  std::vector<std::vector<Value>> active_domains_;
  mutable std::mutex index_mu_;  // guards the cache map shape only
  mutable std::map<std::vector<int>, std::shared_ptr<IndexSlot>> index_cache_;
  mutable std::once_flag content_hash_once_;
  mutable uint64_t content_hash_ = 0;
};

}  // namespace cqc

#endif  // CQC_RELATIONAL_RELATION_H_
