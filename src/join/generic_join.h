// Streaming worst-case optimal join (Generic Join / leapfrog-style).
//
// This is the paper's evaluation substrate: Proposition 6 computes the join
// restricted to an f-box in time T(v, B) with a worst-case optimal
// algorithm, and Algorithm 2 streams those joins box by box. The iterator
// eliminates one join variable per level, intersecting the participating
// atoms' sorted trie ranges by mutual leapfrogging (seek to max, repeat),
// which costs O~(min-range) per emitted value — the standard WCOJ bound.
//
// Outputs are emitted in ascending lexicographic order of the join-level
// values, which is exactly the enumeration order Theorem 1 promises.
#ifndef CQC_JOIN_GENERIC_JOIN_H_
#define CQC_JOIN_GENERIC_JOIN_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/enumerator.h"
#include "core/finterval.h"
#include "relational/sorted_index.h"
#include "util/common.h"
#include "util/tuple_buffer.h"

namespace cqc {

/// Per-join-level value constraint (an f-box dimension).
struct LevelConstraint {
  FBoxDim::Kind kind = FBoxDim::kAny;
  Value lo = kBottom;
  Value hi = kTop;

  static LevelConstraint FromDim(const FBoxDim& d) {
    return {d.kind, d.lo, d.hi};
  }
  static LevelConstraint Any() { return {}; }
  static LevelConstraint Unit(Value v) { return {FBoxDim::kUnit, v, v}; }
};

/// One atom's participation in a join.
struct JoinAtomInput {
  const SortedIndex* index = nullptr;
  /// Trie range after pre-binding (e.g. the bound-variable prefix).
  RowRange start;
  /// First trie level not consumed by pre-binding.
  int start_level = 0;
  /// (join level, trie level) pairs, both strictly ascending. Trie levels
  /// past the last pair are left unconstrained. May be empty: the atom then
  /// acts as a pure existence filter (empty start range kills the join).
  std::vector<std::pair<int, int>> levels;
};

class JoinIterator {
 public:
  /// `constraints` has one entry per join level. Every join level must have
  /// at least one participating atom.
  JoinIterator(std::vector<JoinAtomInput> atoms, int num_levels,
               std::vector<LevelConstraint> constraints);

  /// Borrowing variant: `atoms` must outlive the iterator. The hot callers
  /// (Algorithm 2 box streaming, dictionary probes) build the atom inputs
  /// once per request and re-run the join per f-box via ResetToBox(),
  /// paying no per-box allocation.
  JoinIterator(const std::vector<JoinAtomInput>* atoms, int num_levels,
               std::vector<LevelConstraint> constraints);

  /// Rewinds the iterator to run again from the same atom inputs, restricted
  /// to `box` (box.mu() == num_levels). Reuses every internal buffer.
  ///
  /// Each level keeps its current run while the runs above it are
  /// unchanged, and a fresh seek whose target is >= that run's value starts
  /// from the run instead of the parent's first row. A stream of boxes in
  /// ascending lex order (Algorithm 2's in-order walk, a Lemma 1
  /// decomposition) therefore moves one cursor forward through the tries;
  /// a backward jump simply seeks from the parent again.
  void ResetToBox(const FBox& box);

  /// Emits the next result into `out` (resized to num_levels). Returns
  /// false when exhausted. Results come in ascending lexicographic order.
  bool Next(Tuple* out);

  /// Batch emission: appends up to `max_tuples` results to `out` (arity
  /// num_levels; not cleared) and returns the count; < max_tuples means
  /// exhausted. Shares the stream with Next(). A call that starts on a
  /// match resumes the deepest-level scan inline, so max_tuples = 1 costs
  /// one scan step rather than a re-seek. Beyond skipping the
  /// per-tuple copy, the deepest level is drained by a direct scan: a
  /// single participant's sorted column is walked run by run, and multiple
  /// participants (cyclic queries — triangle, Loomis–Whitney) are merged
  /// k ways over their raw columns, stepping inline and galloping only when
  /// a cursor falls behind — either way no per-tuple re-seek through the
  /// full leapfrog machinery.
  size_t NextBatch(TupleBuffer* out, size_t max_tuples);

 private:
  struct Participant {
    int atom;        // index into atoms_
    int trie_level;  // level within the atom's trie
    int depth;       // how many of the atom's join levels precede this one
  };

  // Seeks the smallest value >= `from` at `level` present in all
  // participants and allowed by the constraint; on success records the
  // refined ranges and the value. Returns false if none exists. Each
  // participant's search starts from the level's current run when that run
  // is still valid (level < valid_levels_) and `from` is not below its
  // value: past the run when `from` exceeds it, and with no search at all
  // when the run is the answer. Sequential seeks then gallop O(1) instead
  // of searching the parent range from its first row.
  bool SeekLevel(int level, Value from);

  // Smallest admissible start value for `level`.
  Value LevelStart(int level) const;

  // Positions the iterator on the next full match (values_ holds it).
  // Returns false when exhausted.
  bool AdvanceToMatch();

  // Fast path for NextBatch: with the iterator positioned on a match,
  // emits further matches that differ only in the last level. One
  // participant: a straight run-scan of its sorted column. Several
  // participants (cyclic deepest level): a k-way merge over their raw
  // columns. Returns the number emitted. values_ always reflects the last
  // emitted tuple; a merge leaves its runs in scan_ (scan_live_) until
  // AdvanceToMatch writes them back to range_stack_.
  size_t ScanLastLevel(TupleBuffer* out, size_t max_tuples);

  const std::vector<JoinAtomInput>& atoms() const { return *atoms_; }

  // Either owns the inputs (owned_atoms_, atoms_ points at it) or borrows
  // a caller-owned vector.
  std::unique_ptr<const std::vector<JoinAtomInput>> owned_atoms_;
  const std::vector<JoinAtomInput>* atoms_ = nullptr;
  int num_levels_;
  std::vector<LevelConstraint> constraints_;
  std::vector<std::vector<Participant>> participants_;  // per level
  // range_stack_[a][d] = trie range of atom a after refining d of its join
  // levels (d = 0 is the start range).
  std::vector<std::vector<RowRange>> range_stack_;
  std::vector<Value> values_;  // current value per join level
  // Levels [0, valid_levels_) hold a current run: values_[l] and each
  // participant's range_stack_ entry below level l describe a run inside
  // the current parent ranges. A new run at level l invalidates every
  // deeper level; ResetToBox() keeps them all.
  int valid_levels_ = 0;
  // Scratch: per-participant search cursor of the level being sought
  // (everything before seek_pos_[i] is known < the current target value).
  std::vector<size_t> seek_pos_;
  // The deepest level's participants, resolved once at construction: each
  // one's sorted column and the addresses of its run and parent range in
  // range_stack_, so resuming a scan costs a few loads. pos/end/run_* are
  // the merge's cursor state.
  struct ScanCursor {
    const Value* col = nullptr;
    RowRange* run = nullptr;
    const RowRange* parent = nullptr;
    size_t pos = 0;        // next unread row
    size_t end = 0;        // parent range end
    size_t run_begin = 0;  // run of the last emitted value
    size_t run_end = 0;
  };
  std::vector<ScanCursor> scan_;
  bool scan_live_ = false;  // scan_ runs not yet in range_stack_
  bool started_ = false;
  bool done_ = false;
  bool empty_atom_ = false;  // some existence filter failed up front
};

/// Streams a worst-case-optimal join over a sequence of f-boxes: one
/// JoinIterator run per box, restarted via ResetToBox(), outputs in
/// ascending lex order when the boxes are (Lemma 1 decompositions are).
/// This is the range-restriction primitive for join-backed enumerators:
/// BoxDecompose a lex interval, hand the boxes here, and the stream is the
/// full join clipped to that interval — the direct-eval counterpart of the
/// clipped Algorithm 2 traversal, and the per-shard worker for parallel
/// enumeration over baselines.
class BoxJoinEnumerator : public TupleEnumerator {
 public:
  /// `num_levels` is the join arity; every box must have that many dims.
  BoxJoinEnumerator(std::vector<JoinAtomInput> atoms, int num_levels,
                    std::vector<FBox> boxes);

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override;

 private:
  // Starts the join for boxes_[box_idx_]; false when every box is done.
  bool AdvanceBox();

  std::vector<JoinAtomInput> atoms_;  // owned; joins borrow via pointer
  int num_levels_;
  std::vector<FBox> boxes_;
  size_t box_idx_ = 0;
  std::optional<JoinIterator> join_;  // reused across boxes
  bool active_ = false;
};

/// Scans rows [range) of a sorted index, emitting columns [from_level,
/// to_level) of each row: the answer stream of a structure that stores its
/// result as one sorted index (a materialized view, a materialized bag).
class RangeScanEnumerator : public TupleEnumerator {
 public:
  RangeScanEnumerator(const SortedIndex* index, RowRange range,
                      int from_level, int to_level)
      : TupleEnumerator(to_level - from_level),
        index_(index),
        range_(range),
        from_(from_level),
        to_(to_level),
        row_(range.begin) {}

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override;

 private:
  const SortedIndex* index_;
  RowRange range_;
  int from_, to_;
  size_t row_;
};

}  // namespace cqc

#endif  // CQC_JOIN_GENERIC_JOIN_H_
