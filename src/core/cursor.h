// Resumable enumeration cursors.
//
// An EnumerationCursor is the serializable position of a tuple stream: how
// many tuples were emitted, the last tuple emitted, and the (inclusive)
// upper bound of the lex range being enumerated. It deliberately stores the
// *logical* position instead of raw machine state (tree path indices,
// JoinIterator range offsets): because every answering path enumerates a
// deterministic order, the last emitted tuple uniquely determines the tree
// path, the per-level dictionary candidate offsets, and the per-level join
// positions, and the resuming enumerator re-derives all of them in
// O(depth + delay). That makes a cursor stable across processes, across
// threads, and across a serialization round trip of the representation
// itself (the structural ids a raw-state cursor would pin are exactly what
// a re-load is free to reshuffle).
//
// Two resume strategies exist:
//   * lex-ordered streams (CompressedRep / Algorithm 2, DirectEval):
//     resume = range-restricted enumeration over [succ(last), range_hi] —
//     O(delay) to the first resumed tuple (CompressedRep::Resume).
//   * arbitrary deterministic streams (DecomposedRep / Algorithm 5):
//     resume = re-create and skip `emitted` tuples (SkipTuples) — O(emitted)
//     work but no per-structure machinery.
#ifndef CQC_CORE_CURSOR_H_
#define CQC_CORE_CURSOR_H_

#include <memory>
#include <string>

#include "core/enumerator.h"
#include "util/common.h"
#include "util/status.h"
#include "util/tuple_buffer.h"

namespace cqc {

struct EnumerationCursor {
  /// Tuples emitted before the pause.
  uint64_t emitted = 0;
  /// The stream reported exhaustion; resuming yields nothing.
  bool exhausted = false;
  /// `last` is valid (false until the first tuple is emitted).
  bool has_last = false;
  /// The last emitted tuple (free-variable order).
  Tuple last;
  /// Inclusive bounds of the lex range the stream enumerates; empty = the
  /// full domain (only meaningful for lex-ordered streams). `range_lo`
  /// matters when the stream pauses before its first tuple (has_last is
  /// false): resuming must start at the range's own lower bound, not the
  /// domain minimum — otherwise a shard cursor checkpointed at zero
  /// tuples would replay every earlier shard's output.
  Tuple range_lo;
  Tuple range_hi;

  /// Versioned little-endian byte encoding (magic CQCCUR01).
  std::string Serialize() const;
  /// Rejects wrong magic, truncation, and oversized length fields with a
  /// Status error (never crashes on corrupt input).
  static Result<EnumerationCursor> Deserialize(const std::string& bytes);

  bool operator==(const EnumerationCursor&) const = default;
};

/// Wraps any enumerator and tracks the cursor as tuples flow through, so a
/// consumer can pause at an arbitrary tuple and hand the position to
/// another thread or process. Adds one tuple copy per batch (the last one).
class CursorEnumerator : public TupleEnumerator {
 public:
  /// `range_lo` / `range_hi` (optional) record the stream's inclusive lex
  /// bounds in the cursor, so a resumed enumeration starts and stops at
  /// the same shard boundaries (pass the shard's FInterval endpoints when
  /// wrapping an AnswerRange stream).
  explicit CursorEnumerator(std::unique_ptr<TupleEnumerator> inner,
                            Tuple range_lo = {}, Tuple range_hi = {})
      : TupleEnumerator(inner->arity()), inner_(std::move(inner)) {
    cursor_.range_lo = std::move(range_lo);
    cursor_.range_hi = std::move(range_hi);
  }

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    const size_t n = inner_->NextBatch(out, max_tuples);
    if (n > 0) {
      cursor_.emitted += n;
      cursor_.has_last = true;
      cursor_.last = (*out)[out->size() - 1].ToTuple();
    }
    if (n < max_tuples) cursor_.exhausted = true;
    return n;
  }

  const EnumerationCursor& cursor() const { return cursor_; }

 private:
  std::unique_ptr<TupleEnumerator> inner_;
  EnumerationCursor cursor_;
};

/// Drains and discards `n` tuples; returns how many were actually skipped
/// (< n iff the stream ran out). The generic resume path for streams
/// without lex-range support.
size_t SkipTuples(TupleEnumerator& e, int arity, uint64_t n);

}  // namespace cqc

#endif  // CQC_CORE_CURSOR_H_
