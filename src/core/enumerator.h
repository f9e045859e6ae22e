// Pull-based tuple enumeration.
//
// Every answering path in the library (Theorem 1, Theorem 2, both
// baselines) yields results through this interface so the harness can
// measure delay — the maximum time (or operation count) between two
// consecutive outputs — exactly as §2.3 defines it.
//
// A stream has one producer: NextBatch() is the only stream virtual, and
// the single-tuple Next() is NextBatch(…, 1) into the caller's tuple. So
// the delay of a Next() call is exactly the work of producing one tuple,
// and the two pulls can never diverge.
#ifndef CQC_CORE_ENUMERATOR_H_
#define CQC_CORE_ENUMERATOR_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "util/common.h"
#include "util/hashing.h"
#include "util/op_counter.h"
#include "util/request_context.h"
#include "util/timer.h"
#include "util/tuple_arena.h"
#include "util/tuple_buffer.h"

namespace cqc {

class TupleEnumerator {
 public:
  /// `arity` is the width of every tuple the stream yields.
  explicit TupleEnumerator(int arity) : arity_(arity) {}
  virtual ~TupleEnumerator() = default;

  int arity() const { return arity_; }

  /// Batch pull: appends up to `max_tuples` tuples to `out` (which must have
  /// the stream's arity; it is NOT cleared) and returns how many were
  /// appended. A return < max_tuples means the stream is exhausted.
  virtual size_t NextBatch(TupleBuffer* out, size_t max_tuples) = 0;

  /// Writes the next tuple into `out`; returns false when exhausted. Shares
  /// the stream with NextBatch(): mixing the two never duplicates or drops
  /// tuples. The one-tuple batch is `out`'s own storage, so the producer
  /// writes the tuple in place and nothing is copied.
  bool Next(Tuple* out) {
    out->resize(arity_);
    TupleBuffer one(arity_, out->data());
    if (NextBatch(&one, 1) == 0) return false;
    CQC_DCHECK(one.data() == out->data());  // a one-tuple batch never grows
    return true;
  }

  /// Streaming error channel. Next/NextBatch report exhaustion by bool /
  /// short batch only, so a stream cut short by a fault (expired deadline,
  /// cancellation, failed shard producer) looks exhausted; callers that
  /// care poll this after the stream ends. OK means the stream is live or
  /// genuinely exhausted.
  virtual Status StreamStatus() const { return Status::Ok(); }

 private:
  int arity_;
};

/// An enumerator over an empty result.
class EmptyEnumerator : public TupleEnumerator {
 public:
  explicit EmptyEnumerator(int arity) : TupleEnumerator(arity) {}
  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    return 0;
  }
};

/// An enumerator over a fixed list of tuples, each of width `arity`.
class VectorEnumerator : public TupleEnumerator {
 public:
  VectorEnumerator(int arity, std::vector<Tuple> tuples)
      : TupleEnumerator(arity), tuples_(std::move(tuples)) {}
  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    size_t n = 0;
    while (n < max_tuples && pos_ < tuples_.size()) {
      out->Append(tuples_[pos_++]);
      ++n;
    }
    return n;
  }

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

/// Wraps a tuple stream with amortized-O(1) RequestContext polling.
///
/// NextBatch has no error channel (a count only), so deadline expiry and
/// cancellation surface out-of-band: the stream ends early (a short batch)
/// and `status()` reports why. Callers that thread a context check
/// `status()` after the stream ends; callers that don't see a normal
/// exhausted stream.
///
/// Poll cadence: once per NextBatch call, whatever the batch size — one
/// steady_clock read amortized over a batch of work, which keeps the
/// overhead inside the bench gate for batched drains while still honoring
/// "stops within one batch of work". A Next is a one-tuple batch, so a
/// caller that pulls a wrapped stream one tuple at a time pays a clock read
/// per tuple (see docs/robustness.md); the library's own consumers drain in
/// batches.
class DeadlineCheckedEnumerator : public TupleEnumerator {
 public:
  /// `ctx` may be null (wrapper becomes pass-through). Does not own it.
  DeadlineCheckedEnumerator(std::unique_ptr<TupleEnumerator> inner,
                            const RequestContext* ctx)
      : TupleEnumerator(inner->arity()), inner_(std::move(inner)), ctx_(ctx) {}

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    if (stopped_) return 0;
    if (ctx_ != nullptr && !Poll()) return 0;
    return inner_->NextBatch(out, max_tuples);
  }

  /// OK while the stream is live or genuinely exhausted; kCancelled /
  /// kDeadlineExceeded if it was cut short.
  const Status& status() const { return status_; }

  Status StreamStatus() const override {
    // A deadline hit here wins; otherwise surface whatever cut the inner
    // stream short (e.g. a failed shard producer).
    return status_.ok() ? inner_->StreamStatus() : status_;
  }

 private:
  bool Poll() {
    Status s = ctx_->Check();
    if (s.ok()) return true;
    status_ = std::move(s);
    stopped_ = true;
    return false;
  }

  std::unique_ptr<TupleEnumerator> inner_;
  const RequestContext* ctx_;
  Status status_;
  bool stopped_ = false;
};

/// Drains an enumerator into a vector.
inline std::vector<Tuple> CollectAll(TupleEnumerator& e) {
  std::vector<Tuple> out;
  Tuple t;
  while (e.Next(&t)) out.push_back(t);
  return out;
}

/// Drains an enumerator through the batch API into a flat buffer. `arity`
/// must be the stream's tuple arity (for an adorned view: num_free()).
inline TupleBuffer CollectAllBatched(TupleEnumerator& e, int arity,
                                     size_t batch_size = 256) {
  TupleBuffer out(arity);
  while (e.NextBatch(&out, batch_size) == batch_size) {
  }
  return out;
}

/// Counts an enumerator's remaining tuples via the batch API, reusing one
/// buffer (the fastest way to drain when the tuples themselves are not
/// needed — benchmarks and existence sweeps).
inline size_t DrainBatched(TupleEnumerator& e, int arity,
                           size_t batch_size = 256) {
  TupleBuffer buf(arity);
  size_t total = 0;
  for (;;) {
    buf.Clear();
    size_t n = e.NextBatch(&buf, batch_size);
    total += n;
    if (n < batch_size) return total;
  }
}

/// Projection with duplicate elimination — the paper's §3.2/§8 projection
/// extension in its simple form: project each output onto `positions` and
/// emit each distinct projection once. Correct for any inner enumerator;
/// the O~(tau) delay guarantee does NOT carry over (runs of tuples sharing
/// a projection are skipped), which is exactly the open problem the paper
/// defers. Memory grows with the number of distinct projections.
class ProjectingEnumerator : public TupleEnumerator {
 public:
  ProjectingEnumerator(std::unique_ptr<TupleEnumerator> inner,
                       std::vector<int> positions)
      : TupleEnumerator((int)positions.size()),
        inner_(std::move(inner)),
        positions_(std::move(positions)),
        scratch_(positions_.size()),
        block_(inner_->arity()) {}

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    size_t emitted = 0;
    while (emitted < max_tuples) {
      // Each inner tuple yields at most one output, so pulling only what
      // is still wanted never runs the inner stream ahead of this one.
      const size_t want = max_tuples - emitted;
      block_.Clear();
      const size_t got = inner_->NextBatch(&block_, want);
      for (size_t r = 0; r < got; ++r) {
        const TupleSpan t = block_[r];
        for (size_t i = 0; i < positions_.size(); ++i)
          scratch_[i] = t[positions_[i]];
        if (!InsertDistinct(scratch_)) continue;
        out->Append(scratch_);
        ++emitted;
      }
      if (got < want) break;
    }
    return emitted;
  }

 private:
  // Interns `proj` into the arena-backed dedup set; true if it was new.
  bool InsertDistinct(const Tuple& proj) {
    if (seen_.count(proj)) return false;
    seen_.insert(arena_.Copy(proj));
    return true;
  }

  std::unique_ptr<TupleEnumerator> inner_;
  std::vector<int> positions_;
  Tuple scratch_;
  TupleBuffer block_;  // the inner tuples of one pull
  // Distinct projections, each stored once in the arena; the set holds
  // views, so dedup costs one hash probe and no per-tuple allocation.
  TupleArena arena_;
  std::unordered_set<TupleSpan, SpanHash, SpanEq> seen_;
};

/// Per-access-request measurement: total answer time, output count, and the
/// worst observed delay in both wall-clock time and abstract operations
/// (index probes / join steps; see util/op_counter.h). The "delay" includes
/// the time to the first tuple and the time to detect exhaustion, matching
/// the paper's definition.
struct DelayProfile {
  size_t num_tuples = 0;
  double total_seconds = 0;
  double max_delay_seconds = 0;
  uint64_t total_ops = 0;
  uint64_t max_delay_ops = 0;
};

inline DelayProfile MeasureEnumeration(TupleEnumerator& e,
                                       std::vector<Tuple>* sink = nullptr) {
  DelayProfile p;
  WallTimer total;
  WallTimer gap;
  uint64_t ops_start = ops::Now();
  uint64_t gap_ops = ops_start;
  Tuple t;
  for (;;) {
    bool more = e.Next(&t);
    double d = gap.Seconds();
    uint64_t o = ops::Now() - gap_ops;
    p.max_delay_seconds = std::max(p.max_delay_seconds, d);
    p.max_delay_ops = std::max(p.max_delay_ops, o);
    if (!more) break;
    ++p.num_tuples;
    if (sink) sink->push_back(t);
    gap.Reset();
    gap_ops = ops::Now();
  }
  p.total_seconds = total.Seconds();
  p.total_ops = ops::Now() - ops_start;
  return p;
}

/// Batched counterpart of MeasureEnumeration: drains through NextBatch and
/// records the worst per-batch gap (the batch contract trades per-tuple
/// delay for throughput, so the "delay" here is time between batches).
inline DelayProfile MeasureEnumerationBatched(
    TupleEnumerator& e, int arity, size_t batch_size = 256,
    std::vector<Tuple>* sink = nullptr) {
  DelayProfile p;
  WallTimer total;
  WallTimer gap;
  uint64_t ops_start = ops::Now();
  uint64_t gap_ops = ops_start;
  TupleBuffer buf(arity);
  for (;;) {
    buf.Clear();
    size_t n = e.NextBatch(&buf, batch_size);
    double d = gap.Seconds();
    uint64_t o = ops::Now() - gap_ops;
    p.max_delay_seconds = std::max(p.max_delay_seconds, d);
    p.max_delay_ops = std::max(p.max_delay_ops, o);
    p.num_tuples += n;
    if (sink)
      for (size_t i = 0; i < n; ++i) sink->push_back(buf[i].ToTuple());
    if (n < batch_size) break;
    gap.Reset();
    gap_ops = ops::Now();
  }
  p.total_seconds = total.Seconds();
  p.total_ops = ops::Now() - ops_start;
  return p;
}

}  // namespace cqc

#endif  // CQC_CORE_ENUMERATOR_H_
