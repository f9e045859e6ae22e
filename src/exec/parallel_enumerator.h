// Shard-parallel enumeration over any TupleEnumerator family.
//
// A ParallelEnumerator drains K disjoint shards of an output space
// concurrently on a small work-stealing thread pool and re-exposes the
// result as one ordinary pull-based TupleEnumerator, so every existing
// consumer (CollectAll, DrainBatched, the CLI print loop, the bench
// harness) parallelizes without change. Producers fill fixed-size
// TupleBuffer chunks through the batch API (TupleEnumerator::NextBatch) —
// tuples cross threads in flat cache-friendly blocks, never one at a time.
//
// Two delivery modes:
//   * ordered (default): chunks are handed out shard 0 first, then shard 1,
//     ... — when the shards are a ShardPlan's lex ranges this reproduces
//     the sequential enumeration byte for byte while later shards are
//     produced in the background;
//   * unordered: chunks are handed out as they are produced (highest
//     throughput; the multiset of tuples is identical).
//
// Backpressure: each shard may hold at most options.max_chunks_per_shard
// finished chunks (ordered mode; one global bound of the same total size in
// unordered mode). Producers park on a condition variable when their bound
// is hit, so memory stays O(shards * chunk) even when the consumer is slow.
// The ordered bound is deliberately per shard: the consumer always drains
// the currently-front shard, so that shard's producer can always make
// progress — a single global bound could fill up with later shards' chunks
// and deadlock against a consumer waiting on the front shard.
//
// Destroying the enumerator early (consumer abandons the stream) cancels
// the producers at their next chunk boundary and joins the pool.
#ifndef CQC_EXEC_PARALLEL_ENUMERATOR_H_
#define CQC_EXEC_PARALLEL_ENUMERATOR_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/enumerator.h"
#include "exec/thread_pool.h"
#include "query/adorned_view.h"
#include "util/tuple_buffer.h"

namespace cqc {

class CompressedRep;
class DecomposedRep;

struct ParallelOptions {
  /// Worker threads; 0 = ThreadPool::DefaultThreadCount().
  int num_threads = 0;
  /// Shards to plan; 0 = kShardsPerThread * threads (see shard_planner.h
  /// for the heuristic). Planners may return fewer.
  size_t num_shards = 0;
  /// Ordered (sequential-identical) vs unordered (fastest) delivery.
  bool ordered = true;
  /// Tuples per producer chunk: the cross-thread transfer granularity.
  size_t batch_size = 1024;
  /// Finished chunks a shard may buffer before its producer blocks.
  size_t max_chunks_per_shard = 8;
  /// Optional deadline/cancellation context, polled by every shard
  /// producer at chunk boundaries (amortized O(1)). Not owned; must
  /// outlive the enumerator. See util/request_context.h.
  const RequestContext* ctx = nullptr;
};

class ParallelEnumerator : public TupleEnumerator {
 public:
  /// Builds the enumerator for shard `k` (called on a worker thread; must
  /// be thread-safe for concurrent calls with distinct k).
  using ShardFactory =
      std::function<std::unique_ptr<TupleEnumerator>(size_t)>;

  /// Starts draining `num_shards` shards immediately. `arity` is the tuple
  /// arity of every shard stream.
  ParallelEnumerator(ShardFactory factory, size_t num_shards, int arity,
                     ParallelOptions options);
  ~ParallelEnumerator() override;

  ParallelEnumerator(const ParallelEnumerator&) = delete;
  ParallelEnumerator& operator=(const ParallelEnumerator&) = delete;

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override;

  /// OK, or why the stream was cut short: the first shard-producer fault
  /// (contained exception / fired failpoint → kUnavailable) or the
  /// options.ctx deadline/cancellation. Buffered chunks of other shards
  /// still drain, so a fault truncates rather than empties the stream —
  /// callers must treat a non-OK StreamStatus as "result incomplete".
  Status StreamStatus() const override;

 private:
  struct ShardState {
    std::deque<TupleBuffer> chunks;  // finished, not yet consumed
    bool done = false;               // producer finished this shard
  };

  void ProduceShard(size_t shard);
  /// The chunk-production loop; its Status is recorded by ProduceShard.
  Status DrainShard(size_t shard);
  /// Moves the next chunk (respecting the mode) into current_; false when
  /// every shard is exhausted and drained.
  bool FetchChunk();

  ShardFactory factory_;
  const ParallelOptions options_;

  mutable std::mutex mu_;
  std::condition_variable produced_cv_;  // consumer waits for chunks
  std::condition_variable space_cv_;     // producers wait for room
  std::vector<ShardState> shards_;
  std::deque<TupleBuffer> unordered_ready_;  // unordered mode spool
  size_t unordered_done_ = 0;                // shards finished (unordered)
  size_t front_shard_ = 0;                   // ordered-mode consume cursor
  bool cancel_ = false;
  Status status_;  // first producer fault / deadline (guarded by mu_)

  TupleBuffer current_;  // chunk being handed to the consumer
  size_t read_pos_ = 0;  // tuples of current_ already consumed

  ThreadPool pool_;  // declared last: joins before state is destroyed
};

/// Shard-parallel Answer for the Theorem 1 structure: plans lex ranges with
/// ShardPlanner and drains them via AnswerRange. Ordered mode reproduces
/// rep.Answer(vb) exactly; unordered mode the same multiset. Boolean views
/// (num_free == 0) fall back to the sequential enumerator.
std::unique_ptr<TupleEnumerator> ParallelAnswer(const CompressedRep& rep,
                                                const BoundValuation& vb,
                                                ParallelOptions options = {});

/// Shard-parallel Answer for the Theorem 2 structure: shards are residue
/// classes of the first bag's tuple stream (AnswerShard), so delivery is
/// always unordered — the multiset matches rep.Answer(vb); the Algorithm 5
/// order is not preserved across shards.
std::unique_ptr<TupleEnumerator> ParallelAnswer(const DecomposedRep& rep,
                                                const BoundValuation& vb,
                                                ParallelOptions options = {});

}  // namespace cqc

#endif  // CQC_EXEC_PARALLEL_ENUMERATOR_H_
