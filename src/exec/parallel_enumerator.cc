#include "exec/parallel_enumerator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/compressed_rep.h"
#include "core/shard_planner.h"
#include "decomposition/decomposed_rep.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace cqc {
namespace {

int ResolveThreads(const ParallelOptions& options) {
  return options.num_threads > 0 ? options.num_threads
                                 : ThreadPool::DefaultThreadCount();
}

size_t ResolveShards(const ParallelOptions& options, int threads) {
  return options.num_shards > 0 ? options.num_shards
                                : kShardsPerThread * (size_t)threads;
}

}  // namespace

ParallelEnumerator::ParallelEnumerator(ShardFactory factory,
                                       size_t num_shards, int arity,
                                       ParallelOptions options)
    : TupleEnumerator(arity),
      factory_(std::move(factory)),
      options_(options),
      shards_(num_shards),
      current_(arity),
      pool_(ResolveThreads(options)) {
  CQC_CHECK(factory_ != nullptr);
  CQC_CHECK_GT(options_.batch_size, 0u);
  CQC_CHECK_GT(options_.max_chunks_per_shard, 0u);
  for (size_t s = 0; s < num_shards; ++s)
    pool_.Submit([this, s] { ProduceShard(s); });
}

ParallelEnumerator::~ParallelEnumerator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    cancel_ = true;
  }
  space_cv_.notify_all();
  pool_.WaitIdle();
  // pool_ (declared last) joins its workers on destruction.
}

void ParallelEnumerator::ProduceShard(size_t shard) {
  // Containment wrapper: whatever DrainShard does — throw (a buggy shard
  // enumerator, an injected exception), hit the deadline, or finish — the
  // shard is marked done and the consumer woken. A producer that died
  // without this would leave FetchChunk waiting forever.
  Status s;
  try {
    failpoint::MaybeThrow("parallel/produce");
    s = DrainShard(shard);
  } catch (const std::exception& e) {
    s = Status::Unavailable(std::string("shard producer failed: ") +
                            e.what());
  } catch (...) {
    s = Status::Unavailable("shard producer failed: non-standard exception");
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!s.ok() && status_.ok()) status_ = std::move(s);
  shards_[shard].done = true;
  ++unordered_done_;
  produced_cv_.notify_all();
}

Status ParallelEnumerator::DrainShard(size_t shard) {
  {
    // A task that starts after the consumer abandoned the stream skips the
    // enumerator construction and batch work entirely.
    std::lock_guard<std::mutex> lk(mu_);
    if (cancel_) return Status::Ok();
  }
  if (Status s = RequestContext::Check(options_.ctx); !s.ok()) return s;
  std::unique_ptr<TupleEnumerator> e = factory_(shard);
  CQC_CHECK(e != nullptr);
  const size_t batch = options_.batch_size;
  // In unordered mode all shards share one spool with a proportional total
  // bound; in ordered mode every shard buffers independently (see header).
  const size_t cap = options_.max_chunks_per_shard *
                     (options_.ordered ? 1 : shards_.size());
  for (;;) {
    TupleBuffer buf(arity());
    buf.Reserve(batch);
    const size_t n = e->NextBatch(&buf, batch);
    const bool exhausted = n < batch;
    if (n > 0) {
      std::unique_lock<std::mutex> lk(mu_);
      if (options_.ordered) {
        ShardState& st = shards_[shard];
        space_cv_.wait(lk, [&] {
          return cancel_ || st.chunks.size() < cap;
        });
        if (cancel_) return Status::Ok();
        st.chunks.push_back(std::move(buf));
      } else {
        space_cv_.wait(lk, [&] {
          return cancel_ || unordered_ready_.size() < cap;
        });
        if (cancel_) return Status::Ok();
        unordered_ready_.push_back(std::move(buf));
      }
      produced_cv_.notify_all();
    }
    if (exhausted) return e->StreamStatus();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (cancel_) return Status::Ok();
    }
    // Per-chunk deadline poll: one check per batch_size tuples produced.
    if (Status s = RequestContext::Check(options_.ctx); !s.ok()) return s;
  }
}

Status ParallelEnumerator::StreamStatus() const {
  std::lock_guard<std::mutex> lk(mu_);
  return status_;
}

bool ParallelEnumerator::FetchChunk() {
  std::unique_lock<std::mutex> lk(mu_);
  if (options_.ordered) {
    for (;;) {
      if (front_shard_ == shards_.size()) return false;
      ShardState& st = shards_[front_shard_];
      produced_cv_.wait(lk, [&] { return !st.chunks.empty() || st.done; });
      if (!st.chunks.empty()) {
        current_ = std::move(st.chunks.front());
        st.chunks.pop_front();
        read_pos_ = 0;
        space_cv_.notify_all();
        return true;
      }
      ++front_shard_;  // done and drained: move to the next lex range
    }
  }
  produced_cv_.wait(lk, [&] {
    return !unordered_ready_.empty() || unordered_done_ == shards_.size();
  });
  if (unordered_ready_.empty()) return false;
  current_ = std::move(unordered_ready_.front());
  unordered_ready_.pop_front();
  read_pos_ = 0;
  space_cv_.notify_all();
  return true;
}

size_t ParallelEnumerator::NextBatch(TupleBuffer* out, size_t max_tuples) {
  size_t emitted = 0;
  while (emitted < max_tuples) {
    if (read_pos_ >= current_.size()) {
      if (!FetchChunk()) break;
      continue;
    }
    const size_t take =
        std::min(max_tuples - emitted, current_.size() - read_pos_);
    for (size_t i = 0; i < take; ++i) out->Append(current_[read_pos_ + i]);
    read_pos_ += take;
    emitted += take;
  }
  return emitted;
}

std::unique_ptr<TupleEnumerator> ParallelAnswer(const CompressedRep& rep,
                                                const BoundValuation& vb,
                                                ParallelOptions options) {
  if (rep.view().num_free() == 0) return rep.Answer(vb);
  const int threads = ResolveThreads(options);
  auto plan = std::make_shared<ShardPlan>(
      ShardPlanner::Plan(rep, ResolveShards(options, threads)));
  if (plan->shards.empty())
    return std::make_unique<EmptyEnumerator>(rep.view().num_free());
  auto factory = [&rep, vb, plan](size_t s) {
    return rep.AnswerRange(vb, plan->shards[s]);
  };
  return std::make_unique<ParallelEnumerator>(
      std::move(factory), plan->shards.size(), rep.view().num_free(),
      options);
}

std::unique_ptr<TupleEnumerator> ParallelAnswer(const DecomposedRep& rep,
                                                const BoundValuation& vb,
                                                ParallelOptions options) {
  const int threads = ResolveThreads(options);
  const size_t shards = ResolveShards(options, threads);
  // Residue-class shards interleave the Algorithm 5 order, so ordered
  // delivery would impose an order no sequential path produces; always
  // deliver unordered.
  options.ordered = false;
  auto factory = [&rep, vb, shards](size_t s) {
    return rep.AnswerShard(vb, s, shards);
  };
  return std::make_unique<ParallelEnumerator>(
      std::move(factory), shards, rep.view().num_free(), options);
}

}  // namespace cqc
