#include "plan/rep_cache.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "core/serialization.h"
#include "exec/thread_pool.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "util/str_util.h"

namespace cqc {

RepCache::RepCache(const Database* db, RepCacheOptions options)
    : db_(db), options_(std::move(options)) {
  CQC_CHECK(db_ != nullptr);
  CQC_CHECK_GT(options_.capacity, 0u);
}

RepCache::~RepCache() { WaitForRebuilds(); }

Result<std::shared_ptr<const CachedRep>> RepCache::Get(
    const std::string& view_text, double space_budget_exponent,
    const RequestContext* ctx) {
  Result<AdornedView> parsed = ParseAdornedView(view_text);
  if (!parsed.ok()) return parsed.status();
  return GetView(parsed.value(), space_budget_exponent, ctx);
}

Result<std::shared_ptr<const CachedRep>> RepCache::GetView(
    const AdornedView& view, double space_budget_exponent,
    const RequestContext* ctx) {
  // Budget is part of the identity: the same query at two budgets may be
  // two different structures.
  const std::string key =
      CanonicalViewKey(view) +
      StrFormat("|B=%.6g", space_budget_exponent < 0
                               ? -1.0
                               : space_budget_exponent);
  if (Status s = RequestContext::Check(ctx); !s.ok()) return s;

  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      if (it->second->second->degraded_) ++stats_.degraded_serves;
      lru_.splice(lru_.begin(), lru_, it->second);
      return std::shared_ptr<const CachedRep>(it->second->second);
    }
    if (auto neg = negative_.find(key); neg != negative_.end()) {
      // A build for this key failed within the TTL: fail fast instead of
      // sending every released waiter straight back into the build path.
      if (std::chrono::steady_clock::now() < neg->second.expires) {
        ++stats_.negative_hits;
        return neg->second.error;
      }
      negative_.erase(neg);  // TTL over: the key may build fine now
    }
    auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      // Single-flight: someone else is already building this entry. The
      // wait is bounded by the waiter's own deadline and by
      // options_.build_timeout; the build itself is NOT torn down on a
      // waiter timeout — it finishes for whoever can still use it.
      ++stats_.coalesced;
      flight = fit->second;
      auto wait_deadline = std::chrono::steady_clock::time_point::max();
      if (options_.build_timeout.count() > 0)
        wait_deadline = std::chrono::steady_clock::now() +
                        options_.build_timeout;
      if (ctx != nullptr && ctx->deadline())
        wait_deadline = std::min(wait_deadline, *ctx->deadline());
      const bool done = cv_.wait_until(lock, wait_deadline,
                                       [&] { return flight->done; });
      if (!done) {
        ++stats_.waiter_timeouts;
        if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
        return Status::Unavailable(StrFormat(
            "timed out after %lld ms waiting for in-flight build of %s",
            (long long)options_.build_timeout.count(), key.c_str()));
      }
      if (flight->result != nullptr) return flight->result;
      return flight->error;
    }
    ++stats_.misses;
    flight = std::make_shared<InFlight>();
    inflight_.emplace(key, flight);
  }

  // Build without holding the cache lock: distinct keys build in parallel,
  // and hits never wait behind a build.
  Result<std::shared_ptr<CachedRep>> built =
      BuildEntryResilient(key, view, space_budget_exponent, ctx);

  Result<std::shared_ptr<const CachedRep>> out =
      built.ok()
          ? Result<std::shared_ptr<const CachedRep>>(
                std::shared_ptr<const CachedRep>(built.value()))
          : built.status();
  {
    std::unique_lock<std::mutex> lock(mu_);
    flight->done = true;
    if (built.ok()) {
      ++stats_.builds;
      if (built.value()->from_snapshot_) ++stats_.mmap_loads;
      if (built.value()->degraded_) ++stats_.degraded_serves;
      flight->result = out.value();
      lru_.emplace_front(key, built.value());
      entries_[key] = lru_.begin();
      EvictLocked();
    } else {
      ++stats_.build_failures;
      flight->error = built.status();
      const Status& e = built.status();
      // Remember the failure so the released waiters (and anyone else
      // within the TTL) fail fast instead of thundering-herd rebuilding.
      // Deadline/cancel outcomes describe the builder's request, not the
      // key — caching them would wrongly fail unbounded requests.
      if (options_.negative_ttl.count() > 0 && !e.IsDeadlineExceeded() &&
          !e.IsCancelled()) {
        negative_[key] = NegativeEntry{
            e, std::chrono::steady_clock::now() + options_.negative_ttl};
      }
    }
    inflight_.erase(key);
  }
  cv_.notify_all();
  return out;
}

Result<std::shared_ptr<CachedRep>> RepCache::BuildEntryResilient(
    const std::string& key, const AdornedView& view,
    double space_budget_exponent, const RequestContext* ctx) {
  const int attempts = std::max(1, options_.max_build_attempts);
  std::chrono::milliseconds backoff = options_.build_retry_backoff;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.build_retries;
      }
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    // The builder's own request may expire during a backoff; stop burning
    // attempts for a caller that is gone. Coalesced waiters inherit this
    // status but it is never negatively cached, so their next Get retries.
    if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
    Result<std::shared_ptr<CachedRep>> built =
        BuildEntry(key, view, space_budget_exponent);
    if (built.ok()) return built;
    last = built.status();
    // Only transient faults (I/O, injected, contained worker exceptions)
    // are worth retrying; a malformed view stays malformed.
    if (!last.IsUnavailable()) break;
  }
  if (options_.degrade_on_failure && last.IsUnavailable()) {
    Result<std::shared_ptr<CachedRep>> degraded =
        BuildDegraded(key, view, last);
    if (degraded.ok()) return degraded;
    // Even DirectEval failed — report the original fault, which names the
    // structure the planner actually wanted.
  }
  return last;
}

Result<std::shared_ptr<CachedRep>> RepCache::BuildDegraded(
    const std::string& key, const AdornedView& view,
    const Status& cause) const {
  Result<NormalizedView> normalized = NormalizeView(view, *db_);
  if (!normalized.ok()) return normalized.status();
  std::shared_ptr<CachedRep> entry(
      new CachedRep(key, std::move(normalized).value()));

  Plan plan;
  plan.spec.kind = RepKind::kDirect;
  plan.within_budget = true;
  PlanCandidate cand;
  cand.kind = RepKind::kDirect;
  cand.feasible = true;
  cand.note = "degraded fallback (" + cause.message() + ")";
  plan.candidates.push_back(std::move(cand));
  entry->plan_ = std::move(plan);

  Result<std::unique_ptr<AnswerRep>> rep = BuildAnswerRep(
      entry->plan_.spec, entry->normalized_.view, *db_,
      &entry->normalized_.aux_db);
  if (!rep.ok()) return rep.status();
  entry->rep_ = std::move(rep).value();
  entry->degraded_ = true;
  return entry;
}

Result<std::shared_ptr<CachedRep>> RepCache::BuildEntry(
    const std::string& key, const AdornedView& view,
    double space_budget_exponent) const {
  Result<NormalizedView> normalized = NormalizeView(view, *db_);
  if (!normalized.ok()) return normalized.status();

  // The entry owns the normalized view *before* planning/building, so the
  // aux database the structure will reference has its final address.
  std::shared_ptr<CachedRep> entry(
      new CachedRep(key, std::move(normalized).value()));

  // Restart path: serve a persisted snapshot zero-copy before paying for a
  // plan + build. The loader validates the file against the *current*
  // database (skeleton binding, domain membership, the full corrupt-input
  // sweep), so a snapshot that no longer matches the data falls through to
  // a fresh build rather than serving stale answers silently.
  if (!options_.snapshot_dir.empty()) {
    Result<std::unique_ptr<CompressedRep>> mapped =
        LoadCompressedRep(entry->normalized_.view, *db_, SnapshotPath(key),
                          &entry->normalized_.aux_db);
    if (mapped.ok()) {
      Plan plan;
      plan.spec.kind = RepKind::kCompressed;
      plan.spec.compressed.tau = mapped.value()->tau();
      plan.within_budget = true;
      PlanCandidate cand;
      cand.kind = RepKind::kCompressed;
      cand.tau = plan.spec.compressed.tau;
      cand.feasible = true;
      cand.note = "mmap snapshot";
      plan.candidates.push_back(std::move(cand));
      entry->plan_ = std::move(plan);
      entry->rep_ = WrapAnswerRep(std::move(mapped).value());
      entry->from_snapshot_ = true;
      return entry;
    }
  }

  Planner planner(db_, &entry->normalized_.aux_db);
  PlannerOptions popts = options_.planner;
  popts.space_budget_exponent = space_budget_exponent;
  Result<Plan> plan = planner.PlanView(entry->normalized_.view, popts);
  if (!plan.ok()) return plan.status();
  entry->plan_ = std::move(plan).value();
  // The cache amortizes snapshot folds on the shared pool itself
  // (ApplyDelta -> MaybeScheduleRebuild); a synchronous fold inside
  // ApplyDelta would stall the writer.
  entry->plan_.spec.updatable.auto_rebuild = false;

  Result<std::unique_ptr<AnswerRep>> rep =
      planner.BuildPlan(entry->normalized_.view, entry->plan_);
  if (!rep.ok()) return rep.status();
  entry->rep_ = std::move(rep).value();
  return entry;
}

void RepCache::EvictLocked() {
  while (lru_.size() > options_.capacity) {
    ++stats_.evictions;
    entries_.erase(lru_.back().first);
    lru_.pop_back();
  }
  if (options_.max_resident_bytes == 0) return;
  // Physical footprint: mapped entries charge only their resident pages,
  // so the recompute per evicted entry is deliberate — evicting one entry
  // does not change the others' charge, but the sum must be fresh against
  // the budget each round. n <= capacity keeps this cheap.
  auto resident_sum = [this] {
    size_t sum = 0;
    for (const auto& [unused_key, entry] : lru_) sum += entry->rep().ResidentBytes();
    return sum;
  };
  while (lru_.size() > 1 && resident_sum() > options_.max_resident_bytes) {
    ++stats_.byte_evictions;
    entries_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

std::string RepCache::SnapshotPath(const std::string& key) const {
  if (options_.snapshot_dir.empty()) return "";
  // FNV-1a 64 over the canonical key: stable across runs (that is the whole
  // point — the path must survive a restart), filename-safe hex.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return options_.snapshot_dir + "/" +
         StrFormat("%016llx", (unsigned long long)h) + ".cqcrep";
}

Status RepCache::PersistEntry(const std::string& key) {
  if (options_.snapshot_dir.empty())
    return Status::Error("PersistEntry: no snapshot_dir configured");
  std::shared_ptr<const CachedRep> entry;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end())
      return Status::Error("PersistEntry: no cached entry for key " + key);
    entry = it->second->second;
  }
  // Serialize outside the lock: a large rep's write must not stall serving.
  const auto* compressed =
      dynamic_cast<const CompressedAnswerRep*>(&entry->rep());
  if (compressed == nullptr)
    return Status::Error("PersistEntry: entry for key " + key +
                         " is not a compressed structure");
  return SaveCompressedRep(compressed->underlying(), SnapshotPath(key));
}

// --- update path ------------------------------------------------------------

namespace {

/// How a delta touches one cached view: not at all, via exactly-named
/// atoms (routable), or via a derived aux relation (normalize.h rewrites
/// "R" with constants/repeats into "R__n<k>"), which an updatable
/// structure cannot absorb — the entry must be invalidated.
struct TouchReport {
  bool exact = false;
  bool derived = false;
};

TouchReport Touches(const CachedRep& entry,
                    const std::set<std::string>& mutated) {
  TouchReport t;
  for (const Atom& atom : entry.view().cq().atoms()) {
    if (mutated.count(atom.relation) > 0) {
      t.exact = true;
      continue;
    }
    // Only atoms the normalizer actually rewrote are derived; a base
    // relation whose own name contains "__n" must not match here.
    auto it = entry.derived_sources().find(atom.relation);
    if (it != entry.derived_sources().end() && mutated.count(it->second) > 0)
      t.derived = true;
  }
  return t;
}

}  // namespace

Status RepCache::ApplyDelta(const std::string& key, const UpdateBatch& delta) {
  if (delta.empty()) return Status::Ok();
  // Injected before any entry is touched: a fired fault must leave every
  // cached structure exactly as it was (the batch is all-or-nothing at
  // this boundary).
  CQC_FAILPOINT("rep_cache/apply_delta");
  std::set<std::string> mutated;
  for (const UpdateOp& op : delta) mutated.insert(op.relation);

  // Snapshot the affected entries under the lock; route the delta outside
  // it (an in-place Apply can contend with its own writers, never with the
  // cache metadata).
  std::vector<std::shared_ptr<CachedRep>> updatable_targets;
  bool key_found = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    key_found = entries_.find(key) != entries_.end();
    for (auto it = lru_.begin(); it != lru_.end();) {
      const std::shared_ptr<CachedRep>& entry = it->second;
      const TouchReport touch = Touches(*entry, mutated);
      if (!touch.exact && !touch.derived) {
        ++it;
        continue;
      }
      if (touch.derived || !entry->rep().capabilities().updatable) {
        // Invalidate: live handles keep serving their (now stale) build;
        // the next Get replans against the caller-maintained database.
        ++stats_.invalidations;
        entries_.erase(it->first);
        it = lru_.erase(it);
        continue;
      }
      updatable_targets.push_back(entry);
      ++it;
    }
  }

  Status result = Status::Ok();
  uint64_t applied = 0;
  uint64_t failed = 0;
  for (const std::shared_ptr<CachedRep>& entry : updatable_targets) {
    // Each entry absorbs only the ops naming its own relations (a batch
    // may span views).
    UpdateBatch relevant;
    std::set<std::string> names;
    for (const Atom& atom : entry->view().cq().atoms())
      names.insert(atom.relation);
    for (const UpdateOp& op : delta)
      if (names.count(op.relation) > 0) relevant.push_back(op);
    if (relevant.empty()) continue;  // this view saw none of the batch
    Status s = entry->rep_->ApplyDelta(relevant);
    if (s.ok()) {
      // Count only entries that actually absorbed something, and schedule
      // a fold only for those — a failed absorb has nothing to fold.
      ++applied;
      MaybeScheduleRebuild(entry);
    } else {
      ++failed;
      if (result.ok()) result = s;
    }
  }
  if (applied > 0 || failed > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.deltas_applied += applied;
    stats_.delta_failures += failed;
  }
  if (!key_found && result.ok())
    return Status::Error("ApplyDelta: no cached entry for key " + key +
                         " (evicted or never built)");
  return result;
}

void RepCache::MaybeScheduleRebuild(const std::shared_ptr<CachedRep>& entry) {
  auto* rep = dynamic_cast<UpdatableAnswerRep*>(entry->rep_.get());
  if (rep == nullptr || !rep->NeedsRebuild()) return;
  if (entry->rebuild_scheduled_.exchange(true)) return;  // fold coalesced
  std::shared_ptr<RebuildTracker> tracker = rebuilds_;
  {
    std::lock_guard<std::mutex> lock(tracker->mu);
    ++tracker->outstanding;
    ++tracker->scheduled;
  }
  // The task owns the entry (survives eviction and cache destruction; the
  // destructor additionally drains the tracker). Rebuild(true) re-checks
  // the threshold, so a fold that raced a concurrent manual Rebuild is a
  // no-op. Deltas applied *during* the fold can re-cross the threshold
  // after the rebase — they all skipped scheduling while the flag was
  // set, so this task must loop until the entry is genuinely below
  // threshold (or another scheduler claimed the flag).
  SharedBuildPool().Submit([entry, rep, tracker] {
    bool any_failed = false;
    for (;;) {
      Status s;
      // Containment: a fold that throws (or hits the updatable/rebuild
      // failpoint inside Rebuild) must still clear the coalescing flag —
      // a leaked exception here would wedge rebuild scheduling for this
      // entry forever. The old snapshot + pending delta keeps serving.
      try {
        s = rep->Rebuild(/*only_if_needed=*/true);
      } catch (const std::exception& e) {
        s = Status::Unavailable(std::string("rebuild threw: ") + e.what());
      } catch (...) {
        s = Status::Unavailable("rebuild threw a non-standard exception");
      }
      if (!s.ok()) {
        any_failed = true;
        std::fprintf(stderr, "RepCache: background rebuild failed: %s\n",
                     s.message().c_str());
      }
      entry->rebuild_scheduled_.store(false);
      if (!s.ok() || !rep->NeedsRebuild()) break;
      if (entry->rebuild_scheduled_.exchange(true)) break;  // claimed anew
    }
    {
      std::lock_guard<std::mutex> lock(tracker->mu);
      ++tracker->completed;
      if (any_failed) ++tracker->failed;
      --tracker->outstanding;
    }
    tracker->cv.notify_all();
  });
}

void RepCache::WaitForRebuilds() {
  std::shared_ptr<RebuildTracker> tracker = rebuilds_;
  std::unique_lock<std::mutex> lock(tracker->mu);
  tracker->cv.wait(lock, [&] { return tracker->outstanding == 0; });
}

RepCacheStats RepCache::stats() const {
  RepCacheStats out;
  {
    std::unique_lock<std::mutex> lock(mu_);
    out = stats_;
    out.resident_bytes = 0;
    for (const auto& [unused_key, entry] : lru_)
      out.resident_bytes += entry->rep().ResidentBytes();
  }
  {
    std::lock_guard<std::mutex> lock(rebuilds_->mu);
    out.rebuilds_scheduled = rebuilds_->scheduled;
    out.rebuilds_completed = rebuilds_->completed;
    out.rebuilds_failed = rebuilds_->failed;
  }
  return out;
}

size_t RepCache::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace cqc
