// RepCache: the serving layer — plan once, build once, serve many, and
// keep serving while the base tables move.
//
// An LRU cache of built representations keyed by the canonical query key
// (query/normalize.h: alpha-renamed copies of a query share an entry) plus
// the space-budget exponent. A miss parses nothing twice: the entry owns
// its NormalizedView (including the aux database of derived relations the
// built structure references), the Plan that chose the structure, and the
// AnswerRep itself, so a cache hit is immediately servable and survives
// eviction for as long as any caller holds the shared_ptr.
//
// Builds are *single-flight*: concurrent requests for the same key find
// the in-flight build and wait on it instead of duplicating the (possibly
// expensive) compression — the thundering-herd behavior a serving cache
// must not have. Distinct keys build concurrently; the cache lock guards
// only metadata, never a build.
//
// Updates (docs/update-semantics.md): ApplyDelta(key, delta) routes a
// batch of base-table mutations through the cache. Every cached entry
// whose view references a mutated relation is affected: entries holding an
// updatable structure (capabilities().updatable) absorb the delta in
// place — concurrent readers keep enumerating, protected by the
// structure's epoch-style state swap — while static entries are
// invalidated (dropped from the cache; live handles keep serving their
// now-stale build, and the next Get rebuilds from the caller-maintained
// base database). When an updatable entry's pending mass crosses its
// rebuild threshold, the cache schedules ONE amortized snapshot fold on
// the shared exec/ThreadPool (concurrent deltas coalesce on the
// per-entry flag); the fold swaps the structure's snapshot pointer, so
// readers never block on it and never observe a torn rep.
#ifndef CQC_PLAN_REP_CACHE_H_
#define CQC_PLAN_REP_CACHE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "plan/answer_rep.h"
#include "plan/planner.h"
#include "query/normalize.h"
#include "relational/database.h"
#include "util/request_context.h"
#include "util/status.h"

namespace cqc {

struct RepCacheOptions {
  /// Maximum resident entries (>= 1; evicted entries stay alive while any
  /// caller still holds their shared_ptr).
  size_t capacity = 16;
  /// Byte budget over the cache's *physical* footprint (0 = unlimited).
  /// After every insert, least-recently-used entries are evicted until the
  /// sum of the entries' ResidentBytes() fits. Mapped (zero-copy) entries
  /// are charged only the pages the OS actually has resident — an mmap'ed
  /// rep far larger than the budget can stay cached while it is cold,
  /// which is the whole point of the zero-copy path. The most recent entry
  /// is never evicted (the budget cannot make the cache useless).
  size_t max_resident_bytes = 0;
  /// When non-empty: directory of CQCREP04 snapshot files. A cache miss
  /// first probes `<dir>/<hash(key)>.cqcrep` and serves it via the
  /// zero-copy loader (validated against the current database) before
  /// falling back to a fresh plan + build; PersistEntry() writes such a
  /// snapshot for a cached compressed entry. This is the restart story:
  /// persist before shutdown, remap on boot in O(header + tree nodes +
  /// dictionary entries) time, whatever the candidate pool's size.
  std::string snapshot_dir;
  /// Planner defaults for entries; the per-Get budget overrides
  /// space_budget_exponent. Set planner.churn_per_request > 0 to let the
  /// planner pick the updatable structure for mutable workloads.
  PlannerOptions planner;

  // --- fault tolerance (docs/robustness.md) --------------------------------

  /// Total build attempts per miss (>= 1). Only transient faults
  /// (kUnavailable: I/O errors, injected failpoints, contained worker
  /// exceptions) are retried; input-shaped errors fail immediately.
  int max_build_attempts = 1;
  /// Backoff before the first retry; doubles per further retry. The
  /// builder sleeps outside the cache lock, so hits and other keys are
  /// never stalled by a backoff.
  std::chrono::milliseconds build_retry_backoff{10};
  /// When > 0: a key whose build just failed is remembered for this long,
  /// and Gets within the window fail fast with the recorded Status instead
  /// of re-entering the build path — without it, every waiter released by
  /// a failed single-flight build immediately becomes the next builder for
  /// the same broken key (a rebuild thundering-herd). Deadline/cancel
  /// outcomes are never negatively cached (they are the caller's, not the
  /// key's). 0 disables.
  std::chrono::milliseconds negative_ttl{0};
  /// When > 0: bounds how long a coalesced waiter blocks on another
  /// request's in-flight build (kUnavailable on expiry; the build itself
  /// keeps running for whoever can still wait). A waiter's own
  /// RequestContext deadline bounds the wait too, independent of this.
  std::chrono::milliseconds build_timeout{0};
  /// When the planned structure fails to build with a transient fault
  /// (after retries), fall back to DirectEval — no build beyond per-atom
  /// indexes, answers identical — and serve degraded rather than failing
  /// the request. Degraded entries are cached and counted in
  /// stats().degraded_serves.
  bool degrade_on_failure = true;
};

struct RepCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;        // triggered a build
  uint64_t coalesced = 0;     // waited on another request's build
  uint64_t builds = 0;        // successful builds
  uint64_t build_failures = 0;
  uint64_t build_retries = 0;     // attempts beyond the first
  uint64_t degraded_serves = 0;   // Gets answered by a fallback structure
  uint64_t negative_hits = 0;     // Gets failed fast by the negative cache
  uint64_t waiter_timeouts = 0;   // coalesced waits cut short (timeout/ctx)
  uint64_t evictions = 0;       // capacity (entry-count) evictions
  uint64_t byte_evictions = 0;  // max_resident_bytes evictions
  uint64_t mmap_loads = 0;      // misses served from a snapshot file
  // Update path.
  uint64_t deltas_applied = 0;  // updatable entries that absorbed a delta
  uint64_t delta_failures = 0;  // updatable entries whose absorb FAILED
  uint64_t invalidations = 0;        // static entries dropped by a delta
  uint64_t rebuilds_scheduled = 0;   // background folds submitted
  uint64_t rebuilds_completed = 0;   // background folds finished
  uint64_t rebuilds_failed = 0;      // background folds that errored
  // Gauge (recomputed by stats()): sum of cached entries' ResidentBytes().
  uint64_t resident_bytes = 0;
};

/// One cache entry: the normalized view (owning the derived relations the
/// structure references), the plan, and the built structure. Entries are
/// immutable except through RepCache::ApplyDelta, which mutates only
/// updatable structures (themselves safe for concurrent readers).
class CachedRep {
 public:
  const AnswerRep& rep() const { return *rep_; }
  const Plan& plan() const { return plan_; }
  const AdornedView& view() const { return normalized_.view; }
  const std::string& key() const { return key_; }
  /// Derived aux relation name -> base relation (see NormalizedView);
  /// exactly the atoms that mutations cannot reach directly.
  const std::map<std::string, std::string>& derived_sources() const {
    return normalized_.derived_sources;
  }
  /// True when this entry was served from an mmap'ed snapshot file rather
  /// than built.
  bool from_snapshot() const { return from_snapshot_; }
  /// True when the planned structure failed to build and this entry holds
  /// the DirectEval fallback instead (answers are identical; the paper's
  /// space/delay trade-off is not — see RepCacheOptions::degrade_on_failure).
  bool degraded() const { return degraded_; }

 private:
  friend class RepCache;
  explicit CachedRep(std::string key, NormalizedView normalized)
      : key_(std::move(key)), normalized_(std::move(normalized)) {}

  std::string key_;
  NormalizedView normalized_;
  Plan plan_;
  std::unique_ptr<AnswerRep> rep_;
  bool from_snapshot_ = false;
  bool degraded_ = false;
  /// Coalesces background snapshot folds: set while one is queued/running.
  std::atomic<bool> rebuild_scheduled_{false};
};

class RepCache {
 public:
  /// `db` must outlive the cache and every entry handed out.
  explicit RepCache(const Database* db, RepCacheOptions options = {});
  /// Blocks until outstanding background rebuilds finish.
  ~RepCache();

  /// Parses and serves `view_text` (e.g. "Q^bf(x,y) = R(x,y)"). `ctx`
  /// (optional) bounds the request: an expired/cancelled context fails
  /// fast, and a coalesced wait on someone else's build respects the
  /// context deadline.
  Result<std::shared_ptr<const CachedRep>> Get(
      const std::string& view_text, double space_budget_exponent = -1,
      const RequestContext* ctx = nullptr);

  /// Serves an already-parsed view. The view may contain constants or
  /// repeated variables; normalization happens on miss.
  Result<std::shared_ptr<const CachedRep>> GetView(
      const AdornedView& view, double space_budget_exponent = -1,
      const RequestContext* ctx = nullptr);

  /// Routes a batch of base-table mutations through the cache: the
  /// addressed entry (`key` from CachedRep::key(); error if no longer
  /// cached) and every other affected entry absorb the delta when
  /// updatable, or are invalidated when not. Updatable entries that cross
  /// their rebuild threshold get ONE background snapshot fold scheduled on
  /// the shared build pool. The caller owns keeping the base Database
  /// consistent with the deltas it applies (entries built after this call
  /// see whatever that database then holds).
  Status ApplyDelta(const std::string& key, const UpdateBatch& delta);

  /// Blocks until every scheduled background rebuild has completed.
  void WaitForRebuilds();

  /// Writes the cached entry's compressed structure to the snapshot
  /// directory (options.snapshot_dir must be set) so a future cache —
  /// typically after a restart — can serve it via the zero-copy loader.
  /// Errors if the key is not cached, the entry is not a compressed
  /// structure, or no snapshot_dir is configured.
  Status PersistEntry(const std::string& key);

  /// The snapshot file a key persists to / loads from (diagnostics,
  /// tests); empty when no snapshot_dir is configured.
  std::string SnapshotPath(const std::string& key) const;

  RepCacheStats stats() const;
  size_t size() const;

 private:
  struct InFlight {
    bool done = false;
    std::shared_ptr<const CachedRep> result;  // null on failure
    Status error;
  };
  /// Lifetime-shared with background rebuild tasks, so the tasks can
  /// report completion even if they outlive a particular wait.
  struct RebuildTracker {
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    uint64_t scheduled = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
  };
  /// A recently-failed build: Gets for the key fail fast with `error`
  /// until `expires`.
  struct NegativeEntry {
    Status error;
    std::chrono::steady_clock::time_point expires;
  };
  using LruList = std::list<std::pair<std::string, std::shared_ptr<CachedRep>>>;

  /// Builds the entry for (view, budget); no cache locks held. Probes the
  /// snapshot directory first when one is configured.
  Result<std::shared_ptr<CachedRep>> BuildEntry(
      const std::string& key, const AdornedView& view,
      double space_budget_exponent) const;

  /// The resilient build path (docs/robustness.md): BuildEntry with
  /// bounded retry + exponential backoff on transient faults, then the
  /// DirectEval degraded fallback. Increments retry stats itself; `ctx`
  /// is checked between attempts.
  Result<std::shared_ptr<CachedRep>> BuildEntryResilient(
      const std::string& key, const AdornedView& view,
      double space_budget_exponent, const RequestContext* ctx);

  /// Builds the degraded DirectEval entry (no planner; `cause` becomes the
  /// plan-candidate note so --stats shows why).
  Result<std::shared_ptr<CachedRep>> BuildDegraded(
      const std::string& key, const AdornedView& view,
      const Status& cause) const;

  /// Evicts from the LRU tail until both the entry-count capacity and the
  /// byte budget (when set) are respected. Call with mu_ held.
  void EvictLocked();

  /// Schedules one coalesced background fold if the entry needs it.
  void MaybeScheduleRebuild(const std::shared_ptr<CachedRep>& entry);

  const Database* db_;
  const RepCacheOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Most-recently-used first; entries_ indexes into it.
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> entries_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::unordered_map<std::string, NegativeEntry> negative_;
  RepCacheStats stats_;
  std::shared_ptr<RebuildTracker> rebuilds_ =
      std::make_shared<RebuildTracker>();
};

}  // namespace cqc

#endif  // CQC_PLAN_REP_CACHE_H_
