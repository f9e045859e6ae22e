// AnswerRep: one capability-tagged interface over every answer structure.
//
// The paper gives four ways to hold a query result — the Theorem 1
// compressed structure, the Theorem 2 decomposed structure, and the two
// extremal baselines (materialize everything / evaluate directly) — and the
// serving question is always the same: given an access request v_b, stream
// Q^eta[v_b]. AnswerRep is that contract. Every consumer (the CLI, the
// benches, the RepCache, the parallel enumerator glue) dispatches through
// this type instead of hand-rolling per-structure switches.
//
// Entry points are *hardened*: arity and bound-valuation mismatches return
// Status errors in release builds — a malformed request from an untrusted
// caller can never index out of bounds or trip a debug-only DCHECK. The
// underlying structures keep their CHECK-based contracts for trusted
// in-process callers; this layer is the boundary where user input arrives.
//
// Capabilities advertise what a structure can do beyond plain enumeration
// (lex order, range restriction, O(delay) resume, shard-parallel drain,
// count-without-enumeration) so generic code can branch on *capability*
// rather than on concrete type.
#ifndef CQC_PLAN_ANSWER_REP_H_
#define CQC_PLAN_ANSWER_REP_H_

#include <memory>
#include <optional>
#include <string>

#include "baseline/direct_eval.h"
#include "baseline/materialized_view.h"
#include "core/compressed_rep.h"
#include "core/cursor.h"
#include "core/enumerator.h"
#include "core/finterval.h"
#include "core/updatable_rep.h"
#include "decomposition/decomposed_rep.h"
#include "exec/parallel_enumerator.h"
#include "query/adorned_view.h"
#include "relational/database.h"
#include "util/status.h"

namespace cqc {

enum class RepKind : uint8_t {
  kCompressed,    // Theorem 1: delay-balanced tree + heavy dictionary
  kDecomposed,    // Theorem 2: connex decomposition of per-bag structures
  kDirect,        // §2.3 baseline: worst-case optimal join per request
  kMaterialized,  // §2.3 baseline: full output, indexed by bound vars
  kUpdatable,     // §8 extension: Theorem-1 snapshot + signed pending delta
};

/// Lower-case structure name ("compressed", "decomposed", ...).
const char* RepKindName(RepKind kind);

/// Inverse of RepKindName; nullopt for unknown names.
std::optional<RepKind> ParseRepKind(const std::string& name);

/// What a representation supports beyond Answer/AnswerExists.
struct RepCapabilities {
  /// Answer streams in lexicographic order of the free variables.
  bool lex_ordered = false;
  /// AnswerRange enumerates an arbitrary closed lex interval.
  bool range_restricted = false;
  /// Resume reaches the first resumed tuple in O~(delay), not O(emitted).
  bool low_delay_resume = false;
  /// ParallelAnswer drains a real shard plan (not the sequential fallback).
  bool sharded = false;
  /// Count answers |Q^eta[v_b]| without enumerating the output.
  bool counting = false;
  /// ApplyDelta mutates the base tables in place (inserts + deletions)
  /// while concurrent readers keep enumerating a consistent state.
  bool updatable = false;
  /// AnswerAggregate computes grouped COUNT/SUM/MIN/MAX without per-tuple
  /// enumeration (pushed into the structure); structures without the flag
  /// still answer, by draining the stream and folding.
  bool aggregates = false;
};

/// The capability set an adapter of `kind` would advertise (the planner's
/// prediction surface — no structure needs to exist). `num_free` is the
/// view's free arity; `with_aggregates` marks a build with aggregate
/// annotations (CompressedRepOptions::build_aggregates).
RepCapabilities KindCapabilities(RepKind kind, int num_free,
                                 bool with_aggregates);

/// Compact tag list for Explain/--stats output: the set bits of `caps` as
/// "lex,range,resume,shard,count,update,agg" (or "-" when none).
std::string CapabilityTags(const RepCapabilities& caps);

class AnswerRep {
 public:
  virtual ~AnswerRep() = default;

  virtual RepKind kind() const = 0;
  virtual RepCapabilities capabilities() const = 0;
  virtual const AdornedView& view() const = 0;

  /// Build statistics: wall-clock build time and the resident footprint of
  /// the structure (indexes + auxiliary data; the paper's S up to
  /// constants). One-line human description for logs / --stats.
  virtual double build_seconds() const = 0;
  virtual size_t SpaceBytes() const = 0;
  virtual std::string Describe() const = 0;

  /// Physical memory charge right now. Equals SpaceBytes() for heap-backed
  /// structures; mmap-backed ones (core/rep_file.h) report only the pages
  /// the OS actually has resident, which is what a byte-budgeted cache
  /// must charge them (plan/rep_cache.h).
  virtual size_t ResidentBytes() const { return SpaceBytes(); }

  // --- hardened serving entry points ---------------------------------------
  // Each validates the request shape and returns a Status error on misuse
  // (wrong bound-valuation arity, unsupported capability, malformed range or
  // cursor) instead of relying on debug-only checks.
  //
  // Every entry point optionally takes a RequestContext (docs/robustness.md):
  // an already-expired or cancelled request returns kDeadlineExceeded /
  // kCancelled before any work, and streaming results are wrapped in a
  // DeadlineCheckedEnumerator so expiry mid-stream cuts the stream short
  // within one batch of work (callers learn why from ctx->Check() — the
  // bool-only TupleEnumerator API has no error channel). A null ctx is the
  // legacy unbounded request and adds zero overhead.

  /// Streams Q^eta[v_b]; tuples are aligned with view().free_vars().
  Result<std::unique_ptr<TupleEnumerator>> Answer(
      const BoundValuation& vb, const RequestContext* ctx = nullptr) const;

  /// Streams exactly the outputs inside the closed lex interval `range`
  /// (arity num_free). Requires capabilities().range_restricted.
  Result<std::unique_ptr<TupleEnumerator>> AnswerRange(
      const BoundValuation& vb, const FInterval& range,
      const RequestContext* ctx = nullptr) const;

  /// Resumes a paused enumeration from a (possibly untrusted) cursor.
  Result<std::unique_ptr<TupleEnumerator>> Resume(
      const BoundValuation& vb, const EnumerationCursor& cursor,
      const RequestContext* ctx = nullptr) const;

  /// Is the access request non-empty?
  Result<bool> AnswerExists(const BoundValuation& vb,
                            const RequestContext* ctx = nullptr) const;

  /// |Q^eta[v_b]|. Counting-capable structures answer without enumerating
  /// (only the entry check applies); the rest drain the stream with
  /// per-batch deadline polling.
  Result<uint64_t> Count(const BoundValuation& vb,
                         const RequestContext* ctx = nullptr) const;

  /// Grouped ring aggregate (COUNT/SUM/MIN/MAX) over Q^eta[v_b], grouped
  /// by the free-variable indices in `group_vars` (strictly ascending; the
  /// empty set yields one global group). Aggregate-capable structures push
  /// the fold into the structure; the rest drain the stream and fold (with
  /// per-batch deadline polling when `ctx` is set).
  /// Groups come back in lex order of their keys, count > 0 only, so the
  /// result is byte-identical across structures.
  Result<AggregateResult> AnswerAggregate(
      const BoundValuation& vb, const std::vector<int>& group_vars,
      const AggSpec& spec, const RequestContext* ctx = nullptr) const;

  /// Shard-planning hook: drains the request with `options.num_threads`
  /// workers when the structure shards (capabilities().sharded); otherwise
  /// falls back to the sequential stream. Order follows the structure's
  /// parallel contract (see exec/parallel_enumerator.h). `ctx` propagates
  /// into the shard producers (checked per chunk) as well as the consumer
  /// stream.
  Result<std::unique_ptr<TupleEnumerator>> ParallelAnswer(
      const BoundValuation& vb, const ParallelOptions& options,
      const RequestContext* ctx = nullptr) const;

  /// Applies base-table mutations (docs/update-semantics.md). Only
  /// structures advertising capabilities().updatable accept a delta; the
  /// rest return an error (the serving layer invalidates them instead).
  /// Thread-safe against concurrent serving entry points.
  virtual Status ApplyDelta(const UpdateBatch& delta);

 protected:
  // Per-structure implementations, called only after validation.
  virtual std::unique_ptr<TupleEnumerator> AnswerImpl(
      const BoundValuation& vb) const = 0;
  /// Only called when capabilities().range_restricted.
  virtual std::unique_ptr<TupleEnumerator> AnswerRangeImpl(
      const BoundValuation& vb, const FInterval& range) const;
  /// Default: re-enumerate and skip cursor.emitted tuples (O(emitted)).
  virtual Result<std::unique_ptr<TupleEnumerator>> ResumeImpl(
      const BoundValuation& vb, const EnumerationCursor& cursor) const;
  /// Default: drain through the batch API.
  virtual uint64_t CountImpl(const BoundValuation& vb) const;
  /// Default: drain the stream and fold (GroupedDrainAggregate).
  virtual AggregateResult AnswerAggregateImpl(
      const BoundValuation& vb, const std::vector<int>& group_vars,
      const AggSpec& spec) const;
  /// Default: the sequential stream.
  virtual std::unique_ptr<TupleEnumerator> ParallelAnswerImpl(
      const BoundValuation& vb, const ParallelOptions& options) const;

  /// Shared request validation (arity of v_b against the view).
  Status ValidateRequest(const BoundValuation& vb) const;
};

// --- adapters ---------------------------------------------------------------
// Each adapter owns its structure and exposes it via underlying() so callers
// that need a structure-specific API (serialization, dictionary fixup,
// differential tests) can still reach it.

class CompressedAnswerRep : public AnswerRep {
 public:
  explicit CompressedAnswerRep(std::unique_ptr<CompressedRep> rep);

  RepKind kind() const override { return RepKind::kCompressed; }
  RepCapabilities capabilities() const override;
  const AdornedView& view() const override { return rep_->view(); }
  double build_seconds() const override {
    return rep_->stats().build_seconds;
  }
  size_t SpaceBytes() const override { return rep_->stats().TotalBytes(); }
  size_t ResidentBytes() const override { return rep_->ResidentBytes(); }
  std::string Describe() const override;

  const CompressedRep& underlying() const { return *rep_; }
  CompressedRep& mutable_underlying() { return *rep_; }

 protected:
  std::unique_ptr<TupleEnumerator> AnswerImpl(
      const BoundValuation& vb) const override;
  std::unique_ptr<TupleEnumerator> AnswerRangeImpl(
      const BoundValuation& vb, const FInterval& range) const override;
  Result<std::unique_ptr<TupleEnumerator>> ResumeImpl(
      const BoundValuation& vb, const EnumerationCursor& cursor) const override;
  std::unique_ptr<TupleEnumerator> ParallelAnswerImpl(
      const BoundValuation& vb, const ParallelOptions& options) const override;
  AggregateResult AnswerAggregateImpl(
      const BoundValuation& vb, const std::vector<int>& group_vars,
      const AggSpec& spec) const override;

 private:
  std::unique_ptr<CompressedRep> rep_;
};

class DecomposedAnswerRep : public AnswerRep {
 public:
  explicit DecomposedAnswerRep(std::unique_ptr<DecomposedRep> rep);

  RepKind kind() const override { return RepKind::kDecomposed; }
  RepCapabilities capabilities() const override;
  const AdornedView& view() const override { return rep_->view(); }
  double build_seconds() const override {
    return rep_->stats().build_seconds;
  }
  size_t SpaceBytes() const override { return rep_->SpaceBytes(); }
  std::string Describe() const override;

  const DecomposedRep& underlying() const { return *rep_; }

 protected:
  std::unique_ptr<TupleEnumerator> AnswerImpl(
      const BoundValuation& vb) const override;
  Result<std::unique_ptr<TupleEnumerator>> ResumeImpl(
      const BoundValuation& vb, const EnumerationCursor& cursor) const override;
  uint64_t CountImpl(const BoundValuation& vb) const override;
  std::unique_ptr<TupleEnumerator> ParallelAnswerImpl(
      const BoundValuation& vb, const ParallelOptions& options) const override;
  AggregateResult AnswerAggregateImpl(
      const BoundValuation& vb, const std::vector<int>& group_vars,
      const AggSpec& spec) const override;

 private:
  std::unique_ptr<DecomposedRep> rep_;
};

class DirectAnswerRep : public AnswerRep {
 public:
  explicit DirectAnswerRep(std::unique_ptr<DirectEval> rep);

  RepKind kind() const override { return RepKind::kDirect; }
  RepCapabilities capabilities() const override;
  const AdornedView& view() const override { return rep_->view(); }
  double build_seconds() const override { return rep_->build_seconds(); }
  size_t SpaceBytes() const override { return rep_->SpaceBytes(); }
  std::string Describe() const override;

  const DirectEval& underlying() const { return *rep_; }

 protected:
  std::unique_ptr<TupleEnumerator> AnswerImpl(
      const BoundValuation& vb) const override;
  std::unique_ptr<TupleEnumerator> AnswerRangeImpl(
      const BoundValuation& vb, const FInterval& range) const override;
  Result<std::unique_ptr<TupleEnumerator>> ResumeImpl(
      const BoundValuation& vb, const EnumerationCursor& cursor) const override;

 private:
  std::unique_ptr<DirectEval> rep_;
};

class MaterializedAnswerRep : public AnswerRep {
 public:
  explicit MaterializedAnswerRep(std::unique_ptr<MaterializedView> rep);

  RepKind kind() const override { return RepKind::kMaterialized; }
  RepCapabilities capabilities() const override;
  const AdornedView& view() const override { return rep_->view(); }
  double build_seconds() const override { return rep_->build_seconds(); }
  size_t SpaceBytes() const override { return rep_->SpaceBytes(); }
  std::string Describe() const override;

  const MaterializedView& underlying() const { return *rep_; }

 protected:
  std::unique_ptr<TupleEnumerator> AnswerImpl(
      const BoundValuation& vb) const override;
  uint64_t CountImpl(const BoundValuation& vb) const override;
  AggregateResult AnswerAggregateImpl(
      const BoundValuation& vb, const std::vector<int>& group_vars,
      const AggSpec& spec) const override;

 private:
  std::unique_ptr<MaterializedView> rep_;
};

/// §8 extension: a mutable serving structure. Answer / AnswerExists / Count
/// reflect the current data (snapshot + pending signed delta); ApplyDelta
/// routes mutations to the underlying UpdatableRep. The combined stream is
/// NOT lexicographic once a delta is pending (surviving snapshot answers
/// stream in lex order first, then delta-derived answers), so the adapter
/// advertises none of the order-dependent capabilities.
class UpdatableAnswerRep : public AnswerRep {
 public:
  explicit UpdatableAnswerRep(std::unique_ptr<UpdatableRep> rep);

  RepKind kind() const override { return RepKind::kUpdatable; }
  RepCapabilities capabilities() const override;
  const AdornedView& view() const override { return rep_->view(); }
  double build_seconds() const override { return rep_->build_seconds(); }
  size_t SpaceBytes() const override { return rep_->SpaceBytes(); }
  std::string Describe() const override;

  Status ApplyDelta(const UpdateBatch& delta) override;

  /// The pending-mass rebuild trigger + fold, for serving layers that
  /// amortize rebuilds on a background pool (plan/rep_cache.h).
  bool NeedsRebuild() const { return rep_->NeedsRebuild(); }
  Status Rebuild(bool only_if_needed = false) {
    return rep_->Rebuild(only_if_needed);
  }

  const UpdatableRep& underlying() const { return *rep_; }
  UpdatableRep& mutable_underlying() { return *rep_; }

 protected:
  std::unique_ptr<TupleEnumerator> AnswerImpl(
      const BoundValuation& vb) const override;
  AggregateResult AnswerAggregateImpl(
      const BoundValuation& vb, const std::vector<int>& group_vars,
      const AggSpec& spec) const override;

 private:
  std::unique_ptr<UpdatableRep> rep_;
};

/// Wrappers over already-built structures.
std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<CompressedRep> rep);
std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<DecomposedRep> rep);
std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<DirectEval> rep);
std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<MaterializedView> rep);
std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<UpdatableRep> rep);

/// How to build a representation of a given kind. Structure-specific knobs
/// are honored only by the matching kind; a decomposed build without an
/// explicit decomposition runs the connex elimination-order search.
struct RepBuildSpec {
  RepKind kind = RepKind::kCompressed;
  CompressedRepOptions compressed;
  std::optional<TreeDecomposition> decomposition;
  DecomposedRepOptions decomposed;
  /// Knobs for kUpdatable (its snapshot structure uses updatable.rep, NOT
  /// `compressed`; the planner copies its chosen tau + cover across).
  UpdatableRepOptions updatable;
};

/// Builds the requested structure over (db, aux_db) and wraps it. `view`
/// must already be a natural-join full CQ (NormalizeView).
Result<std::unique_ptr<AnswerRep>> BuildAnswerRep(const RepBuildSpec& spec,
                                                  const AdornedView& view,
                                                  const Database& db,
                                                  const Database* aux_db =
                                                      nullptr);

}  // namespace cqc

#endif  // CQC_PLAN_ANSWER_REP_H_
