#include "plan/answer_rep.h"

#include <utility>

#include "decomposition/connex_builder.h"
#include "query/hypergraph.h"
#include "util/failpoint.h"
#include "util/str_util.h"

namespace cqc {

namespace {

using EnumeratorResult = Result<std::unique_ptr<TupleEnumerator>>;

EnumeratorResult EmptyStream(int arity) {
  return std::unique_ptr<TupleEnumerator>(
      std::make_unique<EmptyEnumerator>(arity));
}

/// Lexicographic successor in raw value space (closed ranges over the full
/// 64-bit domain, kBottom/kTop sentinels). False iff `t` is the maximum.
bool ValueSpaceSucc(Tuple& t) {
  for (int i = (int)t.size() - 1; i >= 0; --i) {
    if (t[i] != kTop) {
      ++t[i];
      for (size_t j = (size_t)i + 1; j < t.size(); ++j) t[j] = kBottom;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* RepKindName(RepKind kind) {
  switch (kind) {
    case RepKind::kCompressed:
      return "compressed";
    case RepKind::kDecomposed:
      return "decomposed";
    case RepKind::kDirect:
      return "direct";
    case RepKind::kMaterialized:
      return "materialized";
    case RepKind::kUpdatable:
      return "updatable";
  }
  return "unknown";
}

std::optional<RepKind> ParseRepKind(const std::string& name) {
  for (RepKind k : {RepKind::kCompressed, RepKind::kDecomposed,
                    RepKind::kDirect, RepKind::kMaterialized,
                    RepKind::kUpdatable}) {
    if (name == RepKindName(k)) return k;
  }
  return std::nullopt;
}

RepCapabilities KindCapabilities(RepKind kind, int num_free,
                                 bool with_aggregates) {
  RepCapabilities c;
  switch (kind) {
    case RepKind::kCompressed:
      c.lex_ordered = true;
      c.range_restricted = num_free > 0;
      c.low_delay_resume = true;
      c.sharded = num_free > 0;
      c.aggregates = with_aggregates;
      break;
    case RepKind::kDecomposed:
      c.sharded = num_free > 0;
      c.counting = true;
      c.aggregates = true;  // the CountAnswer recurrence lifted to the ring
      break;
    case RepKind::kDirect:
      c.lex_ordered = true;
      c.range_restricted = num_free > 0;
      c.low_delay_resume = true;
      break;
    case RepKind::kMaterialized:
      c.lex_ordered = true;
      c.counting = true;
      c.aggregates = true;  // columnar fold over the refined row range
      break;
    case RepKind::kUpdatable:
      c.updatable = true;
      c.aggregates = with_aggregates;
      break;
  }
  return c;
}

std::string CapabilityTags(const RepCapabilities& caps) {
  std::string out;
  const auto add = [&out](bool on, const char* tag) {
    if (!on) return;
    if (!out.empty()) out += ',';
    out += tag;
  };
  add(caps.lex_ordered, "lex");
  add(caps.range_restricted, "range");
  add(caps.low_delay_resume, "resume");
  add(caps.sharded, "shard");
  add(caps.counting, "count");
  add(caps.updatable, "update");
  add(caps.aggregates, "agg");
  return out.empty() ? "-" : out;
}

// --- AnswerRep: hardened entry points ---------------------------------------

Status AnswerRep::ValidateRequest(const BoundValuation& vb) const {
  if ((int)vb.size() != view().num_bound()) {
    return Status::Error(StrFormat(
        "access request carries %zu bound value(s); view %s expects %d",
        vb.size(), view().ToString().c_str(), view().num_bound()));
  }
  return Status::Ok();
}

namespace {

/// Wraps `e` with per-batch deadline polling when a context is present.
std::unique_ptr<TupleEnumerator> MaybeDeadlineWrap(
    std::unique_ptr<TupleEnumerator> e, const RequestContext* ctx) {
  if (ctx == nullptr) return e;
  return std::make_unique<DeadlineCheckedEnumerator>(std::move(e), ctx);
}

}  // namespace

EnumeratorResult AnswerRep::Answer(const BoundValuation& vb,
                                   const RequestContext* ctx) const {
  if (Status s = ValidateRequest(vb); !s.ok()) return s;
  if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
  return MaybeDeadlineWrap(AnswerImpl(vb), ctx);
}

EnumeratorResult AnswerRep::AnswerRange(const BoundValuation& vb,
                                        const FInterval& range,
                                        const RequestContext* ctx) const {
  if (Status s = ValidateRequest(vb); !s.ok()) return s;
  if (!capabilities().range_restricted) {
    return Status::Error(
        StrFormat("%s does not support range-restricted enumeration",
                  RepKindName(kind())));
  }
  const int mu = view().num_free();
  if (mu == 0)
    return Status::Error("range enumeration needs a free dimension");
  if ((int)range.lo.size() != mu || (int)range.hi.size() != mu) {
    return Status::Error(StrFormat(
        "range arity mismatch: [%zu, %zu] bounds over %d free variable(s)",
        range.lo.size(), range.hi.size(), mu));
  }
  if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
  return MaybeDeadlineWrap(AnswerRangeImpl(vb, range), ctx);
}

EnumeratorResult AnswerRep::Resume(const BoundValuation& vb,
                                   const EnumerationCursor& cursor,
                                   const RequestContext* ctx) const {
  if (Status s = ValidateRequest(vb); !s.ok()) return s;
  if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
  EnumeratorResult r = ResumeImpl(vb, cursor);
  if (!r.ok()) return r;
  return MaybeDeadlineWrap(std::move(r).value(), ctx);
}

Result<bool> AnswerRep::AnswerExists(const BoundValuation& vb,
                                     const RequestContext* ctx) const {
  if (Status s = ValidateRequest(vb); !s.ok()) return s;
  // Existence is one O(delay) pull — the entry check suffices.
  if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
  Tuple t;
  return AnswerImpl(vb)->Next(&t);
}

Result<uint64_t> AnswerRep::Count(const BoundValuation& vb,
                                  const RequestContext* ctx) const {
  if (Status s = ValidateRequest(vb); !s.ok()) return s;
  if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
  if (ctx == nullptr || capabilities().counting) {
    // Counting-capable structures answer in O~(num_bound) index work; a
    // mid-count deadline check would cost more than the count.
    return CountImpl(vb);
  }
  // Drain at this layer with per-batch polling instead of delegating to
  // CountImpl's uninterruptible drain.
  DeadlineCheckedEnumerator e(AnswerImpl(vb), ctx);
  const uint64_t n = DrainBatched(e, view().num_free());
  if (!e.status().ok()) return e.status();
  return n;
}

Result<AggregateResult> AnswerRep::AnswerAggregate(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec, const RequestContext* ctx) const {
  if (Status s = ValidateRequest(vb); !s.ok()) return s;
  const int mu = view().num_free();
  for (size_t i = 0; i < group_vars.size(); ++i) {
    if (group_vars[i] < 0 || group_vars[i] >= mu)
      return Status::Error(StrFormat(
          "aggregate: group variable %d out of range [0, %d)", group_vars[i],
          mu));
    if (i > 0 && group_vars[i] <= group_vars[i - 1])
      return Status::Error(
          "aggregate: group variables must be strictly ascending");
  }
  if (spec.func != AggFunc::kCount) {
    if (spec.value_var < 0 || spec.value_var >= mu)
      return Status::Error(StrFormat(
          "aggregate: %s needs a value variable in [0, %d)",
          AggFuncName(spec.func), mu));
  }
  if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
  if (ctx == nullptr || capabilities().aggregates) {
    // A pushed fold runs inside the structure (annotated walk / columnar
    // fold) — far cheaper than enumeration, entry check only.
    return AnswerAggregateImpl(vb, group_vars, spec);
  }
  // Drain-and-fold path: poll the deadline per batch at this layer.
  DeadlineCheckedEnumerator e(AnswerImpl(vb), ctx);
  AggregateResult agg =
      GroupedDrainAggregate(e, view().num_free(), group_vars, spec);
  if (!e.status().ok()) return e.status();
  return agg;
}

EnumeratorResult AnswerRep::ParallelAnswer(const BoundValuation& vb,
                                           const ParallelOptions& options,
                                           const RequestContext* ctx) const {
  if (Status s = ValidateRequest(vb); !s.ok()) return s;
  if (options.num_threads < 0)
    return Status::Error("num_threads must be >= 0");
  if (Status s = RequestContext::Check(ctx); !s.ok()) return s;
  // Producers poll per chunk; the consumer-facing stream polls per batch.
  ParallelOptions opts = options;
  if (opts.ctx == nullptr) opts.ctx = ctx;
  return MaybeDeadlineWrap(ParallelAnswerImpl(vb, opts), ctx);
}

// --- AnswerRep: default implementations -------------------------------------

std::unique_ptr<TupleEnumerator> AnswerRep::AnswerRangeImpl(
    const BoundValuation& vb, const FInterval& range) const {
  // Only reachable when a subclass advertises range_restricted but forgets
  // the override.
  CQC_CHECK(false) << RepKindName(kind())
                   << ": AnswerRangeImpl missing despite capability";
  return nullptr;
}

EnumeratorResult AnswerRep::ResumeImpl(const BoundValuation& vb,
                                       const EnumerationCursor& cursor) const {
  // Generic skip-ahead resume (core/cursor.h): every answering path
  // enumerates a deterministic order, so dropping `emitted` tuples lands
  // exactly where the cursor paused. A cursor carrying lex-range bounds
  // (taken over a ranged/shard stream) cannot be honored here — silently
  // skipping on the full stream would replay other shards' tuples.
  if (cursor.exhausted) return EmptyStream(view().num_free());
  if (!cursor.range_lo.empty() || !cursor.range_hi.empty())
    return Status::Error(
        StrFormat("resume: %s cannot honor a range-restricted cursor",
                  RepKindName(kind())));
  if (cursor.has_last && (int)cursor.last.size() != view().num_free())
    return Status::Error("resume: cursor tuple arity mismatch");
  std::unique_ptr<TupleEnumerator> e = AnswerImpl(vb);
  SkipTuples(*e, view().num_free(), cursor.emitted);
  return std::unique_ptr<TupleEnumerator>(std::move(e));
}

uint64_t AnswerRep::CountImpl(const BoundValuation& vb) const {
  auto e = AnswerImpl(vb);
  return DrainBatched(*e, view().num_free());
}

AggregateResult AnswerRep::AnswerAggregateImpl(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  auto e = AnswerImpl(vb);
  return GroupedDrainAggregate(*e, view().num_free(), group_vars, spec);
}

std::unique_ptr<TupleEnumerator> AnswerRep::ParallelAnswerImpl(
    const BoundValuation& vb, const ParallelOptions& options) const {
  return AnswerImpl(vb);
}

Status AnswerRep::ApplyDelta(const UpdateBatch& delta) {
  return Status::Error(
      StrFormat("%s does not support in-place updates; rebuild (or let the "
                "serving cache invalidate) instead",
                RepKindName(kind())));
}

// --- CompressedAnswerRep ----------------------------------------------------

CompressedAnswerRep::CompressedAnswerRep(std::unique_ptr<CompressedRep> rep)
    : rep_(std::move(rep)) {
  CQC_CHECK(rep_ != nullptr);
}

RepCapabilities CompressedAnswerRep::capabilities() const {
  return KindCapabilities(RepKind::kCompressed, rep_->view().num_free(),
                          rep_->has_aggregates());
}

std::string CompressedAnswerRep::Describe() const {
  const CompressedRepStats& s = rep_->stats();
  return StrFormat(
      "compressed(tau=%.1f alpha=%.2f rho=%.2f tree=%zu nodes depth=%d "
      "dict=%zu entries space=%zu B)",
      rep_->tau(), s.alpha, s.rho, s.tree_nodes, s.tree_depth, s.dict_entries,
      SpaceBytes());
}

std::unique_ptr<TupleEnumerator> CompressedAnswerRep::AnswerImpl(
    const BoundValuation& vb) const {
  return rep_->Answer(vb);
}

std::unique_ptr<TupleEnumerator> CompressedAnswerRep::AnswerRangeImpl(
    const BoundValuation& vb, const FInterval& range) const {
  return rep_->AnswerRange(vb, range);
}

EnumeratorResult CompressedAnswerRep::ResumeImpl(
    const BoundValuation& vb, const EnumerationCursor& cursor) const {
  // O(delay) range-restricted resume, with the structure's own cursor
  // validation (off-grid tuples, arity) intact.
  return rep_->Resume(vb, cursor);
}

std::unique_ptr<TupleEnumerator> CompressedAnswerRep::ParallelAnswerImpl(
    const BoundValuation& vb, const ParallelOptions& options) const {
  return cqc::ParallelAnswer(*rep_, vb, options);
}

AggregateResult CompressedAnswerRep::AnswerAggregateImpl(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  // Pushed annotated walk when built with annotations; drain-fold inside.
  return rep_->AnswerAggregate(vb, group_vars, spec);
}

// --- DecomposedAnswerRep ----------------------------------------------------

DecomposedAnswerRep::DecomposedAnswerRep(std::unique_ptr<DecomposedRep> rep)
    : rep_(std::move(rep)) {
  CQC_CHECK(rep_ != nullptr);
}

RepCapabilities DecomposedAnswerRep::capabilities() const {
  // Algorithm 5's order follows the decomposition, not the output lex
  // order; resume is the O(emitted) skip-ahead.
  return KindCapabilities(RepKind::kDecomposed, rep_->view().num_free(),
                          /*with_aggregates=*/true);
}

std::string DecomposedAnswerRep::Describe() const {
  const DecomposedRepStats& s = rep_->stats();
  return StrFormat(
      "decomposed(width=%.2f height=%.2f bags=%zu space=%zu B)",
      s.metrics.width, s.metrics.height, s.bag_aux_bytes.size(),
      SpaceBytes());
}

std::unique_ptr<TupleEnumerator> DecomposedAnswerRep::AnswerImpl(
    const BoundValuation& vb) const {
  return rep_->Answer(vb);
}

EnumeratorResult DecomposedAnswerRep::ResumeImpl(
    const BoundValuation& vb, const EnumerationCursor& cursor) const {
  if (cursor.exhausted) return EmptyStream(view().num_free());
  // Algorithm 5's order is not lex, so a range-carrying cursor (taken over
  // some other structure's ranged stream) cannot be honored; shard cursors
  // go through DecomposedRep::ResumeShard directly.
  if (!cursor.range_lo.empty() || !cursor.range_hi.empty())
    return Status::Error(
        "resume: decomposed cannot honor a range-restricted cursor");
  if (cursor.has_last && (int)cursor.last.size() != view().num_free())
    return Status::Error("resume: cursor tuple arity mismatch");
  return std::unique_ptr<TupleEnumerator>(rep_->Resume(vb, cursor));
}

uint64_t DecomposedAnswerRep::CountImpl(const BoundValuation& vb) const {
  // §3.2 aggregation: bottom-up DP over the decomposition, no enumeration.
  return rep_->CountAnswer(vb);
}

std::unique_ptr<TupleEnumerator> DecomposedAnswerRep::ParallelAnswerImpl(
    const BoundValuation& vb, const ParallelOptions& options) const {
  return cqc::ParallelAnswer(*rep_, vb, options);
}

AggregateResult DecomposedAnswerRep::AnswerAggregateImpl(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  return rep_->AnswerAggregate(vb, group_vars, spec);
}

// --- DirectAnswerRep --------------------------------------------------------

DirectAnswerRep::DirectAnswerRep(std::unique_ptr<DirectEval> rep)
    : rep_(std::move(rep)) {
  CQC_CHECK(rep_ != nullptr);
}

RepCapabilities DirectAnswerRep::capabilities() const {
  RepCapabilities c;
  c.lex_ordered = true;
  c.range_restricted = rep_->view().num_free() > 0;
  c.low_delay_resume = true;  // range-restricted resume below
  return c;
}

std::string DirectAnswerRep::Describe() const {
  return StrFormat("direct(index space=%zu B)", SpaceBytes());
}

std::unique_ptr<TupleEnumerator> DirectAnswerRep::AnswerImpl(
    const BoundValuation& vb) const {
  return rep_->Answer(vb);
}

std::unique_ptr<TupleEnumerator> DirectAnswerRep::AnswerRangeImpl(
    const BoundValuation& vb, const FInterval& range) const {
  return rep_->AnswerRange(vb, range);
}

EnumeratorResult DirectAnswerRep::ResumeImpl(
    const BoundValuation& vb, const EnumerationCursor& cursor) const {
  // The generic-join stream is lexicographic, so resume = range-restricted
  // enumeration over [succ(last), range_hi] in raw value space (no grid:
  // the join itself skips values absent from the data).
  const int mu = view().num_free();
  if (cursor.exhausted) return EmptyStream(mu);
  if (mu == 0) {
    if (cursor.emitted > 0) return EmptyStream(mu);
    return std::unique_ptr<TupleEnumerator>(AnswerImpl(vb));
  }
  FInterval range{Tuple((size_t)mu, kBottom), Tuple((size_t)mu, kTop)};
  if (!cursor.range_hi.empty()) {
    if ((int)cursor.range_hi.size() != mu)
      return Status::Error("resume: cursor range arity mismatch");
    range.hi = cursor.range_hi;
  }
  if (!cursor.range_lo.empty()) {
    if ((int)cursor.range_lo.size() != mu)
      return Status::Error("resume: cursor range arity mismatch");
    range.lo = cursor.range_lo;
  }
  if (cursor.has_last) {
    if ((int)cursor.last.size() != mu)
      return Status::Error("resume: cursor tuple arity mismatch");
    range.lo = cursor.last;
    if (!ValueSpaceSucc(range.lo))  // paused on the value-space maximum
      return EmptyStream(mu);
  }
  return std::unique_ptr<TupleEnumerator>(rep_->AnswerRange(vb, range));
}

// --- MaterializedAnswerRep --------------------------------------------------

MaterializedAnswerRep::MaterializedAnswerRep(
    std::unique_ptr<MaterializedView> rep)
    : rep_(std::move(rep)) {
  CQC_CHECK(rep_ != nullptr);
}

RepCapabilities MaterializedAnswerRep::capabilities() const {
  // Lex-ordered because the table is sorted by [bound..., free...].
  return KindCapabilities(RepKind::kMaterialized, rep_->view().num_free(),
                          /*with_aggregates=*/true);
}

std::string MaterializedAnswerRep::Describe() const {
  return StrFormat("materialized(%zu tuples space=%zu B)",
                   rep_->num_tuples(), SpaceBytes());
}

std::unique_ptr<TupleEnumerator> MaterializedAnswerRep::AnswerImpl(
    const BoundValuation& vb) const {
  return rep_->Answer(vb);
}

uint64_t MaterializedAnswerRep::CountImpl(const BoundValuation& vb) const {
  // O(num_bound * log) index refinements; no scan.
  return rep_->CountAnswer(vb);
}

AggregateResult MaterializedAnswerRep::AnswerAggregateImpl(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  return rep_->AnswerAggregate(vb, group_vars, spec);
}

// --- UpdatableAnswerRep -----------------------------------------------------

UpdatableAnswerRep::UpdatableAnswerRep(std::unique_ptr<UpdatableRep> rep)
    : rep_(std::move(rep)) {
  CQC_CHECK(rep_ != nullptr);
}

RepCapabilities UpdatableAnswerRep::capabilities() const {
  // The combined stream (snapshot part, then delta part) is not globally
  // lexicographic, so no order-dependent capability is advertised. The
  // aggregate flag follows the snapshot structure's annotations (pending
  // epochs still answer, via drain-and-fold).
  return KindCapabilities(RepKind::kUpdatable, rep_->view().num_free(),
                          rep_->has_aggregates());
}

std::string UpdatableAnswerRep::Describe() const {
  // One consistent epoch read: piecemeal accessors could mix epochs (or
  // dangle) under a concurrent background fold.
  const UpdatableRep::Info info = rep_->GetInfo();
  return StrFormat(
      "updatable(tau=%.1f snapshot=%zu tuples pending=+%zu/-%zu rebuilds=%d "
      "space=%zu B)",
      info.tau, info.snapshot_tuples, info.pending_inserts,
      info.pending_deletes, info.num_rebuilds, info.space_bytes);
}

Status UpdatableAnswerRep::ApplyDelta(const UpdateBatch& delta) {
  return rep_->Apply(delta);
}

std::unique_ptr<TupleEnumerator> UpdatableAnswerRep::AnswerImpl(
    const BoundValuation& vb) const {
  return rep_->Answer(vb);
}

AggregateResult UpdatableAnswerRep::AnswerAggregateImpl(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  return rep_->AnswerAggregate(vb, group_vars, spec);
}

// --- factories --------------------------------------------------------------

std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<CompressedRep> rep) {
  return std::make_unique<CompressedAnswerRep>(std::move(rep));
}
std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<DecomposedRep> rep) {
  return std::make_unique<DecomposedAnswerRep>(std::move(rep));
}
std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<DirectEval> rep) {
  return std::make_unique<DirectAnswerRep>(std::move(rep));
}
std::unique_ptr<AnswerRep> WrapAnswerRep(
    std::unique_ptr<MaterializedView> rep) {
  return std::make_unique<MaterializedAnswerRep>(std::move(rep));
}
std::unique_ptr<AnswerRep> WrapAnswerRep(std::unique_ptr<UpdatableRep> rep) {
  return std::make_unique<UpdatableAnswerRep>(std::move(rep));
}

Result<std::unique_ptr<AnswerRep>> BuildAnswerRep(const RepBuildSpec& spec,
                                                  const AdornedView& view,
                                                  const Database& db,
                                                  const Database* aux_db) {
  // Per-family injection sites ("build/compressed", ...) plus a
  // family-independent one ("build/any") — chaos tests arm the former to
  // steer degradation down a specific fallback chain and the latter to
  // fail whatever the planner picked.
  CQC_FAILPOINT_RESULT("build/any");
  if (failpoint::AnyArmed() &&
      failpoint::ShouldFail(std::string("build/") + RepKindName(spec.kind))) {
    return failpoint::InjectedFault(std::string("build/") +
                                    RepKindName(spec.kind));
  }
  switch (spec.kind) {
    case RepKind::kCompressed: {
      auto rep = CompressedRep::Build(view, db, spec.compressed, aux_db);
      if (!rep.ok()) return rep.status();
      return WrapAnswerRep(std::move(rep).value());
    }
    case RepKind::kDecomposed: {
      TreeDecomposition td;
      if (spec.decomposition.has_value()) {
        td = *spec.decomposition;
      } else {
        Hypergraph h(view.cq());
        auto found = SearchConnexDecomposition(h, view.bound_set());
        if (!found.ok()) return found.status();
        td = std::move(found).value().decomposition;
      }
      auto rep = DecomposedRep::Build(view, db, td, spec.decomposed, aux_db);
      if (!rep.ok()) return rep.status();
      return WrapAnswerRep(std::move(rep).value());
    }
    case RepKind::kDirect: {
      auto rep = DirectEval::Build(view, db, aux_db);
      if (!rep.ok()) return rep.status();
      return WrapAnswerRep(std::move(rep).value());
    }
    case RepKind::kMaterialized: {
      auto rep = MaterializedView::Build(view, db, aux_db);
      if (!rep.ok()) return rep.status();
      return WrapAnswerRep(std::move(rep).value());
    }
    case RepKind::kUpdatable: {
      auto rep = UpdatableRep::Build(view, db, spec.updatable, aux_db);
      if (!rep.ok()) return rep.status();
      return WrapAnswerRep(std::move(rep).value());
    }
  }
  return Status::Error("unknown representation kind");
}

}  // namespace cqc
