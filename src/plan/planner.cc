#include "plan/planner.h"

#include <algorithm>
#include <cmath>

#include "decomposition/connex_builder.h"
#include "decomposition/delay_assignment.h"
#include "fractional/edge_cover.h"
#include "fractional/optimizer.h"
#include "query/hypergraph.h"
#include "util/str_util.h"

namespace cqc {
namespace {

/// Stand-in for "unlimited" in log space: e^700 is finite in double
/// arithmetic, so the LPs stay well-conditioned.
constexpr double kUnlimitedLog = 700.0;
constexpr double kFeasibilityEps = 1e-6;

double Dot(const std::vector<double>& u, const std::vector<double>& logs) {
  double s = 0;
  for (size_t i = 0; i < u.size() && i < logs.size(); ++i) s += u[i] * logs[i];
  return s;
}

/// Tie-break order when predicted delay and space coincide: the paper's
/// tunable structure first (cheapest build at equal guarantees), the
/// full-output baseline last.
int KindPreference(RepKind kind) {
  switch (kind) {
    case RepKind::kCompressed:
      return 0;
    case RepKind::kDecomposed:
      return 1;
    case RepKind::kMaterialized:
      return 2;
    case RepKind::kDirect:
      return 3;
    case RepKind::kUpdatable:
      return 4;  // at equal cost, prefer the simpler static structures
  }
  return 5;
}

/// ln(e^a + e^b) without overflow: combining additive cost terms that are
/// carried as logarithms.
double LogAddExp(double a, double b) {
  const double m = std::max(a, b);
  return m + std::log(std::exp(a - m) + std::exp(b - m));
}

struct Scored {
  PlanCandidate pub;
  RepBuildSpec spec;
  /// The candidate produced a complete build spec (its LP / search
  /// succeeded). Distinct from pub.feasible, which additionally requires
  /// fitting the budget: only buildable candidates may ever be selected.
  bool buildable = false;
};

}  // namespace

std::string Plan::Explain() const {
  const double ln = log_n > 0 ? log_n : 1.0;
  std::string out = StrFormat("plan: %s", RepKindName(spec.kind));
  if (spec.kind == RepKind::kCompressed)
    out += StrFormat(" tau=%.1f", spec.compressed.tau);
  out += StrFormat(" — predicted space N^%.2f, delay N^%.2f",
                   predicted_log_space / ln, predicted_log_delay / ln);
  if (log_space_budget >= 0) {
    out += StrFormat(", budget N^%.2f", log_space_budget / ln);
    if (!within_budget) out += " (EXCEEDED: no candidate fits)";
  } else {
    out += ", budget unlimited";
  }
  out += "\n";
  out +=
      "index policy: isolated point probes -> binary search over the "
      "relation's sorted columns; "
      "enumeration runs (light subtrees and split points) -> hinted seeks "
      "of the request's forward join cursor; lex-range scans and count "
      "oracle -> sorted tries\n";
  if (churn_per_request > 0)
    out += StrFormat(
        "churn: %.3g mutations/request priced into every candidate "
        "(static structures pay invalidate+rebuild; updatable pays delta "
        "join + amortized fold)\n",
        churn_per_request);
  if (aggregate_fraction > 0)
    out += StrFormat(
        "aggregates: %.2g of requests priced as pushed group-bys "
        "(annotated structures pay ~2x space for the ring cells; "
        "fold-only structures pay their scan or drain per aggregate)\n",
        aggregate_fraction);
  for (const PlanCandidate& c : candidates) {
    out += StrFormat("  %-12s %-4s space N^%.2f delay N^%.2f [%s]",
                     RepKindName(c.kind), c.feasible ? "ok" : "skip",
                     c.predicted_log_space / ln, c.predicted_log_delay / ln,
                     CapabilityTags(c.caps).c_str());
    if (c.kind == RepKind::kCompressed && c.feasible)
      out += StrFormat(" tau=%.1f", c.tau);
    if (!c.note.empty()) out += " — " + c.note;
    out += "\n";
  }
  return out;
}

Result<Plan> Planner::PlanView(const AdornedView& view,
                               const PlannerOptions& options) const {
  if (!view.cq().IsNaturalJoin())
    return Status::Error(
        "planner requires a natural-join view (run NormalizeView first)");
  Result<CatalogStats> stats_or = CollectCatalogStats(view, *db_, aux_db_);
  if (!stats_or.ok()) return stats_or.status();
  CatalogStats stats = stats_or.value();
  // Churn is a workload property, not a data property: record the caller's
  // rate into the catalog stats the candidates are priced from.
  stats.churn_per_request = std::max(0.0, options.churn_per_request);
  const double churn = stats.churn_per_request;
  const double log_churn = churn > 0 ? std::log(churn) : 0;
  const Hypergraph h(view.cq());
  const int mu = view.num_free();

  Plan plan;
  plan.log_n = stats.log_n;
  plan.churn_per_request = churn;
  plan.log_space_budget = options.space_budget_exponent < 0
                              ? -1
                              : options.space_budget_exponent * stats.log_n;
  const double budget = plan.log_space_budget < 0 ? kUnlimitedLog
                                                  : plan.log_space_budget;

  const double agg_f =
      std::clamp(options.aggregate_fraction, 0.0, 1.0);
  plan.aggregate_fraction = agg_f;

  std::vector<Scored> scored;
  auto add = [&](Scored s) {
    if (agg_f > 0 && s.buildable) {
      // Aggregate workload: annotated kinds build the ring cells (a
      // constant-factor space increase: one count plus 3*mu values next to
      // each ~mu-word node/entry row, charged as ln 2) and answer a pushed
      // aggregate by interval arithmetic (~N^0); materialized/decomposed
      // fold by scanning their structure (~their space); direct drains the
      // full join (~its enumeration delay). The candidate's delay becomes
      // the (1-f, f) request mix of enumeration and aggregate cost.
      double agg_log_delay = 0;
      switch (s.pub.kind) {
        case RepKind::kCompressed:
          s.spec.compressed.build_aggregates = true;
          s.pub.predicted_log_space += std::log(2.0);
          break;
        case RepKind::kUpdatable:
          s.spec.updatable.rep.build_aggregates = true;
          s.pub.predicted_log_space += std::log(2.0);
          break;
        case RepKind::kMaterialized:
        case RepKind::kDecomposed:
          agg_log_delay = s.pub.predicted_log_space;
          break;
        case RepKind::kDirect:
          agg_log_delay = s.pub.predicted_log_delay;
          break;
      }
      const double mixed =
          agg_f >= 1.0
              ? agg_log_delay
              : LogAddExp(std::log(1.0 - agg_f) + s.pub.predicted_log_delay,
                          std::log(agg_f) + agg_log_delay);
      s.pub.note += StrFormat("; agg N^%.2f at f=%.2g",
                              agg_log_delay / std::max(stats.log_n, 1.0),
                              agg_f);
      s.pub.predicted_log_delay = mixed;
    }
    const bool with_agg =
        agg_f > 0 && (s.pub.kind == RepKind::kCompressed ||
                      s.pub.kind == RepKind::kUpdatable);
    s.pub.caps = KindCapabilities(s.pub.kind, mu, with_agg);
    // Under churn, a static structure is invalidated by every mutation and
    // rebuilt from scratch (cost ~ its size in tuple units), amortized over
    // 1/churn requests: delay += churn * space.
    if (churn > 0 && s.buildable && s.pub.kind != RepKind::kUpdatable) {
      s.pub.predicted_log_delay =
          LogAddExp(s.pub.predicted_log_delay,
                    log_churn + s.pub.predicted_log_space);
      s.pub.note += StrFormat("; +churn rebuild N^%.2f",
                              (log_churn + s.pub.predicted_log_space) /
                                  std::max(stats.log_n, 1.0));
    }
    s.pub.feasible = s.buildable;
    if (s.buildable && s.pub.predicted_log_space > budget + kFeasibilityEps) {
      s.pub.feasible = false;
      s.pub.note += s.pub.note.empty() ? "over budget" : "; over budget";
    }
    scored.push_back(std::move(s));
  };

  if (options.consider_materialized) {
    Scored s;
    s.pub.kind = s.spec.kind = RepKind::kMaterialized;
    EdgeCover cover = FractionalEdgeCover(h, view.cq().BodyVars());
    if (cover.ok) {
      // Output size is bounded by AGM (eq. 1); the structure stores the
      // output plus its index, answering with O(1) delay.
      s.pub.predicted_log_space =
          std::max(stats.log_input, Dot(cover.weights, stats.log_sizes));
      s.pub.predicted_log_delay = 0;
      s.buildable = true;
      s.pub.note = StrFormat("output <= N^%.2f by AGM",
                             s.pub.predicted_log_space / stats.log_n);
    } else {
      s.pub.note = "no fractional edge cover";
    }
    add(std::move(s));
  }

  if (options.consider_compressed) {
    Scored s;
    s.pub.kind = s.spec.kind = RepKind::kCompressed;
    if (mu == 0) {
      // Prop. 1: boolean adorned views answer in O(1) from linear space;
      // there is no tradeoff to tune.
      s.pub.tau = s.spec.compressed.tau = 1.0;
      s.pub.predicted_log_space = stats.log_input;
      s.pub.predicted_log_delay = 0;
      s.buildable = true;
      s.pub.note = "boolean view (Prop. 1)";
    } else {
      CoverSolution sol =
          MinDelayCover(h, view.free_set(), stats.log_sizes, budget);
      if (sol.feasible) {
        s.pub.tau = s.spec.compressed.tau = std::exp(sol.log_tau);
        s.spec.compressed.cover = sol.u;
        s.pub.predicted_log_space = std::max(stats.log_input, sol.log_space);
        s.pub.predicted_log_delay = sol.log_tau;
        s.buildable = true;
        s.pub.note = StrFormat("MinDelayCover alpha=%.2f", sol.alpha);
      } else {
        s.pub.note = "MinDelayCover infeasible at this budget";
      }
    }
    add(std::move(s));
  }

  if (options.consider_updatable && churn > 0) {
    // §8 extension: a Theorem-1 snapshot plus a signed pending delta. Per
    // request it pays the snapshot delay, the delta-join overhead (~ the
    // pending mass f*|D|), and the amortized fold (churn * build / (f*|D|)
    // with build ~ space); the planner picks the rebuild fraction f that
    // balances the last two terms.
    Scored s;
    s.pub.kind = s.spec.kind = RepKind::kUpdatable;
    double log_tau = 0, log_space = stats.log_input;
    bool snapshot_ok = true;
    if (mu == 0) {
      s.spec.updatable.rep.tau = 1.0;
      s.pub.note = "boolean snapshot (Prop. 1)";
    } else {
      CoverSolution sol =
          MinDelayCover(h, view.free_set(), stats.log_sizes, budget);
      if (sol.feasible) {
        log_tau = sol.log_tau;
        log_space = std::max(stats.log_input, sol.log_space);
        s.spec.updatable.rep.tau = std::exp(sol.log_tau);
        s.spec.updatable.rep.cover = sol.u;
      } else {
        snapshot_ok = false;
        s.pub.note = "MinDelayCover infeasible at this budget";
      }
    }
    if (snapshot_ok) {
      // Balance per-request delta work f*|D| against fold amortization
      // churn*build/(f*|D|). The fold is priced at the near-linear build
      // cost O~(|D|) (the LP's space bound saturates to the budget, which
      // would overprice it): log f* = (log churn - log |D|) / 2.
      const double log_f =
          std::clamp(0.5 * (log_churn - stats.log_input), std::log(1e-4),
                     std::log(0.5));
      const double log_delta_work = log_f + stats.log_input;
      const double log_fold = log_churn - log_f;
      s.spec.updatable.rebuild_fraction = std::exp(log_f);
      s.pub.tau = s.spec.updatable.rep.tau;
      s.pub.predicted_log_space = log_space;  // delta <= f|D| is absorbed
      s.pub.predicted_log_delay =
          LogAddExp(log_tau, LogAddExp(log_delta_work, log_fold));
      s.buildable = true;
      s.pub.note += StrFormat(
          "%ssnapshot tau=%.1f, delta N^%.2f + fold N^%.2f at f=%.3g",
          s.pub.note.empty() ? "" : "; ", s.spec.updatable.rep.tau,
          log_delta_work / std::max(stats.log_n, 1.0),
          log_fold / std::max(stats.log_n, 1.0),
          s.spec.updatable.rebuild_fraction);
    }
    add(std::move(s));
  }

  if (options.consider_decomposed && mu > 0 &&
      mu <= options.max_free_vars_for_decomposition) {
    Scored s;
    s.pub.kind = s.spec.kind = RepKind::kDecomposed;
    Result<ConnexSearchResult> found =
        SearchConnexDecomposition(h, view.bound_set());
    if (found.ok()) {
      TreeDecomposition td = std::move(found).value().decomposition;
      DelayAssignment delta =
          plan.log_space_budget < 0
              ? DelayAssignment::Zero(td)
              : OptimizeDelayAssignment(td, h, stats.log_n, budget);
      DecompositionMetrics metrics = ComputeMetrics(td, h, delta);
      s.pub.predicted_log_space =
          std::max(stats.log_input, metrics.width * stats.log_n);
      s.pub.predicted_log_delay = metrics.height * stats.log_n;
      s.buildable = true;
      s.pub.note = StrFormat("connex width=%.2f height=%.2f", metrics.width,
                             metrics.height);
      s.spec.decomposition = std::move(td);
      s.spec.decomposed.delta = std::move(delta);
    } else {
      s.pub.note = found.status().message();
    }
    add(std::move(s));
  }

  if (options.consider_direct) {
    Scored s;
    s.pub.kind = s.spec.kind = RepKind::kDirect;
    s.pub.predicted_log_space = stats.log_input;
    if (mu == 0) {
      s.pub.predicted_log_delay = 0;  // per-atom membership probes
      s.pub.note = "boolean probe";
    } else {
      // A worst-case optimal join evaluates the residual query in time
      // AGM(free cover) per request (Prop. 6 applied to the full range).
      EdgeCover cover = FractionalEdgeCover(h, view.free_set());
      s.pub.predicted_log_delay =
          cover.ok ? Dot(cover.weights, stats.log_sizes) : kUnlimitedLog;
      s.pub.note = "per-request worst-case optimal join";
    }
    s.buildable = true;
    add(std::move(s));
  }

  if (scored.empty())
    return Status::Error("planner: no candidate representations enabled");

  // Minimum predicted delay among budget-feasible candidates; ties prefer
  // smaller space, then the cheaper structure. If nothing fits, fall back
  // to the smallest-space candidate and flag the overrun.
  const Scored* best = nullptr;
  for (const Scored& s : scored) {
    if (!s.pub.feasible) continue;
    if (best == nullptr ||
        s.pub.predicted_log_delay <
            best->pub.predicted_log_delay - kFeasibilityEps ||
        (std::abs(s.pub.predicted_log_delay - best->pub.predicted_log_delay) <=
             kFeasibilityEps &&
         (s.pub.predicted_log_space <
              best->pub.predicted_log_space - kFeasibilityEps ||
          (std::abs(s.pub.predicted_log_space -
                    best->pub.predicted_log_space) <= kFeasibilityEps &&
           KindPreference(s.pub.kind) < KindPreference(best->pub.kind))))) {
      best = &s;
    }
  }
  if (best == nullptr) {
    plan.within_budget = false;
    for (const Scored& s : scored) {
      if (!s.buildable) continue;
      if (best == nullptr ||
          s.pub.predicted_log_space < best->pub.predicted_log_space)
        best = &s;
    }
  }
  if (best == nullptr)
    return Status::Error("planner: no buildable candidate for this view");

  plan.spec = best->spec;
  plan.predicted_log_space = best->pub.predicted_log_space;
  plan.predicted_log_delay = best->pub.predicted_log_delay;
  for (Scored& s : scored) plan.candidates.push_back(std::move(s.pub));
  return plan;
}

Result<std::unique_ptr<AnswerRep>> Planner::BuildPlan(const AdornedView& view,
                                                      const Plan& plan) const {
  return BuildAnswerRep(plan.spec, view, *db_, aux_db_);
}

}  // namespace cqc
