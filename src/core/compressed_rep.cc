#include "core/compressed_rep.h"

#include <cstring>
#include <set>

#include "fractional/edge_cover.h"
#include "join/generic_join.h"
#include "query/normalize.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cqc {

CompressedRep::CompressedRep(AdornedView view, std::vector<BoundAtom> atoms,
                             LexDomain domain, std::vector<double> exponents,
                             double tau, double alpha)
    : view_(std::move(view)),
      atoms_(std::move(atoms)),
      domain_(std::move(domain)),
      cost_(&atoms_, std::move(exponents)),
      tau_(tau),
      alpha_(alpha) {}

Result<std::unique_ptr<CompressedRep>> CompressedRep::MakeSkeleton(
    const AdornedView& view, const Database& db,
    const std::vector<double>& u, double tau, const Database* aux_db) {
  const ConjunctiveQuery& cq = view.cq();
  if (!cq.IsNaturalJoin())
    return Status::Error(
        "CompressedRep requires a natural join view; run NormalizeView "
        "first: " +
        cq.ToString());
  if (tau <= 0) return Status::Error("tau must be positive");

  // Resolve relations.
  std::vector<const Relation*> rels;
  for (const Atom& atom : cq.atoms()) {
    const Relation* r = ResolveRelation(atom.relation, db, aux_db);
    if (r == nullptr)
      return Status::Error("unknown relation " + atom.relation);
    if (!r->sealed())
      return Status::Error("relation " + atom.relation + " is not sealed");
    if (r->arity() != atom.arity())
      return Status::Error("arity mismatch on " + atom.relation);
    rels.push_back(r);
  }

  // Validate coverage of every body variable.
  Hypergraph h(cq);
  if ((int)u.size() != h.num_edges())
    return Status::Error("cover size does not match atom count");
  for (VarId v = 0; v < cq.num_vars(); ++v) {
    if (!VarSetContains(h.vertices(), v)) continue;
    double c = 0;
    for (int f = 0; f < h.num_edges(); ++f)
      if (VarSetContains(h.edges()[f], v)) c += u[f];
    if (c < 1.0 - 1e-6)
      return Status::Error("cover does not cover variable " + cq.var_name(v));
  }

  // LP-produced covers can undershoot the unit coverage by an ulp; accept
  // and clamp (DelayBalancedTree::Build requires alpha >= 1 exactly).
  double alpha = view.num_free() > 0 ? Slack(h, u, view.free_set()) : 1.0;
  CQC_CHECK_GE(alpha, 1.0 - 1e-6);
  alpha = std::max(alpha, 1.0);
  std::vector<double> exponents(u.size());
  for (size_t f = 0; f < u.size(); ++f) exponents[f] = u[f] / alpha;

  // Bind atoms (builds the bf / fb sorted indexes). Index construction
  // dominates skeleton time, so the per-atom binds fan out on the shared
  // build pool (BindAtomsParallel gates itself).
  std::vector<BoundAtom> atoms =
      BindAtomsParallel(cq, rels, view.bound_vars(), view.free_vars());

  // Free-variable grid: per variable, the union of the active domains of
  // the atoms containing it (a superset of the output-relevant values,
  // required so Algorithm 1's binary searches can always reach their
  // targets).
  std::vector<std::vector<Value>> domains(view.num_free());
  for (int i = 0; i < view.num_free(); ++i) {
    std::set<Value> merged;
    for (const BoundAtom& atom : atoms) {
      for (int p : atom.free_positions()) {
        if (p != i) continue;
        const std::vector<Value>& d = atom.FreeDomain(i);
        merged.insert(d.begin(), d.end());
      }
    }
    domains[i].assign(merged.begin(), merged.end());
  }

  auto rep = std::unique_ptr<CompressedRep>(
      new CompressedRep(view, std::move(atoms), LexDomain(std::move(domains)),
                        std::move(exponents), tau, alpha));
  CompressedRepStats& s = rep->stats_;
  s.cover = u;
  s.alpha = alpha;
  for (double w : u) s.rho += w;
  std::set<const Relation*> distinct(rels.begin(), rels.end());
  for (const Relation* r : distinct) s.index_bytes += r->IndexBytes();
  return std::move(rep);
}

Result<std::unique_ptr<CompressedRep>> CompressedRep::Build(
    const AdornedView& view, const Database& db,
    const CompressedRepOptions& options, const Database* aux_db) {
  WallTimer timer;

  // Pick the fractional edge cover.
  std::vector<double> u;
  if (options.cover.has_value()) {
    u = *options.cover;
  } else {
    Hypergraph h(view.cq());
    EdgeCover base = FractionalEdgeCover(h, h.vertices());
    if (!base.ok) return Status::Error("query has no fractional edge cover");
    if (view.num_free() > 0) {
      // Keep the optimal total weight but maximize slack on V_f (cf. Ex. 7).
      double slack = 0;
      EdgeCover better = MaxSlackCover(h, h.vertices(), view.free_set(),
                                       base.total + 1e-9, &slack);
      u = better.ok ? better.weights : base.weights;
    } else {
      u = base.weights;
    }
  }

  Result<std::unique_ptr<CompressedRep>> skeleton =
      MakeSkeleton(view, db, u, options.tau, aux_db);
  if (!skeleton.ok()) return skeleton.status();
  std::unique_ptr<CompressedRep> rep = std::move(skeleton).value();
  const double alpha = rep->alpha_;

  // Delay-balanced tree + dictionary (only when there is a free dimension).
  if (rep->view_.num_free() > 0 && !rep->domain_.AnyEmpty()) {
    DelayBalancedTree::BuildParams params;
    params.tau = options.tau;
    params.alpha = alpha;
    params.max_nodes = options.max_tree_nodes;
    rep->tree_ = DelayBalancedTree::Build(rep->domain_, rep->cost_, params);
    DictionaryBuilder builder(&rep->atoms_, &rep->cost_, &rep->tree_,
                              &rep->domain_, rep->view_.num_bound(),
                              options.tau, alpha);
    rep->dict_ = builder.Build();
  }

  // Aggregate annotations ride on the finished tree + dictionary: one
  // Algorithm-2-shaped sweep per bound candidate (the documented build-time
  // cost of pushed aggregates).
  if (options.build_aggregates) rep->BuildAggregates();

  // Stats.
  CompressedRepStats& s = rep->stats_;
  s.build_seconds = timer.Seconds();
  s.tree_nodes = rep->tree_.size();
  s.tree_depth = rep->tree_.max_depth();
  if (!rep->tree_.empty()) s.root_cost = rep->tree_.cost(0);
  s.dict_entries = rep->dict_.NumEntries();
  s.num_candidates = rep->dict_.NumCandidates();
  s.tree_bytes = rep->tree_.MemoryBytes();
  s.dict_bytes = rep->dict_.MemoryBytes();
  return std::move(rep);
}

// ---------------------------------------------------------------------------
// Algorithm 2: in-order traversal of the delay-balanced tree.
// ---------------------------------------------------------------------------

// The traversal is written once, as the batch producer NextBatch(), and it
// stops after `max_tuples`: a single-tuple pull (Next() is
// NextBatch(…, 1)) does the work of one output and no more.
//
// The items that may hold answers are light subtrees (Prop. 6 evaluates
// them directly), heavy split points and heavy 1-bit unit leaves. Between
// two 0-bit subtrees they tile the grid, save stretches where the tree has
// no child (cost 0, so no answers). The walk therefore hands the request's
// one join cursor each maximal gap-free run of items at once, as the Lemma 1
// boxes of the run's lex interval. A lex-ordered worst-case-optimal join
// over adjacent intervals visits the trie cells the per-item joins would
// and saves only their restarts; 0-bit subtrees still cost one lookup and
// are never joined. A run closes at a 0-bit subtree, at the end of the walk
// or after kRunItemCap items. Because a run is joined only when it closes,
// the op delay between outputs is the per-item join cost as before plus at
// most kRunItemCap items of walk lookahead (each a dictionary lookup, up to
// tree-depth frames away) before the next join can emit: a bounded
// additive term, still within O~(tau), that the cap trades for restarts.
//
// Frames carry no interval, only the ids of the ancestor split points that
// bound their subtree exclusively (-1 at a grid edge); a run materialises
// its two endpoints (one Succ/Pred each) only when it closes.
//
// An optional lex range [range_lo_, range_hi_] restricts the traversal:
// until the walk reaches a split point >= range_lo_, subtrees whose bounds
// lie wholly before the range are skipped before their lookup and split
// points before it are no items; the walk ends at the first split point
// past range_hi_ or equal to it, and each run is clipped to the range. The
// walk is in order, so once one split point is >= range_lo_ every later
// bound is too; and every frame's lower bound is a split point the walk
// has already compared with range_hi_, so no frame starts past the range.
// Dictionary bits stay sound under clipping: a light pair stays light on a
// sub-interval (cost is monotone) and a 0-bit (empty on the full interval)
// implies empty on any sub-interval.
class CompressedRep::Alg2Enumerator : public TupleEnumerator {
 public:
  Alg2Enumerator(const CompressedRep* rep, BoundValuation vb,
                 const FInterval* range = nullptr)
      : TupleEnumerator(rep->view().num_free()),
        rep_(rep),
        vb_(std::move(vb)) {
    CQC_CHECK_EQ((int)vb_.size(), rep_->view_.num_bound());
    // Pre-bind every atom; an empty range kills the whole request.
    for (const BoundAtom& atom : rep_->atoms_) {
      RowRange r = atom.SeekBound(vb_);
      if (r.empty()) {
        done_ = true;
        return;
      }
      start_ranges_.push_back(r);
    }
    if (rep_->tree_.empty()) {
      done_ = true;
      return;
    }
    range_lo_ = rep_->domain_.MinTuple();
    range_hi_ = rep_->domain_.MaxTuple();
    if (range != nullptr) {
      CQC_CHECK_EQ((int)range->lo.size(), rep_->domain_.mu());
      CQC_CHECK_EQ((int)range->hi.size(), rep_->domain_.mu());
      if (LexDomain::Compare(range->lo, range_lo_) > 0) range_lo_ = range->lo;
      if (LexDomain::Compare(range_hi_, range->hi) > 0) range_hi_ = range->hi;
    }
    vb_id_ = rep_->dict_.FindValuation(vb_);
    // One join cursor for the whole request: the trie, pre-bound start
    // range, and level map never change, only the per-box constraints do.
    // Runs and their boxes come in ascending lex order, so every restart
    // resumes from the runs the previous box left behind.
    for (size_t a = 0; a < rep_->atoms_.size(); ++a) {
      const BoundAtom& atom = rep_->atoms_[a];
      JoinAtomInput in;
      in.index = &atom.bf_index();
      in.start = start_ranges_[a];
      in.start_level = atom.num_bound();
      for (int i = 0; i < atom.num_free(); ++i)
        in.levels.emplace_back(atom.free_positions()[i],
                               atom.num_bound() + i);
      base_inputs_.push_back(std::move(in));
    }
    join_.emplace(&base_inputs_, rep_->domain_.mu(),
                  std::vector<LevelConstraint>(rep_->domain_.mu()));
    stack_.push_back(Frame{rep_->tree_.root(), -1, -1, Phase::kEnter});
  }

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    size_t emitted = 0;
    const DelayBalancedTree& tree = rep_->tree_;
    while (!done_ && emitted < max_tuples) {
      if (join_active_) {
        emitted += join_->NextBatch(out, max_tuples - emitted);
        if (emitted == max_tuples) break;  // join may still have more
        join_active_ = AdvanceBox();
        continue;
      }
      if (stack_.empty()) {  // the walk is over; close its last run
        done_ = run_items_ == 0;
        CloseRun();
        continue;
      }
      Frame& f = stack_.back();
      switch (f.phase) {
        case Phase::kEnter: {
          if (before_lo_ && f.hi >= 0 &&
              LexDomain::Compare(tree.beta(f.hi), range_lo_) <= 0) {
            stack_.pop_back();  // wholly before the range
            break;
          }
          const HeavyDictionary::Bit bit = rep_->dict_.Lookup(f.node, vb_id_);
          if (bit == HeavyDictionary::Bit::kZero) {
            // Heavy but empty: a gap the open run must not cross.
            stack_.pop_back();
            CloseRun();
          } else if (bit == HeavyDictionary::Bit::kAbsent ||
                     tree.leaf(f.node)) {
            // A light subtree, or a heavy 1-bit leaf (only unit leaves can
            // be heavy: non-unit leaves satisfy T(I) < tau_l), whose single
            // grid point is certified an output.
            AddItem(f.lo, f.hi, /*at=*/false);
            stack_.pop_back();
          } else {
            f.phase = Phase::kAfterLeft;
            const int32_t left = tree.left(f.node);
            if (left >= 0)
              stack_.push_back(Frame{left, f.lo, f.node, Phase::kEnter});
          }
          break;
        }
        case Phase::kAfterLeft: {
          f.phase = Phase::kAfterBeta;
          const TupleSpan beta = tree.beta(f.node);
          if (before_lo_) {
            if (LexDomain::Compare(beta, range_lo_) < 0) break;
            before_lo_ = false;
          }
          const int vs_hi = LexDomain::Compare(beta, range_hi_);
          if (vs_hi > 0) {
            EndWalk();
            break;
          }
          AddItem(f.node, f.node, /*at=*/true);
          if (vs_hi == 0) EndWalk();  // the range's last point
          break;
        }
        case Phase::kAfterBeta: {
          const int32_t node = f.node, hi = f.hi;
          const int32_t right = tree.right(node);
          stack_.pop_back();  // invalidates f
          if (right >= 0)
            stack_.push_back(Frame{right, node, hi, Phase::kEnter});
          break;
        }
      }
    }
    return emitted;
  }

 private:
  // Items a run collects before it is joined. Larger runs save restarts;
  // the cap bounds how far the walk runs ahead of the join.
  static constexpr int kRunItemCap = 64;

  enum class Phase : uint8_t { kEnter, kAfterLeft, kAfterBeta };
  // `lo` / `hi`: node ids of the ancestor split points that bound the
  // subtree exclusively, -1 at the grid's edge.
  struct Frame {
    int32_t node;
    int32_t lo;
    int32_t hi;
    Phase phase;
  };

  // Extends the open run by one item: a subtree with exclusive bounds
  // (lo, hi), or (`at`) the split point of node lo == hi.
  void AddItem(int32_t lo, int32_t hi, bool at) {
    if (run_items_ == 0) {
      run_lo_ = lo;
      run_lo_at_ = at;
    }
    run_hi_ = hi;
    run_hi_at_ = at;
    if (++run_items_ == kRunItemCap) CloseRun();
  }

  // Closes the open run, if any: materialises its endpoints, clips them to
  // the range and starts the join over the run's boxes.
  void CloseRun() {
    if (run_items_ == 0) return;
    run_items_ = 0;
    const DelayBalancedTree& tree = rep_->tree_;
    const LexDomain& domain = rep_->domain_;
    Tuple& lo = run_.lo;
    Tuple& hi = run_.hi;
    if (run_lo_ < 0) {
      lo = range_lo_;
    } else {
      const TupleSpan b = tree.beta(run_lo_);
      lo.assign(b.begin(), b.end());
      if (!run_lo_at_) {
        const bool ok = domain.Succ(lo);  // a subtree follows beta
        CQC_DCHECK(ok);
      }
      if (LexDomain::Compare(range_lo_, lo) > 0) lo = range_lo_;
    }
    if (run_hi_ < 0) {
      hi = range_hi_;
    } else {
      const TupleSpan b = tree.beta(run_hi_);
      hi.assign(b.begin(), b.end());
      if (!run_hi_at_) {
        const bool ok = domain.Pred(hi);  // a subtree precedes beta
        CQC_DCHECK(ok);
      }
      if (LexDomain::Compare(hi, range_hi_) > 0) hi = range_hi_;
    }
    if (run_.Empty()) return;
    BoxDecomposeInto(run_, &eval_boxes_);
    eval_idx_ = 0;
    join_active_ = AdvanceBox();
  }

  // Nothing in range follows: drops the rest of the walk, keeping the open
  // run.
  void EndWalk() {
    stack_.clear();
    CloseRun();
  }

  // Starts the join for eval_boxes_[eval_idx_]; false when exhausted.
  bool AdvanceBox() {
    if (eval_idx_ >= eval_boxes_.size()) return false;
    join_->ResetToBox(eval_boxes_[eval_idx_++]);
    return true;
  }

  const CompressedRep* rep_;
  BoundValuation vb_;
  uint32_t vb_id_ = HeavyDictionary::kNoValuation;
  Tuple range_lo_;  // enumeration range (defaults to the full grid)
  Tuple range_hi_;
  bool before_lo_ = true;  // no split point >= range_lo_ visited yet
  std::vector<RowRange> start_ranges_;
  std::vector<JoinAtomInput> base_inputs_;  // shared by every box join
  std::vector<Frame> stack_;
  // The open run: `run_items_` items from the lower end of item run_lo_ to
  // the upper end of item run_hi_. A split-point end is the point itself
  // (`_at_`), a subtree end its exclusive bound (or the grid edge at -1).
  int run_items_ = 0;
  int32_t run_lo_ = -1;
  int32_t run_hi_ = -1;
  bool run_lo_at_ = false;
  bool run_hi_at_ = false;
  FInterval run_;  // the closed run's clipped interval (reused storage)
  std::vector<FBox> eval_boxes_;
  size_t eval_idx_ = 0;
  // The request's one forward cursor, over every run's boxes in turn.
  std::optional<JoinIterator> join_;
  bool join_active_ = false;
  bool done_ = false;
};

std::unique_ptr<TupleEnumerator> CompressedRep::Answer(
    const BoundValuation& vb) const {
  CQC_CHECK_EQ((int)vb.size(), view_.num_bound());
  if (view_.num_free() == 0) {
    // Boolean adorned view: all variables bound, atoms interact only
    // through the fixed valuation (Prop. 1 semantics).
    for (const BoundAtom& atom : atoms_) {
      if (atom.CountBound(vb) == 0)
        return std::make_unique<EmptyEnumerator>(view_.num_free());
    }
    std::vector<Tuple> one{Tuple{}};
    return std::make_unique<VectorEnumerator>(0, std::move(one));
  }
  if (domain_.AnyEmpty() || tree_.empty())
    return std::make_unique<EmptyEnumerator>(view_.num_free());
  return std::make_unique<Alg2Enumerator>(this, vb);
}

std::unique_ptr<TupleEnumerator> CompressedRep::AnswerRange(
    const BoundValuation& vb, const FInterval& range) const {
  CQC_CHECK_EQ((int)vb.size(), view_.num_bound());
  CQC_CHECK_GT(view_.num_free(), 0) << "AnswerRange needs a free dimension";
  if (domain_.AnyEmpty() || tree_.empty() || range.Empty())
    return std::make_unique<EmptyEnumerator>(view_.num_free());
  return std::make_unique<Alg2Enumerator>(this, vb, &range);
}

FInterval CompressedRep::FullRange() const {
  if (view_.num_free() == 0 || domain_.AnyEmpty()) return FInterval{};
  return FInterval{domain_.MinTuple(), domain_.MaxTuple()};
}

Result<std::unique_ptr<TupleEnumerator>> CompressedRep::Resume(
    const BoundValuation& vb, const EnumerationCursor& cursor) const {
  if ((int)vb.size() != view_.num_bound())
    return Status::Error("resume: bound valuation arity mismatch");
  if (cursor.exhausted)
    return std::unique_ptr<TupleEnumerator>(
        std::make_unique<EmptyEnumerator>(view_.num_free()));
  if (view_.num_free() == 0) {
    // Boolean view: the stream holds at most one (empty) tuple.
    if (cursor.emitted > 0)
      return std::unique_ptr<TupleEnumerator>(
          std::make_unique<EmptyEnumerator>(view_.num_free()));
    return Answer(vb);
  }
  if (domain_.AnyEmpty() || tree_.empty())
    return std::unique_ptr<TupleEnumerator>(
        std::make_unique<EmptyEnumerator>(view_.num_free()));
  FInterval range{domain_.MinTuple(), domain_.MaxTuple()};
  if (!cursor.range_hi.empty()) {
    if ((int)cursor.range_hi.size() != domain_.mu())
      return Status::Error("resume: cursor range arity mismatch");
    range.hi = cursor.range_hi;
  }
  // A cursor paused before its first tuple must resume at the range's own
  // lower bound — not the domain minimum, which would replay every earlier
  // shard of a partitioned drain.
  if (!cursor.range_lo.empty()) {
    if ((int)cursor.range_lo.size() != domain_.mu())
      return Status::Error("resume: cursor range arity mismatch");
    range.lo = cursor.range_lo;
  }
  if (cursor.has_last) {
    if ((int)cursor.last.size() != domain_.mu())
      return Status::Error("resume: cursor tuple arity mismatch");
    for (int i = 0; i < domain_.mu(); ++i)
      if (domain_.IndexOf(i, cursor.last[i]) < 0)
        return Status::Error("resume: cursor tuple is not on the grid");
    range.lo = cursor.last;
    if (!domain_.Succ(range.lo))  // paused on the grid maximum
      return std::unique_ptr<TupleEnumerator>(
          std::make_unique<EmptyEnumerator>(view_.num_free()));
  }
  return AnswerRange(vb, range);
}

bool CompressedRep::AnswerExists(const BoundValuation& vb) const {
  Tuple t;
  return Answer(vb)->Next(&t);
}

// ---------------------------------------------------------------------------
// Aggregate pushdown: per-subtree ring annotations + the annotated walk.
// ---------------------------------------------------------------------------

namespace {

// Split-point membership by one point probe per atom. The annotation build
// walk decides every split point this way; the query walk reads the stored
// annotations instead and probes only where none is stored.
bool SplitPointMatches(const std::vector<BoundAtom>& atoms,
                       const BoundValuation& vb, TupleSpan beta) {
  for (const BoundAtom& atom : atoms)
    if (!atom.ContainsValuation(vb, beta)) return false;
  return true;
}

// True when every tuple in `interval` shares the same first `k` values —
// the condition under which a whole annotated subtree folds into a single
// group with key interval.lo[0..k). Trivially true for k == 0, which is
// what makes the full-group aggregate an O(1) root read.
bool PrefixUniform(const FInterval& interval, int k) {
  for (int i = 0; i < k; ++i)
    if (interval.lo[i] != interval.hi[i]) return false;
  return true;
}

// Shared recursion state for the annotation build: walks the tree with the
// exact (unclipped) interval derivation of Algorithm 2 for one bound
// candidate, computing each subtree's RingCell bottom-up. Light (absent)
// pairs are folded by draining the range enumeration — Prop. 6 evaluation,
// the same stream Answer() would produce there. Cells are stored into the
// tree columns (num_bound == 0 — every visited node, light ones included)
// or the dictionary entry columns (num_bound > 0 — bit-1 entries only,
// light pairs have no entry to store into).
struct AggBuildWalker {
  const CompressedRep* rep;
  const DelayBalancedTree* tree;
  const HeavyDictionary* dict;
  const LexDomain* domain;
  const std::vector<BoundAtom>* atoms;
  BoundValuation vb;
  uint32_t vb_id = HeavyDictionary::kNoValuation;
  int mu = 0;
  // Exactly one of the two output pairs is non-null.
  std::vector<uint64_t>* tree_counts = nullptr;
  std::vector<Value>* tree_vals = nullptr;
  std::vector<uint64_t>* entry_counts = nullptr;
  std::vector<Value>* entry_vals = nullptr;

  void Drain(const FInterval& interval, RingCell* out) const {
    auto e = rep->AnswerRange(vb, interval);
    TupleBuffer buf(mu);
    for (;;) {
      buf.Clear();
      const size_t n = e->NextBatch(&buf, 256);
      for (size_t i = 0; i < n; ++i) out->FoldTuple(buf[i]);
      if (n < 256) break;
    }
  }

  void StoreTree(int node, const RingCell& cell) const {
    (*tree_counts)[node] = cell.count;
    std::memcpy(tree_vals->data() + (size_t)node * 3 * mu, cell.vals.data(),
                (size_t)(3 * mu) * sizeof(Value));
  }

  void StoreEntry(int node, const RingCell& cell) const {
    const size_t e = dict->LookupEntryIndex(node, vb_id);
    CQC_CHECK_NE(e, HeavyDictionary::kNoEntry);
    (*entry_counts)[e] = cell.count;
    std::memcpy(entry_vals->data() + e * (size_t)(3 * mu), cell.vals.data(),
                (size_t)(3 * mu) * sizeof(Value));
  }

  void Walk(int node, const FInterval& interval, RingCell* out) const {
    const HeavyDictionary::Bit bit = dict->Lookup(node, vb_id);
    if (bit == HeavyDictionary::Bit::kZero) return;  // certified empty
    RingCell cell;
    cell.Reset(mu);
    if (bit == HeavyDictionary::Bit::kAbsent) {
      Drain(interval, &cell);
      // Light subtrees get annotated for free in tree mode (the query walk
      // can then answer a prefix-uniform light node without re-draining).
      if (tree_counts != nullptr) StoreTree(node, cell);
      out->Merge(cell);
      return;
    }
    if (tree->leaf(node)) {
      // Heavy 1-bit on a unit interval certifies the grid point (Alg. 2).
      cell.FoldTuple(interval.lo);
    } else {
      const TupleSpan beta = tree->beta(node);
      FInterval child;
      if (tree->left(node) >= 0 &&
          DelayBalancedTree::LeftInterval(interval, beta, *domain, &child))
        Walk(tree->left(node), child, &cell);
      if (interval.Contains(beta) && SplitPointMatches(*atoms, vb, beta))
        cell.FoldTuple(beta);
      if (tree->right(node) >= 0 &&
          DelayBalancedTree::RightInterval(interval, beta, *domain, &child))
        Walk(tree->right(node), child, &cell);
    }
    if (tree_counts != nullptr) {
      StoreTree(node, cell);
    } else {
      StoreEntry(node, cell);
    }
    out->Merge(cell);
  }
};

}  // namespace

void CompressedRep::BuildAggregates() {
  const int mu = view_.num_free();
  if (mu == 0 || tree_.empty()) return;

  AggBuildWalker w;
  w.rep = this;
  w.tree = &tree_;
  w.dict = &dict_;
  w.domain = &domain_;
  w.atoms = &atoms_;
  w.mu = mu;
  const FInterval root{domain_.MinTuple(), domain_.MaxTuple()};

  // Fresh annotation columns, identity-initialized so never-stored slots
  // (unreachable nodes, 0-bit entries) hold deterministic ring identities.
  const auto identity_fill = [mu](std::vector<Value>& vals, size_t rows) {
    vals.assign(rows * (size_t)(3 * mu), 0);
    for (size_t r = 0; r < rows; ++r) {
      Value* v = vals.data() + r * (size_t)(3 * mu);
      for (int j = 0; j < mu; ++j) {
        v[mu + j] = kTop;          // min identity
        v[2 * mu + j] = kBottom;   // max identity
      }
    }
  };

  if (view_.num_bound() == 0) {
    std::vector<uint64_t> counts(tree_.size(), 0);
    std::vector<Value> vals;
    identity_fill(vals, tree_.size());
    w.tree_counts = &counts;
    w.tree_vals = &vals;
    w.vb = BoundValuation{};
    w.vb_id = dict_.FindValuation(w.vb);
    RingCell total;
    total.Reset(mu);
    w.Walk(tree_.root(), root, &total);
    tree_.AttachAggregates(std::move(counts), std::move(vals));
    stats_.agg_bytes =
        tree_.agg_counts().ByteSize() + tree_.agg_vals_pool().ByteSize();
  } else {
    std::vector<uint64_t> counts(dict_.NumEntries(), 0);
    std::vector<Value> vals;
    identity_fill(vals, dict_.NumEntries());
    w.entry_counts = &counts;
    w.entry_vals = &vals;
    // One sweep per candidate with a live root entry; candidates that are
    // light at the root have no annotations and drain at query time.
    Tuple vb_scratch(dict_.vb_arity());
    std::vector<uint32_t> live;
    dict_.ForEachEntry(tree_.root(), [&](uint32_t vb_id, bool bit) {
      if (bit) live.push_back(vb_id);
    });
    for (uint32_t vb_id : live) {
      dict_.UnpackCandidate(vb_id, vb_scratch.data());
      w.vb.assign(vb_scratch.begin(), vb_scratch.end());
      w.vb_id = vb_id;
      RingCell total;
      total.Reset(mu);
      w.Walk(tree_.root(), root, &total);
    }
    dict_.AttachAggregates(std::move(counts), std::move(vals), mu);
    stats_.agg_bytes = dict_.entry_agg_counts().ByteSize() +
                       dict_.entry_agg_vals_pool().ByteSize();
  }
}

namespace {

// Recursion state for the pushed aggregate query: the same dispatch as the
// build walk (so stored cells are read with exactly the intervals they were
// computed under), emitting into a GroupAccumulator. A subtree whose
// interval is uniform on the group prefix collapses to one stored-cell
// read; everything else descends or drains.
struct AggQueryWalker {
  const CompressedRep* rep;
  const DelayBalancedTree* tree;
  const HeavyDictionary* dict;
  const LexDomain* domain;
  const std::vector<BoundAtom>* atoms;
  const BoundValuation* vb;
  uint32_t vb_id = HeavyDictionary::kNoValuation;
  int mu = 0;
  int k = 0;          // group prefix length
  int value_var = -1; // -1 for COUNT
  bool tree_mode = false;
  GroupAccumulator* acc;

  void Drain(const FInterval& interval) const {
    auto e = rep->AnswerRange(*vb, interval);
    TupleBuffer buf(mu);
    for (;;) {
      buf.Clear();
      const size_t n = e->NextBatch(&buf, 256);
      for (size_t i = 0; i < n; ++i) acc->AddTuple(buf[i]);
      if (n < 256) break;
    }
  }

  void EmitCell(const FInterval& interval, uint64_t count,
                const Value* vals) const {
    Value sum = 0, min = 0, max = 0;
    if (value_var >= 0) {
      sum = vals[value_var];
      min = vals[mu + value_var];
      max = vals[2 * mu + value_var];
    }
    acc->AddCell(interval.lo.data(), count, sum, min, max);
  }

  // The COUNT the build walk stored for `node`'s subtree under this
  // request; false when none is stored (a light pair in dictionary mode).
  // A missing child and a node the build walk never reached count 0: the
  // columns are identity-initialized and each node is stored at most once
  // per request.
  bool StoredCount(int node, uint64_t* count) const {
    if (node < 0) {
      *count = 0;
      return true;
    }
    if (tree_mode) {
      *count = tree->agg_count(node);
      return true;
    }
    const size_t e = dict->LookupEntryIndex(node, vb_id);
    if (e == HeavyDictionary::kNoEntry) return false;
    *count = dict->entry_agg_count(e);
    return true;
  }

  // Whether the split point of heavy node `node` is an answer. The build
  // walk stored the node's cell as left + split point + right, so the
  // stored counts decide it without touching a relation; only a light
  // child in dictionary mode (no stored cell) falls back to the probes.
  bool SplitPointIsAnswer(int node, const FInterval& interval,
                          TupleSpan beta) const {
    uint64_t self, left, right;
    if (StoredCount(node, &self) && StoredCount(tree->left(node), &left) &&
        StoredCount(tree->right(node), &right)) {
      const uint64_t split = self - left - right;
      CQC_DCHECK(split <= 1);
      return split == 1;
    }
    return interval.Contains(beta) && SplitPointMatches(*atoms, *vb, beta);
  }

  void Walk(int node, const FInterval& interval) const {
    const HeavyDictionary::Bit bit = dict->Lookup(node, vb_id);
    if (bit == HeavyDictionary::Bit::kZero) return;
    const bool uniform = PrefixUniform(interval, k);
    if (bit == HeavyDictionary::Bit::kAbsent) {
      // Light pair: tree mode stored its cell at build; dictionary mode has
      // no entry to read, so the light subtree is drained (Prop. 6).
      if (tree_mode && uniform) {
        EmitCell(interval, tree->agg_count(node), tree->agg_vals(node));
        return;
      }
      Drain(interval);
      return;
    }
    if (uniform) {
      if (tree_mode) {
        EmitCell(interval, tree->agg_count(node), tree->agg_vals(node));
        return;
      }
      const size_t e = dict->LookupEntryIndex(node, vb_id);
      if (e != HeavyDictionary::kNoEntry) {
        EmitCell(interval, dict->entry_agg_count(e), dict->entry_agg_vals(e));
        return;
      }
      // Defensive: a 1-bit without an entry index cannot happen (the bit
      // lives in the entry), but fall through to the exact paths anyway.
    }
    if (tree->leaf(node)) {
      // Unit intervals are prefix-uniform for every k, so this is only
      // reachable through the defensive fall-through above.
      acc->AddTuple(interval.lo);
      return;
    }
    const TupleSpan beta = tree->beta(node);
    FInterval child;
    if (tree->left(node) >= 0 &&
        DelayBalancedTree::LeftInterval(interval, beta, *domain, &child))
      Walk(tree->left(node), child);
    if (SplitPointIsAnswer(node, interval, beta)) acc->AddTuple(beta);
    if (tree->right(node) >= 0 &&
        DelayBalancedTree::RightInterval(interval, beta, *domain, &child))
      Walk(tree->right(node), child);
  }
};

}  // namespace

AggregateResult CompressedRep::AnswerAggregate(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  CQC_CHECK_EQ((int)vb.size(), view_.num_bound());
  const int mu = view_.num_free();
  // The annotated walk answers lex-prefix group sets; everything else (and
  // reps built without annotations, boolean views, empty domains) folds the
  // enumeration — both paths produce value-identical results.
  if (!IsPrefixGroupSet(group_vars) || !has_aggregates() || tree_.empty() ||
      mu == 0) {
    auto e = Answer(vb);
    return GroupedDrainAggregate(*e, mu, group_vars, spec);
  }
  const int k = (int)group_vars.size();
  GroupAccumulator acc(k, spec);
  // Mirror the Alg2Enumerator pre-bind: an empty bound range on any atom
  // kills the whole request.
  for (const BoundAtom& atom : atoms_) {
    if (atom.SeekBound(vb).empty()) return acc.Finish();
  }
  AggQueryWalker w;
  w.rep = this;
  w.tree = &tree_;
  w.dict = &dict_;
  w.domain = &domain_;
  w.atoms = &atoms_;
  w.vb = &vb;
  w.vb_id = dict_.FindValuation(vb);
  w.mu = mu;
  w.k = k;
  w.value_var = spec.func == AggFunc::kCount ? -1 : spec.value_var;
  w.tree_mode = view_.num_bound() == 0;
  w.acc = &acc;
  w.Walk(tree_.root(),
         FInterval{domain_.MinTuple(), domain_.MaxTuple()});
  return acc.Finish();
}

namespace {

// Recursion state for FixupDictionary: walks the tree carrying intervals.
struct FixupWalker {
  const CompressedRep* rep;
  const DelayBalancedTree* tree;
  const LexDomain* domain;
  const std::vector<BoundAtom>* atoms;
  HeavyDictionary* dict;
  const std::function<bool(const BoundValuation&, const Tuple&)>* live;

  // Streams the join outputs of (vb, boxes) into `visit`; stops early when
  // visit returns false. Returns true if stopped early (a live output).
  bool AnyLiveOutput(const Tuple& vb, const std::vector<FBox>& boxes) const {
    const int mu = domain->mu();
    std::vector<JoinAtomInput> inputs;
    for (const BoundAtom& atom : *atoms) {
      JoinAtomInput in;
      in.index = &atom.bf_index();
      in.start = atom.SeekBound(vb);
      if (in.start.empty()) return false;
      in.start_level = atom.num_bound();
      for (int i = 0; i < atom.num_free(); ++i)
        in.levels.emplace_back(atom.free_positions()[i],
                               atom.num_bound() + i);
      inputs.push_back(std::move(in));
    }
    JoinIterator join(&inputs, mu, std::vector<LevelConstraint>(mu));
    Tuple vf;
    for (const FBox& box : boxes) {
      join.ResetToBox(box);
      while (join.Next(&vf)) {
        if ((*live)(vb, vf)) return true;
      }
    }
    return false;
  }

  void Walk(int node, const FInterval& interval) {
    const std::vector<FBox> boxes = BoxDecompose(interval);
    std::vector<uint32_t> to_clear;
    Tuple vb_scratch(dict->vb_arity());  // reused across the entry sweep
    dict->ForEachEntry(node, [&](uint32_t vb_id, bool bit) {
      if (!bit) return;
      dict->UnpackCandidate(vb_id, vb_scratch.data());
      if (!AnyLiveOutput(vb_scratch, boxes)) to_clear.push_back(vb_id);
    });
    for (uint32_t id : to_clear) dict->SetBit(node, id, false);

    if (tree->leaf(node)) return;
    const TupleSpan beta = tree->beta(node);
    FInterval child;
    if (tree->left(node) >= 0 &&
        DelayBalancedTree::LeftInterval(interval, beta, *domain, &child))
      Walk(tree->left(node), child);
    if (tree->right(node) >= 0 &&
        DelayBalancedTree::RightInterval(interval, beta, *domain, &child))
      Walk(tree->right(node), child);
  }
};

}  // namespace

void CompressedRep::FixupDictionary(
    const std::function<bool(const BoundValuation&, const Tuple&)>& live) {
  if (tree_.empty() || view_.num_free() == 0) return;
  FixupWalker walker{this,   &tree_, &domain_, &atoms_,
                     &dict_, &live};
  FInterval root{domain_.MinTuple(), domain_.MaxTuple()};
  walker.Walk(tree_.root(), root);
}

}  // namespace cqc
