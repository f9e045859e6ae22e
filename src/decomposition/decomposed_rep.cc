#include "decomposition/decomposed_rep.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "util/hashing.h"

#include "query/normalize.h"
#include "relational/projection.h"
#include "util/logging.h"
#include "util/str_util.h"
#include "util/timer.h"

namespace cqc {
namespace {

std::vector<VarId> VarsOf(VarSet s) {
  std::vector<VarId> out;
  for (VarId v = 0; v < kMaxVars; ++v)
    if (VarSetContains(s, v)) out.push_back(v);
  return out;
}

}  // namespace

Result<std::unique_ptr<DecomposedRep>> DecomposedRep::Build(
    const AdornedView& view, const Database& db, const TreeDecomposition& td,
    const DecomposedRepOptions& options, const Database* aux_db) {
  WallTimer timer;
  const ConjunctiveQuery& cq = view.cq();
  if (!cq.IsNaturalJoin())
    return Status::Error("DecomposedRep requires a natural join view");
  Hypergraph h(cq);
  Status s = td.Validate(h);
  if (!s.ok()) return s;
  s = td.ValidateConnex(view.bound_set());
  if (!s.ok()) return s;

  DelayAssignment delta = options.delta;
  if (delta.delta.empty()) delta = DelayAssignment::Zero(td);
  if ((int)delta.delta.size() != td.num_nodes())
    return Status::Error("delay assignment size mismatch");

  auto rep = std::unique_ptr<DecomposedRep>(new DecomposedRep(view));
  rep->td_ = td;
  rep->stats_.metrics = ComputeMetrics(td, h, delta);
  rep->bag_of_node_.assign(td.num_nodes(), -1);

  const double n_tuples = std::max<double>(2.0, (double)db.TotalTuples());

  // Build per-bag representations in preorder.
  for (int node : td.preorder()) {
    if (node == td.root()) continue;
    const BagPlan& plan = rep->stats_.metrics.bags[node];
    Bag bag;
    bag.td_node = node;
    bag.bound_vars = VarsOf(td.BagBound(node));
    bag.free_vars = VarsOf(td.BagFree(node));
    bag.locals = std::make_unique<Database>();
    bag.locals->SetFallback(aux_db);  // chain to the normalized view's aux

    // Assemble the bag-local natural-join view.
    ConjunctiveQuery local;
    for (VarId v : bag.bound_vars) local.GetOrAddVar(cq.var_name(v));
    for (VarId v : bag.free_vars) local.GetOrAddVar(cq.var_name(v));
    std::string adornment;
    for (VarId v : bag.bound_vars) {
      local.AddHeadVar(local.FindVar(cq.var_name(v)));
      adornment += 'b';
    }
    for (VarId v : bag.free_vars) {
      local.AddHeadVar(local.FindVar(cq.var_name(v)));
      adornment += 'f';
    }
    for (size_t j = 0; j < plan.edges.size(); ++j) {
      const Atom& orig = cq.atoms()[plan.edge_atoms[j]];
      const Relation* rel = ResolveRelation(orig.relation, db, aux_db);
      if (rel == nullptr)
        return Status::Error("unknown relation " + orig.relation);
      // Columns of the original atom whose variable lies in the bag.
      std::vector<int> cols;
      std::vector<VarId> vars;
      for (int p = 0; p < orig.arity(); ++p) {
        VarId v = orig.terms[p].var;
        if (VarSetContains(td.bag(node), v)) {
          cols.push_back(p);
          vars.push_back(v);
        }
      }
      Atom local_atom;
      if ((int)cols.size() == orig.arity()) {
        local_atom.relation = orig.relation;  // fully contained: reuse
      } else {
        const std::string name =
            StrFormat("bag%d_e%zu_%s", node, j, orig.relation.c_str());
        bag.locals->AdoptRelation(ProjectDistinct(*rel, cols, name));
        local_atom.relation = name;
      }
      for (VarId v : vars)
        local_atom.terms.push_back(
            Term::Var(local.FindVar(cq.var_name(v))));
      local.AddAtom(std::move(local_atom));
    }
    Result<AdornedView> local_view =
        AdornedView::Create(std::move(local), adornment);
    if (!local_view.ok()) return local_view.status();

    // Pick the representation by the bag's delay exponent. The bag-local
    // database takes precedence, then the caller's aux_db, then db: chain
    // them by copying aux relations into the bag database view... instead,
    // resolve via the bag locals first and fall back to (db, aux_db).
    const double d = delta.delta[node];
    if (d <= 0.0) {
      Result<std::unique_ptr<MaterializedBagRep>> r =
          MaterializedBagRep::Build(local_view.value(), db,
                                    bag.locals.get());
      if (!r.ok()) return r.status();
      bag.rep = std::move(r).value();
    } else {
      CompressedRepOptions copts;
      copts.tau = std::pow(n_tuples, d);
      copts.cover = plan.cover.u;
      Result<std::unique_ptr<CompressedBagRep>> r = CompressedBagRep::Build(
          local_view.value(), db, bag.locals.get(), copts);
      if (!r.ok()) return r.status();
      bag.rep = std::move(r).value();
    }
    rep->bag_of_node_[node] = (int)rep->bags_.size();
    rep->bags_.push_back(std::move(bag));
  }

  // Parent/children links in bag-index space.
  rep->bag_children_.assign(rep->bags_.size(), {});
  for (size_t i = 0; i < rep->bags_.size(); ++i) {
    int pnode = td.parent(rep->bags_[i].td_node);
    rep->bags_[i].parent_bag =
        (pnode == td.root()) ? -1 : rep->bag_of_node_[pnode];
    if (rep->bags_[i].parent_bag >= 0)
      rep->bag_children_[rep->bags_[i].parent_bag].push_back((int)i);
  }

  // Root membership atoms: hyperedges fully inside V_b.
  std::vector<VarId> no_free;
  for (const Atom& atom : cq.atoms()) {
    if ((atom.Vars() & ~view.bound_set()) != 0) continue;
    const Relation* rel = ResolveRelation(atom.relation, db, aux_db);
    CQC_CHECK(rel != nullptr);
    rep->root_atoms_.emplace_back(atom, *rel, view.bound_vars(), no_free);
  }

  // Algorithm 4: bottom-up semijoin fixup (children before parents).
  if (options.run_fixup) {
    const int num_vars = cq.num_vars();
    for (int i = (int)rep->bags_.size() - 1; i >= 0; --i) {
      if (rep->bag_children_[i].empty()) continue;
      const Bag& bag = rep->bags_[i];
      auto live = [&rep, &bag, i, num_vars](const Tuple& bound_vals,
                                            const Tuple& free_vals) {
        std::vector<Value> values(num_vars, 0);
        for (size_t k = 0; k < bag.bound_vars.size(); ++k)
          values[bag.bound_vars[k]] = bound_vals[k];
        for (size_t k = 0; k < bag.free_vars.size(); ++k)
          values[bag.free_vars[k]] = free_vals[k];
        for (int c : rep->bag_children_[i])
          if (!rep->SubtreeLive(c, values)) return false;
        return true;
      };
      rep->bags_[i].rep->Fixup(live);
    }
  }

  // Stats.
  rep->stats_.build_seconds = timer.Seconds();
  for (const Bag& bag : rep->bags_) {
    size_t bytes = bag.rep->AuxBytes();
    rep->stats_.bag_aux_bytes.push_back(bytes);
    rep->stats_.bag_descriptions.push_back(bag.rep->Describe());
    rep->stats_.total_aux_bytes += bytes;
  }
  return std::move(rep);
}

bool DecomposedRep::SubtreeLive(int b,
                                const std::vector<Value>& values) const {
  const Bag& bag = bags_[b];
  Tuple vbt(bag.bound_vars.size());
  for (size_t i = 0; i < bag.bound_vars.size(); ++i)
    vbt[i] = values[bag.bound_vars[i]];
  auto e = bag.rep->Answer(vbt);
  Tuple vf;
  std::vector<Value> scratch = values;
  while (e->Next(&vf)) {
    for (size_t i = 0; i < bag.free_vars.size(); ++i)
      scratch[bag.free_vars[i]] = vf[i];
    bool ok = true;
    for (int c : bag_children_[b]) {
      if (!SubtreeLive(c, scratch)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Algorithm 5: pre-order enumeration with predecessor pointers.
// ---------------------------------------------------------------------------

class DecomposedRep::Alg5Enumerator : public TupleEnumerator {
 public:
  // (offset, stride) select a residue-class shard of the first bag's tuple
  // stream: the walk descends only below first-bag tuples with ordinal ==
  // offset (mod stride). Shards 0..stride-1 partition the output because
  // every output is produced under exactly one first-bag tuple, and the
  // first bag's stream order is deterministic.
  Alg5Enumerator(const DecomposedRep* rep, BoundValuation vb,
                 size_t offset = 0, size_t stride = 1)
      : TupleEnumerator(rep->view_.num_free()),
        rep_(rep),
        offset_(offset),
        stride_(stride) {
    CQC_CHECK_GT(stride, 0u);
    CQC_CHECK_LT(offset, stride);
    values_.assign(rep->view_.cq().num_vars(), 0);
    const std::vector<VarId>& bvars = rep->view_.bound_vars();
    CQC_CHECK_EQ(vb.size(), bvars.size());
    for (size_t i = 0; i < bvars.size(); ++i) values_[bvars[i]] = vb[i];
    // Root: check membership of every hyperedge inside V_b (line 2).
    for (const BoundAtom& atom : rep->root_atoms_) {
      if (atom.CountBound(vb) == 0) {
        done_ = true;
        return;
      }
    }
    if (rep->bags_.empty()) {
      // Boolean view: the single empty tuple belongs to shard 0.
      if (offset_ == 0)
        solo_ = true;
      else
        done_ = true;
      return;
    }
    states_.resize(rep->bags_.size());
    bag_batch_ = TupleBuffer((int)rep->bags_.back().free_vars.size());
    // Bulk-path stitch map: head positions fed by the last bag.
    const Bag& last = rep->bags_.back();
    const std::vector<VarId>& head_free = rep->view_.free_vars();
    for (size_t i = 0; i < head_free.size(); ++i)
      for (size_t j = 0; j < last.free_vars.size(); ++j)
        if (last.free_vars[j] == head_free[i]) patch_.emplace_back(i, j);
    cur_ = 0;
    entering_ = true;
  }

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    size_t n = 0;
    while (n < max_tuples) {
      // Bulk path: positioned on the last bag with an open enumerator,
      // every bag tuple maps 1:1 to an output — drain the bag through its
      // own batch API and stitch outputs in place instead of stepping the
      // whole state machine per tuple.
      // (When a stride shard is active and the first bag IS the last bag,
      // the bulk path would bypass the residue filter — fall through to
      // Produce, which applies it.)
      if (!done_ && !solo_ && !entering_ &&
          cur_ + 1 == (int)rep_->bags_.size() && cur_ >= 0 &&
          (stride_ == 1 || rep_->bags_.size() > 1) &&
          states_[cur_].enumerator != nullptr && states_[cur_].visited) {
        n += DrainLastBag(out, max_tuples - n);
        if (n == max_tuples) break;
        // Last bag exhausted after producing: hand control back to the
        // pre-order predecessor exactly as Produce() would.
        states_[cur_].visited = false;
        --cur_;
      }
      if (!Produce(&scratch_)) break;
      out->Append(scratch_);
      ++n;
    }
    return n;
  }

 private:
  // Pulls up to `max_tuples` further tuples of the last bag's enumerator
  // and emits one output per tuple. Requires the state checked in
  // NextBatch. Returns the number emitted; < max_tuples means the bag
  // enumerator is exhausted (the caller backtracks).
  size_t DrainLastBag(TupleBuffer* out, size_t max_tuples) {
    const Bag& bag = rep_->bags_[cur_];
    BagState& st = states_[cur_];
    const std::vector<VarId>& head_free = rep_->view_.free_vars();
    const int bag_arity = (int)bag.free_vars.size();
    // Output template: head positions fed by ancestor bags are fixed while
    // we stay inside this bag; positions in patch_ vary per bag tuple.
    scratch_.resize(head_free.size());
    for (size_t i = 0; i < head_free.size(); ++i)
      scratch_[i] = values_[head_free[i]];
    size_t emitted = 0;
    while (emitted < max_tuples) {
      bag_batch_.Clear();
      const size_t want = std::min<size_t>(max_tuples - emitted, 256);
      const size_t got = st.enumerator->NextBatch(&bag_batch_, want);
      for (size_t r = 0; r < got; ++r) {
        const TupleSpan vf = bag_batch_[r];
        for (auto [out_pos, vf_pos] : patch_) scratch_[out_pos] = vf[vf_pos];
        out->Append(scratch_);
      }
      emitted += got;
      if (got > 0) {
        // Keep values_ consistent with the last emitted bag tuple so the
        // state machine resumes from the right point.
        const TupleSpan last = bag_batch_[got - 1];
        for (int i = 0; i < bag_arity; ++i)
          values_[bag.free_vars[i]] = last[i];
      }
      if (got < want) break;
    }
    return emitted;
  }

  // Staging buffer + stitch map for DrainLastBag (last bag is fixed).
  TupleBuffer bag_batch_{0};
  std::vector<std::pair<size_t, size_t>> patch_;  // (out pos, vf pos)
  bool Produce(Tuple* out) {
    if (done_) return false;
    if (solo_) {
      solo_ = false;
      done_ = true;
      out->clear();
      return true;
    }
    Tuple vtf;
    for (;;) {
      if (cur_ < 0) {
        done_ = true;
        return false;
      }
      BagState& st = states_[cur_];
      const Bag& bag = rep_->bags_[cur_];
      if (entering_) {
        Tuple vbt(bag.bound_vars.size());
        for (size_t i = 0; i < bag.bound_vars.size(); ++i)
          vbt[i] = values_[bag.bound_vars[i]];
        st.enumerator = bag.rep->Answer(vbt);
        st.visited = false;
        entering_ = false;
      }
      if (st.enumerator->Next(&vtf)) {
        if (cur_ == 0 && stride_ > 1) {
          // Residue-class shard filter on the first bag's stream. Skipped
          // tuples leave `visited` untouched: if every tuple is skipped the
          // bag looks unproductive and the walk ends, which is exactly
          // right — this shard owns none of the output.
          const uint64_t ordinal = first_bag_ordinal_++;
          if (ordinal % stride_ != offset_) continue;
        }
        for (size_t i = 0; i < bag.free_vars.size(); ++i)
          values_[bag.free_vars[i]] = vtf[i];
        st.visited = true;
        if (cur_ + 1 == (int)rep_->bags_.size()) {
          const std::vector<VarId>& head_free = rep_->view_.free_vars();
          out->resize(head_free.size());
          for (size_t i = 0; i < head_free.size(); ++i)
            (*out)[i] = values_[head_free[i]];
          return true;  // stay on the last bag; next call resumes here
        }
        ++cur_;
        entering_ = true;
      } else if (!st.visited) {
        // Nothing for this binding: the parent's valuation is dead.
        cur_ = bag.parent_bag;
      } else {
        // Exhausted after producing output: resume the pre-order
        // predecessor (cartesian product across sibling subtrees).
        st.visited = false;
        --cur_;
      }
    }
  }

  struct BagState {
    std::unique_ptr<TupleEnumerator> enumerator;
    bool visited = false;
  };

  const DecomposedRep* rep_;
  std::vector<Value> values_;
  Tuple scratch_;  // staging for NextBatch
  std::vector<BagState> states_;
  int cur_ = -1;
  bool entering_ = false;
  bool done_ = false;
  bool solo_ = false;
  size_t offset_ = 0;              // residue-class shard selector
  size_t stride_ = 1;
  uint64_t first_bag_ordinal_ = 0;  // tuples seen from the first bag
};

size_t DecomposedRep::SpaceBytes() const {
  size_t bytes = stats_.total_aux_bytes;
  for (const Bag& bag : bags_) {
    if (bag.locals == nullptr) continue;
    bytes += bag.locals->BaseBytes();
    for (const Relation* rel : bag.locals->AllRelations())
      bytes += rel->IndexBytes();
  }
  return bytes;
}

std::unique_ptr<TupleEnumerator> DecomposedRep::Answer(
    const BoundValuation& vb) const {
  return std::make_unique<Alg5Enumerator>(this, vb);
}

std::unique_ptr<TupleEnumerator> DecomposedRep::AnswerShard(
    const BoundValuation& vb, size_t offset, size_t stride) const {
  return std::make_unique<Alg5Enumerator>(this, vb, offset, stride);
}

std::unique_ptr<TupleEnumerator> DecomposedRep::Resume(
    const BoundValuation& vb, const EnumerationCursor& cursor) const {
  return ResumeShard(vb, cursor, 0, 1);
}

std::unique_ptr<TupleEnumerator> DecomposedRep::ResumeShard(
    const BoundValuation& vb, const EnumerationCursor& cursor, size_t offset,
    size_t stride) const {
  if (cursor.exhausted)
    return std::make_unique<EmptyEnumerator>(view_.num_free());
  auto e = AnswerShard(vb, offset, stride);
  // Algorithm 5's order follows the decomposition, not the output lex
  // order, so the generic skip-ahead resume applies: the (shard) stream is
  // deterministic, so dropping `emitted` tuples lands exactly where the
  // cursor paused (O(emitted) work; see core/cursor.h).
  SkipTuples(*e, view_.num_free(), cursor.emitted);
  return e;
}

namespace {

struct CountMemoKey {
  int bag;
  Tuple interface_vals;
  bool operator==(const CountMemoKey&) const = default;
};

struct CountMemoHash {
  size_t operator()(const CountMemoKey& k) const {
    return TupleHash()(k.interface_vals) * 1000003u + (size_t)k.bag;
  }
};

}  // namespace

size_t DecomposedRep::CountAnswer(const BoundValuation& vb) const {
  const std::vector<VarId>& bvars = view_.bound_vars();
  CQC_CHECK_EQ(vb.size(), bvars.size());
  for (const BoundAtom& atom : root_atoms_)
    if (atom.CountBound(vb) == 0) return 0;
  if (bags_.empty()) return 1;  // boolean view, root checks passed

  std::vector<Value> values(view_.cq().num_vars(), 0);
  for (size_t i = 0; i < bvars.size(); ++i) values[bvars[i]] = vb[i];

  std::unordered_map<CountMemoKey, size_t, CountMemoHash> memo;
  // count over the subtree rooted at bag b, given `values` fixed for anc.
  std::function<size_t(int, std::vector<Value>&)> count =
      [&](int b, std::vector<Value>& vals) -> size_t {
    const Bag& bag = bags_[b];
    CountMemoKey key{b, Tuple(bag.bound_vars.size())};
    for (size_t i = 0; i < bag.bound_vars.size(); ++i)
      key.interface_vals[i] = vals[bag.bound_vars[i]];
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;

    size_t total = 0;
    auto e = bag.rep->Answer(key.interface_vals);
    constexpr size_t kBatch = 64;
    TupleBuffer batch((int)bag.free_vars.size());
    for (;;) {
      batch.Clear();
      const size_t n = e->NextBatch(&batch, kBatch);
      for (size_t j = 0; j < n; ++j) {
        const TupleSpan vf = batch[j];
        for (size_t i = 0; i < bag.free_vars.size(); ++i)
          vals[bag.free_vars[i]] = vf[i];
        size_t prod = 1;
        for (int c : bag_children_[b]) {
          prod *= count(c, vals);
          if (prod == 0) break;
        }
        total += prod;
      }
      if (n < kBatch) break;
    }
    memo.emplace(std::move(key), total);
    return total;
  };

  // Top-level bags (children of the root) multiply together.
  size_t result = 1;
  for (size_t b = 0; b < bags_.size() && result > 0; ++b) {
    if (bags_[b].parent_bag != -1) continue;
    result *= count((int)b, values);
  }
  return result;
}

namespace {

// Ring product of two independent subtree cells of which at most one
// carries the value variable (the other holds the ring identities, so the
// symmetric formulas below collapse to scaling the carrier by the
// non-carrier's count).
AggCell CellProduct(const AggCell& a, const AggCell& b) {
  AggCell r;
  r.count = a.count * b.count;
  if (r.count == 0) {
    r.sum = 0;
    r.min = kTop;
    r.max = kBottom;
    return r;
  }
  r.sum = a.sum * b.count + b.sum * a.count;
  r.min = std::min(a.min, b.min);
  r.max = std::max(a.max, b.max);
  return r;
}

}  // namespace

AggregateResult DecomposedRep::AnswerAggregate(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  // Grouped requests fall back to drain-and-fold over Algorithm 5.
  if (!group_vars.empty()) {
    auto e = Answer(vb);
    return GroupedDrainAggregate(*e, view_.num_free(), group_vars, spec);
  }

  const std::vector<VarId>& bvars = view_.bound_vars();
  CQC_CHECK_EQ(vb.size(), bvars.size());
  GroupAccumulator acc(0, spec);

  for (const BoundAtom& atom : root_atoms_)
    if (atom.CountBound(vb) == 0) return acc.Finish();

  // Which bag position (if any) assigns the value variable.
  const VarId value_gv = spec.func != AggFunc::kCount && spec.value_var >= 0
                             ? view_.free_vars()[spec.value_var]
                             : -1;

  AggCell total;
  total.count = 1;
  if (bags_.empty()) {
    // Boolean view: one empty answer (COUNT-only at this arity).
    const Value dummy = 0;
    acc.AddCell(&dummy, total.count, total.sum, total.min, total.max);
    return acc.Finish();
  }

  std::vector<Value> values(view_.cq().num_vars(), 0);
  for (size_t i = 0; i < bvars.size(); ++i) values[bvars[i]] = vb[i];

  std::unordered_map<CountMemoKey, AggCell, CountMemoHash> memo;
  // The CountAnswer recurrence over AggCell: cell(bag, interface) =
  // ring-sum over the bag's valuations of the cell product across child
  // subtrees (seeded with the bag tuple's own value when the bag assigns
  // the value variable).
  std::function<AggCell(int, std::vector<Value>&)> fold =
      [&](int b, std::vector<Value>& vals) -> AggCell {
    const Bag& bag = bags_[b];
    CountMemoKey key{b, Tuple(bag.bound_vars.size())};
    for (size_t i = 0; i < bag.bound_vars.size(); ++i)
      key.interface_vals[i] = vals[bag.bound_vars[i]];
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;

    int value_pos = -1;
    for (size_t i = 0; i < bag.free_vars.size(); ++i)
      if (bag.free_vars[i] == value_gv) value_pos = (int)i;

    AggCell sub;  // count 0, ring identities
    auto e = bag.rep->Answer(key.interface_vals);
    constexpr size_t kBatch = 64;
    TupleBuffer batch((int)bag.free_vars.size());
    for (;;) {
      batch.Clear();
      const size_t n = e->NextBatch(&batch, kBatch);
      for (size_t j = 0; j < n; ++j) {
        const TupleSpan vf = batch[j];
        for (size_t i = 0; i < bag.free_vars.size(); ++i)
          vals[bag.free_vars[i]] = vf[i];
        AggCell cell;
        cell.count = 1;
        if (value_pos >= 0) {
          cell.sum = vf[value_pos];
          cell.min = vf[value_pos];
          cell.max = vf[value_pos];
        }
        for (int c : bag_children_[b]) {
          cell = CellProduct(cell, fold(c, vals));
          if (cell.count == 0) break;
        }
        sub.Merge(cell);
      }
      if (n < kBatch) break;
    }
    memo.emplace(std::move(key), sub);
    return sub;
  };

  // Top-level bags (children of the root) multiply together.
  for (size_t b = 0; b < bags_.size() && total.count > 0; ++b) {
    if (bags_[b].parent_bag != -1) continue;
    total = CellProduct(total, fold((int)b, values));
  }

  const Value dummy = 0;
  acc.AddCell(&dummy, total.count, total.sum, total.min, total.max);
  return acc.Finish();
}

bool DecomposedRep::AnswerExists(const BoundValuation& vb) const {
  Tuple t;
  return Answer(vb)->Next(&t);
}

}  // namespace cqc
