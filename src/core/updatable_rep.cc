#include "core/updatable_rep.h"

#include <set>
#include <unordered_set>
#include <utility>

#include "join/bound_atom.h"
#include "join/generic_join.h"
#include "query/normalize.h"
#include "util/failpoint.h"
#include "util/hashing.h"
#include "util/logging.h"

namespace cqc {
namespace {

/// Forwards a stream while keeping an owner (the published State or
/// Snapshot an enumerator reads) alive: answers stay valid across
/// concurrent updates and rebuild pointer swaps.
class KeepAliveEnumerator : public TupleEnumerator {
 public:
  KeepAliveEnumerator(std::shared_ptr<const void> keep,
                      std::unique_ptr<TupleEnumerator> inner)
      : TupleEnumerator(inner->arity()),
        keep_(std::move(keep)),
        inner_(std::move(inner)) {}

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    return inner_->NextBatch(out, max_tuples);
  }

 private:
  std::shared_ptr<const void> keep_;
  std::unique_ptr<TupleEnumerator> inner_;
};

void CopyRelationInto(const Relation& src, Database& out) {
  Relation* dst = out.AddRelation(src.name(), src.arity());
  Tuple row(src.arity());
  for (size_t r = 0; r < src.size(); ++r) {
    for (int c = 0; c < src.arity(); ++c) row[c] = src.At(r, c);
    dst->Insert(row);
  }
  dst->Seal();
}

}  // namespace

// ---------------------------------------------------------------------------
// State: lazily derived delta databases.
// ---------------------------------------------------------------------------

void UpdatableRep::State::EnsureDerived() const {
  std::call_once(derived_once, [this] {
    auto ins = std::make_unique<Database>();
    auto tomb = std::make_unique<Database>();
    auto cur = std::make_unique<Database>();
    for (const Relation* r : snapshot->base->AllRelations()) {
      auto it = pending.find(r->name());
      const RelationPending* m =
          it == pending.end() ? nullptr : it->second.get();
      Relation* di = ins->AddRelation(r->name(), r->arity());
      Relation* dt = tomb->AddRelation(r->name(), r->arity());
      Relation* dc = cur->AddRelation(r->name(), r->arity());
      Tuple row(r->arity());
      for (size_t i = 0; i < r->size(); ++i) {
        for (int c = 0; c < r->arity(); ++c) row[c] = r->At(i, c);
        if (m != nullptr) {
          auto pit = m->find(row);
          if (pit != m->end() && pit->second < 0) continue;  // tombstoned
        }
        dc->Insert(row);
      }
      if (m != nullptr) {
        for (const auto& [t, sign] : *m) {
          if (sign > 0) {
            di->Insert(t);
            dc->Insert(t);
          } else {
            dt->Insert(t);
          }
        }
      }
      di->Seal();
      dt->Seal();
      dc->Seal();
    }
    has_tombstones = num_deletes > 0;
    inserts_db = std::move(ins);
    tombstones_db = std::move(tomb);
    current_db = std::move(cur);
  });
}

// ---------------------------------------------------------------------------
// Construction / publishing.
// ---------------------------------------------------------------------------

std::shared_ptr<const UpdatableRep::Snapshot> UpdatableRep::BuildSnapshot(
    const AdornedView& view, std::shared_ptr<const Database> source,
    const CompressedRepOptions& options, Status* status) {
  // The base is adopted, not copied: a fold reuses the previous epoch's
  // (immutable) merged database directly. Lazy index builds on the shared
  // relations are safe under concurrent readers (Relation's caches are
  // once_flag-coalesced).
  auto snap = std::make_shared<Snapshot>();
  snap->base = std::move(source);
  Result<std::unique_ptr<CompressedRep>> built =
      CompressedRep::Build(view, *snap->base, options);
  if (!built.ok()) {
    *status = built.status();
    return nullptr;
  }
  snap->rep = std::move(built).value();
  *status = Status::Ok();
  return snap;
}

Result<std::unique_ptr<UpdatableRep>> UpdatableRep::Build(
    const AdornedView& view, const Database& db,
    const UpdatableRepOptions& options, const Database* aux_db) {
  if (!view.cq().IsNaturalJoin())
    return Status::Error("UpdatableRep requires a natural join view");
  auto rep = std::unique_ptr<UpdatableRep>(new UpdatableRep(view));
  rep->options_ = options;
  // Snapshot every referenced relation (each name once).
  auto referenced = std::make_shared<Database>();
  std::set<std::string> seen;
  for (const Atom& atom : view.cq().atoms()) {
    if (!seen.insert(atom.relation).second) continue;
    const Relation* r = ResolveRelation(atom.relation, db, aux_db);
    if (r == nullptr) return Status::Error("unknown relation " + atom.relation);
    CopyRelationInto(*r, *referenced);
  }
  Status status = Status::Ok();
  auto snap = BuildSnapshot(view, std::move(referenced), options.rep, &status);
  if (!status.ok()) return status;
  auto state = std::make_shared<State>();
  state->snapshot = std::move(snap);
  rep->state_ = std::move(state);
  return std::move(rep);
}

std::shared_ptr<const UpdatableRep::State> UpdatableRep::Load() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

void UpdatableRep::Publish(std::shared_ptr<const State> next) {
  std::lock_guard<std::mutex> lock(state_mu_);
  state_ = std::move(next);
}

// ---------------------------------------------------------------------------
// Mutation: canonical pending delta + optional synchronous fold.
// ---------------------------------------------------------------------------

Status UpdatableRep::Apply(const UpdateBatch& batch) {
  if (batch.empty()) return Status::Ok();
  {
    std::lock_guard<std::mutex> wl(writer_mu_);
    std::shared_ptr<const State> cur = Load();
    const Database& base = *cur->snapshot->base;
    // Validate the whole batch before touching anything: a bad op leaves
    // the published state untouched.
    std::set<std::string> touched;
    for (const UpdateOp& op : batch) {
      const Relation* r = base.Find(op.relation);
      if (r == nullptr)
        return Status::Error("relation " + op.relation +
                             " is not part of the view");
      if ((int)op.tuple.size() != r->arity())
        return Status::Error("arity mismatch updating " + op.relation);
      touched.insert(op.relation);
    }
    auto next = std::make_shared<State>();
    next->snapshot = cur->snapshot;
    next->pending = cur->pending;  // shallow: per-relation maps are shared
    next->num_inserts = cur->num_inserts;
    next->num_deletes = cur->num_deletes;
    // Copy-on-write per touched relation; untouched relations share their
    // (immutable) maps with the previous epoch.
    for (const std::string& name : touched) {
      const Relation* r = base.Find(name);
      RelationPending m;
      if (auto it = next->pending.find(name); it != next->pending.end()) {
        m = *it->second;
        for (const auto& [t, sign] : m)
          --(sign > 0 ? next->num_inserts : next->num_deletes);
      }
      for (const UpdateOp& op : batch) {
        if (op.relation != name) continue;
        // Canonicalize against the snapshot (one point probe): +1
        // entries are exactly current \ base, -1 entries base \ current.
        const bool in_base = r->Contains(op.tuple);
        if (op.kind == UpdateOp::kInsert) {
          if (in_base)
            m.erase(op.tuple);  // un-delete (or no-op)
          else
            m[op.tuple] = +1;
        } else {
          if (in_base)
            m[op.tuple] = -1;  // tombstone
          else
            m.erase(op.tuple);  // cancel a pending insert (or no-op)
        }
      }
      for (const auto& [t, sign] : m)
        ++(sign > 0 ? next->num_inserts : next->num_deletes);
      if (m.empty())
        next->pending.erase(name);
      else
        next->pending[name] =
            std::make_shared<const RelationPending>(std::move(m));
    }
    Publish(std::move(next));
  }
  // The fold runs outside writer_mu_ (Rebuild re-acquires it only for the
  // final rebase + publish).
  if (options_.auto_rebuild && NeedsRebuild())
    return Rebuild(/*only_if_needed=*/true);
  return Status::Ok();
}

Status UpdatableRep::Insert(const std::string& relation, const Tuple& t) {
  return Apply({UpdateOp::Insert(relation, t)});
}

Status UpdatableRep::Delete(const std::string& relation, const Tuple& t) {
  return Apply({UpdateOp::Delete(relation, t)});
}

bool UpdatableRep::NeedsRebuild() const {
  std::shared_ptr<const State> st = Load();
  return (double)(st->num_inserts + st->num_deletes) >
         options_.rebuild_fraction *
             (double)st->snapshot->base->TotalTuples();
}

Status UpdatableRep::Rebuild(bool only_if_needed) {
  std::lock_guard<std::mutex> rl(rebuild_mu_);  // one rebuild at a time
  if (only_if_needed && !NeedsRebuild()) return Status::Ok();
  // Injected before the snapshot is captured: a fired rebuild fault must
  // leave the current state fully serviceable (the old snapshot + pending
  // delta keeps answering).
  CQC_FAILPOINT("updatable/rebuild");
  std::shared_ptr<const State> captured = Load();
  if (!captured->HasPending()) return Status::Ok();
  captured->EnsureDerived();
  // The expensive part — rebuilding the Theorem-1 structure over the
  // merged data (adopted, not copied) — runs without the writer lock, so
  // concurrent Apply calls proceed against the old snapshot meanwhile.
  Status status = Status::Ok();
  std::shared_ptr<const Snapshot> snap =
      BuildSnapshot(view_, captured->current_db, options_.rep, &status);
  if (!status.ok()) return status;
  {
    std::lock_guard<std::mutex> wl(writer_mu_);
    // Rebuilds are serialized, so the current state still points at the
    // snapshot we captured; only its pending delta may have advanced.
    std::shared_ptr<const State> cur = Load();
    auto next = std::make_shared<State>();
    next->snapshot = snap;
    // Rebase: a pending entry records current membership relative to the
    // *old* base; re-derive it against the new base. Only tuples touched
    // by either pending map can differ between the two bases.
    for (const Relation* r : captured->snapshot->base->AllRelations()) {
      const std::string& name = r->name();
      const Relation* nb = snap->base->Find(name);
      auto cit = cur->pending.find(name);
      auto kit = captured->pending.find(name);
      const RelationPending* cur_m =
          cit == cur->pending.end() ? nullptr : cit->second.get();
      RelationPending rebased;
      auto consider = [&](const Tuple& t) {
        bool present_now;
        if (cur_m != nullptr) {
          auto pit = cur_m->find(t);
          present_now =
              pit != cur_m->end() ? pit->second > 0 : r->Contains(t);
        } else {
          present_now = r->Contains(t);
        }
        const bool in_new_base = nb->Contains(t);
        if (present_now != in_new_base)
          rebased[t] = present_now ? +1 : -1;
      };
      if (cur_m != nullptr)
        for (const auto& [t, sign] : *cur_m) consider(t);
      if (kit != captured->pending.end())
        for (const auto& [t, sign] : *kit->second) consider(t);
      if (rebased.empty()) continue;
      for (const auto& [t, sign] : rebased)
        ++(sign > 0 ? next->num_inserts : next->num_deletes);
      next->pending[name] =
          std::make_shared<const RelationPending>(std::move(rebased));
    }
    Publish(std::move(next));
  }
  ++num_rebuilds_;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Accessors.
// ---------------------------------------------------------------------------

size_t UpdatableRep::pending_inserts() const { return Load()->num_inserts; }
size_t UpdatableRep::pending_deletes() const { return Load()->num_deletes; }

size_t UpdatableRep::snapshot_tuples() const {
  return Load()->snapshot->base->TotalTuples();
}

double UpdatableRep::build_seconds() const {
  return Load()->snapshot->rep->stats().build_seconds;
}

size_t UpdatableRep::StateSpaceBytes(const State& st) {
  size_t pending_bytes = 0;
  for (const auto& [name, m] : st.pending)
    for (const auto& [t, sign] : *m)
      pending_bytes += t.size() * sizeof(Value) + 48;
  return st.snapshot->rep->stats().TotalBytes() +
         st.snapshot->base->BaseBytes() + pending_bytes;
}

size_t UpdatableRep::SpaceBytes() const { return StateSpaceBytes(*Load()); }

UpdatableRep::Info UpdatableRep::GetInfo() const {
  // One epoch load: every field comes from the same published state, and
  // the state (not a dangling reference) is what we read from — safe
  // against a concurrent rebuild swapping the snapshot mid-read.
  std::shared_ptr<const State> st = Load();
  Info info;
  info.tau = st->snapshot->rep->tau();
  info.snapshot_tuples = st->snapshot->base->TotalTuples();
  info.pending_inserts = st->num_inserts;
  info.pending_deletes = st->num_deletes;
  info.num_rebuilds = num_rebuilds_;
  info.space_bytes = StateSpaceBytes(*st);
  return info;
}

bool UpdatableRep::has_aggregates() const {
  return Load()->snapshot->rep->has_aggregates();
}

const CompressedRep& UpdatableRep::rep() const {
  return *Load()->snapshot->rep;
}

const Database& UpdatableRep::snapshot_base() const {
  return *Load()->snapshot->base;
}

// ---------------------------------------------------------------------------
// Combined enumeration: filtered snapshot answers, then delta-term answers.
// ---------------------------------------------------------------------------

class UpdatableRep::CombinedEnumerator : public TupleEnumerator {
 public:
  CombinedEnumerator(std::shared_ptr<const State> state,
                     const AdornedView& view, BoundValuation vb)
      : TupleEnumerator(view.num_free()),
        state_(std::move(state)),
        view_(&view),
        vb_(std::move(vb)),
        stage_(view.num_free()) {
    base_enum_ = state_->snapshot->rep->Answer(vb_);
    const ConjunctiveQuery& cq = view_->cq();
    // Bind each atom against snapshot / inserted / current variants once.
    for (const Atom& atom : cq.atoms()) {
      old_.emplace_back(atom, *state_->snapshot->base->Find(atom.relation),
                        view_->bound_vars(), view_->free_vars());
      ins_.emplace_back(atom, *state_->inserts_db->Find(atom.relation),
                        view_->bound_vars(), view_->free_vars());
      cur_.emplace_back(atom, *state_->current_db->Find(atom.relation),
                        view_->bound_vars(), view_->free_vars());
      tombstones_.push_back(state_->tombstones_db->Find(atom.relation));
    }
  }

  size_t NextBatch(TupleBuffer* out, size_t max_tuples) override {
    size_t emitted = 0;
    // Snapshot answers: drain the filtered stage block by block, appending
    // survivors straight from the stage buffer (no per-tuple Tuple). A
    // refill never pulls more than is still wanted, so NextBatch(…, 1)
    // (and with it Next()) does one production step plus one tombstone
    // probe per atom: a strict, not amortized, constant delay, which the
    // per-request worst-gap percentiles in BENCH_updates.json gate.
    while (emitted < max_tuples &&
           (base_enum_ != nullptr || stage_pos_ < stage_.size())) {
      if (stage_pos_ >= stage_.size()) {
        if (!RefillStage(std::min(kStageBlock, max_tuples - emitted))) {
          base_enum_.reset();
          break;
        }
        continue;
      }
      while (stage_pos_ < stage_.size() && emitted < max_tuples) {
        const size_t i = stage_pos_++;
        if (!keep_.empty() && !keep_[i]) continue;
        out->Append(stage_[i]);
        ++emitted;
      }
    }
    // Delta terms, one answer at a time (dedup + derivability probes).
    const int n = (int)old_.size();
    while (emitted < max_tuples) {
      if (!term_join_.has_value()) {
        if (term_ >= n) break;
        if (!StartTerm(term_)) ++term_;
        continue;
      }
      if (!term_join_->Next(&term_tuple_)) {
        term_join_.reset();
        ++term_;
        continue;
      }
      if (DerivableFromSnapshot(term_tuple_)) continue;
      if (!emitted_.insert(term_tuple_).second) continue;
      out->Append(term_tuple_);
      ++emitted;
    }
    return emitted;
  }

 private:
  // Largest snapshot refill: amortizes the producer call over a block when
  // the caller wants many tuples.
  static constexpr size_t kStageBlock = 64;

  // Pulls the next `block` snapshot answers into stage_ and computes the
  // survivor mask. Returns false iff the snapshot stream is exhausted.
  // keep_ stays empty when there are no tombstones (everything survives).
  // Otherwise an answer survives iff no atom's projection is tombstoned:
  // every projection of a snapshot answer lies in the base, and the -1
  // pending entries are exactly base \ current (pending is canonical), so
  // probing the tombstones alone is exact.
  bool RefillStage(size_t block) {
    stage_.Clear();
    stage_pos_ = 0;
    keep_.clear();
    const size_t got = base_enum_->NextBatch(&stage_, block);
    if (got == 0) return false;
    if (!state_->has_tombstones) return true;
    keep_.assign(got, 1);
    for (size_t i = 0; i < got; ++i) {
      for (size_t a = 0; a < old_.size(); ++a) {
        if (old_[a].ContainsValuationIn(*tombstones_[a], vb_, stage_[i])) {
          keep_[i] = 0;
          break;
        }
      }
    }
    return true;
  }
  // Signed delta term i: atom i ranges over the net inserts, every other
  // atom over the current (merged) relation. Produces every answer whose
  // (unique) derivation uses an inserted tuple at atom i; the cross-term
  // duplicates are removed by emitted_.
  bool StartTerm(int i) {
    const int mu = view_->num_free();
    std::vector<JoinAtomInput> inputs;
    for (int j = 0; j < (int)old_.size(); ++j) {
      const BoundAtom& atom = (j == i) ? ins_[j] : cur_[j];
      JoinAtomInput in;
      in.index = &atom.bf_index();
      in.start = atom.SeekBound(vb_);
      if (in.start.empty()) return false;
      in.start_level = atom.num_bound();
      for (int k = 0; k < atom.num_free(); ++k)
        in.levels.emplace_back(atom.free_positions()[k],
                               atom.num_bound() + k);
      inputs.push_back(std::move(in));
    }
    term_join_.emplace(
        std::move(inputs), mu,
        std::vector<LevelConstraint>(mu, LevelConstraint::Any()));
    return true;
  }

  // v in Q(snapshot)? Every snapshot atom contains the projection of
  // (vb, v) — those answers stream (filtered) from base_enum_ already.
  bool DerivableFromSnapshot(const Tuple& vf) const {
    for (const BoundAtom& atom : old_)
      if (!atom.ContainsValuation(vb_, vf)) return false;
    return true;
  }

  std::shared_ptr<const State> state_;  // owns everything we read
  const AdornedView* view_;
  BoundValuation vb_;
  std::unique_ptr<TupleEnumerator> base_enum_;
  TupleBuffer stage_;
  size_t stage_pos_ = 0;
  std::vector<uint8_t> keep_;  // per-staged-tuple survivor mask
  std::vector<BoundAtom> old_, ins_, cur_;
  // Per atom, its relation's tombstones (probed through old_'s column
  // maps: binding atoms to them would build sorted indexes per epoch).
  std::vector<const Relation*> tombstones_;
  int term_ = 0;
  std::optional<JoinIterator> term_join_;
  Tuple term_tuple_;  // the current delta-term answer
  std::unordered_set<Tuple, TupleHash> emitted_;
};

std::unique_ptr<TupleEnumerator> UpdatableRep::Answer(
    const BoundValuation& vb) const {
  std::shared_ptr<const State> st = Load();
  if (!st->HasPending()) {
    std::unique_ptr<TupleEnumerator> inner = st->snapshot->rep->Answer(vb);
    return std::make_unique<KeepAliveEnumerator>(std::move(st),
                                                 std::move(inner));
  }
  st->EnsureDerived();
  return std::make_unique<CombinedEnumerator>(std::move(st), view_, vb);
}

bool UpdatableRep::AnswerExists(const BoundValuation& vb) const {
  Tuple t;
  return Answer(vb)->Next(&t);
}

AggregateResult UpdatableRep::AnswerAggregate(
    const BoundValuation& vb, const std::vector<int>& group_vars,
    const AggSpec& spec) const {
  std::shared_ptr<const State> st = Load();
  if (!st->HasPending()) {
    // Clean epoch: the snapshot structure answers directly (pushed when it
    // carries annotations). `st` keeps the epoch alive for the call.
    return st->snapshot->rep->AnswerAggregate(vb, group_vars, spec);
  }
  // Pending ops: fold the combined signed stream — the tombstone filter
  // and delta-join terms already apply every +1/-1, so drain-and-fold is
  // exact (pushed speed returns at the next epoch publish).
  st->EnsureDerived();
  CombinedEnumerator e(std::move(st), view_, vb);
  return GroupedDrainAggregate(e, view_.num_free(), group_vars, spec);
}

}  // namespace cqc
