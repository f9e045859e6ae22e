#include "core/dictionary.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>

#include "exec/par_util.h"
#include "exec/thread_pool.h"
#include "join/generic_join.h"
#include "util/logging.h"

namespace cqc {

HeavyDictionary::Bit HeavyDictionary::Lookup(int node, uint32_t vb_id) const {
  if (vb_id == kNoValuation) return Bit::kAbsent;
  if (node < 0 || (size_t)node + 1 >= node_offsets_.size())
    return Bit::kAbsent;
  const uint32_t* begin = entry_vb_.data() + node_offsets_[node];
  const uint32_t* end = entry_vb_.data() + node_offsets_[node + 1];
  const uint32_t* it = std::lower_bound(begin, end, vb_id);
  if (it == end || *it != vb_id) return Bit::kAbsent;
  return entry_bit_[it - entry_vb_.data()] ? Bit::kOne : Bit::kZero;
}

size_t HeavyDictionary::LookupEntryIndex(int node, uint32_t vb_id) const {
  if (vb_id == kNoValuation) return kNoEntry;
  if (node < 0 || (size_t)node + 1 >= node_offsets_.size()) return kNoEntry;
  const uint32_t* begin = entry_vb_.data() + node_offsets_[node];
  const uint32_t* end = entry_vb_.data() + node_offsets_[node + 1];
  const uint32_t* it = std::lower_bound(begin, end, vb_id);
  if (it == end || *it != vb_id) return kNoEntry;
  return (size_t)(it - entry_vb_.data());
}

void HeavyDictionary::AttachAggregates(ColStore<uint64_t> counts,
                                       ColStore<Value> vals, int mu) {
  CQC_CHECK_EQ(counts.size(), entry_vb_.size());
  CQC_CHECK_EQ(vals.size(), entry_vb_.size() * (size_t)(3 * mu));
  agg_mu_ = mu;
  entry_agg_count_ = std::move(counts);
  entry_agg_vals_ = std::move(vals);
}

uint32_t HeavyDictionary::FindValuation(TupleSpan vb) const {
  if (num_candidates_ == 0 || (int)vb.size() != vb_arity_)
    return kNoValuation;
  // The pool is in strict lex order (checked at Seal), so it is its own
  // index: one binary search, O(log candidates) row decodes.
  Value row[kMaxVars];
  size_t lo = 0, hi = num_candidates_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    UnpackCandidate((uint32_t)mid, row);
    int c = 0;
    while (c < vb_arity_ && row[c] == vb[c]) ++c;
    if (c == vb_arity_) return (uint32_t)mid;
    if (row[c] < vb[c]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return kNoValuation;
}

void HeavyDictionary::Seal() {
  if (sealed_) return;
  for (uint32_t id = 1; id < num_candidates_ && vb_arity_ > 0; ++id)
    CQC_CHECK(candidate(id - 1) < candidate(id))
        << "dictionary candidates not in strict lex order at id " << id;
  // Keep only the candidates some entry names: a valuation without an
  // entry is light at every node, which FindValuation's kNoValuation
  // already says. A candidate's new id is its rank among the referenced
  // ones, a monotone map, so the pool stays lex-sorted, every node slice
  // stays sorted and ids stay dense. `used` marks the referenced ids and
  // `rank` counts them per 64-id word; the rows move down in place.
  std::vector<uint64_t> used((num_candidates_ + 63) / 64, 0);
  for (uint32_t vb : entry_vb_) used[vb / 64] |= uint64_t{1} << (vb % 64);
  std::vector<uint32_t> rank(used.size());
  uint32_t kept = 0;
  for (size_t w = 0; w < used.size(); ++w) {
    rank[w] = kept;
    kept += (uint32_t)std::popcount(used[w]);
  }
  if (kept < num_candidates_) {
    const size_t arity = (size_t)vb_arity_;
    Value* pool = candidate_pool_.data();
    uint32_t next = 0;
    for (uint32_t id = 0; id < num_candidates_; ++id) {
      if ((used[id / 64] >> (id % 64) & 1) == 0) continue;
      if (next != id)
        std::copy_n(pool + id * arity, arity, pool + next * arity);
      ++next;
    }
    uint32_t* vbs = entry_vb_.mutable_data();
    for (size_t e = 0; e < entry_vb_.size(); ++e) {
      const uint32_t id = vbs[e];
      const uint64_t below = (uint64_t{1} << (id % 64)) - 1;
      vbs[e] = rank[id / 64] + (uint32_t)std::popcount(used[id / 64] & below);
    }
    num_candidates_ = kept;
    candidate_pool_.resize(num_candidates_ * arity);
  }
  packed_pool_ = PackedTuplePool::Pack(candidate_pool_, vb_arity_,
                                       num_candidates_);
  candidate_pool_.clear();
  candidate_pool_.shrink_to_fit();
  sealed_ = true;
}

uint32_t HeavyDictionary::AddCandidate(TupleSpan vb) {
  CQC_DCHECK(!sealed_) << "AddCandidate on a sealed dictionary";
  CQC_CHECK_EQ((int)vb.size(), vb_arity_);
  candidate_pool_.insert(candidate_pool_.end(), vb.begin(), vb.end());
  return (uint32_t)num_candidates_++;
}

void HeavyDictionary::SetBit(int node, uint32_t vb_id, bool bit) {
  CQC_CHECK_GE(node, 0);
  CQC_CHECK_LT((size_t)node + 1, node_offsets_.size());
  CQC_CHECK(!entry_bit_.borrowed())
      << "SetBit on a zero-copy (mapped) dictionary";
  const uint32_t* begin = entry_vb_.data() + node_offsets_[node];
  const uint32_t* end = entry_vb_.data() + node_offsets_[node + 1];
  const uint32_t* it = std::lower_bound(begin, end, vb_id);
  CQC_CHECK(it != end && *it == vb_id) << "SetBit on absent dictionary entry";
  entry_bit_.mutable_data()[it - entry_vb_.data()] = bit ? 1 : 0;
}

size_t HeavyDictionary::MemoryBytes() const {
  // Borrowed (mapped) columns charge their logical extent — see the
  // matching note in PackedTuplePool::MemoryBytes.
  const auto col = [](const auto& c) {
    return c.borrowed() ? c.ByteSize() : c.MemoryBytes();
  };
  return sizeof(*this) + candidate_pool_.capacity() * sizeof(Value) +
         packed_pool_.MemoryBytes() + col(node_offsets_) + col(entry_vb_) +
         col(entry_bit_) + col(entry_agg_count_) + col(entry_agg_vals_);
}

HeavyDictionary HeavyDictionary::FromPacked(
    int vb_arity, size_t num_candidates, PackedTuplePool pool,
    ColStore<uint32_t> node_offsets, ColStore<uint32_t> entry_vb,
    ColStore<uint8_t> entry_bit) {
  CQC_CHECK_EQ(pool.arity(), vb_arity);
  if (vb_arity > 0) CQC_CHECK_EQ(pool.size(), num_candidates);
  CQC_CHECK_EQ(entry_vb.size(), entry_bit.size());
  if (!node_offsets.empty()) {
    CQC_CHECK_EQ((size_t)node_offsets.back(), entry_vb.size());
  } else {
    CQC_CHECK(entry_vb.empty());
  }
  HeavyDictionary d;
  d.vb_arity_ = vb_arity;
  d.num_candidates_ = num_candidates;
  d.packed_pool_ = std::move(pool);
  d.node_offsets_ = std::move(node_offsets);
  d.entry_vb_ = std::move(entry_vb);
  d.entry_bit_ = std::move(entry_bit);
  d.sealed_ = true;  // already packed: skip Seal()'s repack
  return d;
}

DictionaryBuilder::DictionaryBuilder(const std::vector<BoundAtom>* atoms,
                                     const CostModel* cost,
                                     const DelayBalancedTree* tree,
                                     const LexDomain* domain, int num_bound,
                                     double tau, double alpha)
    : atoms_(atoms),
      cost_(cost),
      tree_(tree),
      domain_(domain),
      num_bound_(num_bound),
      tau_(tau),
      alpha_(alpha) {}

void DictionaryBuilder::CollectCandidates(HeavyDictionary* dict) {
  dict->vb_arity_ = num_bound_;
  if (num_bound_ == 0) {
    // A single empty valuation: the full-enumeration / no-bound case.
    dict->AddCandidate(TupleSpan());
    return;
  }
  // Join the bound projections of every atom that touches a bound variable.
  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : *atoms_) {
    if (atom.num_bound() == 0) continue;
    JoinAtomInput in;
    in.index = &atom.bf_index();
    in.start = atom.bf_index().Root();
    in.start_level = 0;
    for (int i = 0; i < atom.num_bound(); ++i)
      in.levels.emplace_back(atom.bound_positions()[i], i);
    inputs.push_back(std::move(in));
  }
  CQC_CHECK(!inputs.empty()) << "bound variables appear in no atom";
  std::vector<LevelConstraint> constraints(num_bound_,
                                           LevelConstraint::Any());
  JoinIterator join(std::move(inputs), num_bound_, std::move(constraints));
  Tuple vb;
  while (join.Next(&vb)) dict->AddCandidate(vb);
}

bool DictionaryBuilder::ProbeNonEmpty(TupleSpan vb,
                                      const std::vector<FBox>& boxes) const {
  const int mu = domain_->mu();
  // The atom inputs depend only on vb; the boxes just change constraints,
  // so one JoinIterator serves every box via ResetToBox().
  std::vector<JoinAtomInput> inputs;
  for (const BoundAtom& atom : *atoms_) {
    JoinAtomInput in;
    in.index = &atom.bf_index();
    in.start = atom.SeekBound(vb);
    if (in.start.empty()) return false;  // no tuple under vb at all
    in.start_level = atom.num_bound();
    for (int i = 0; i < atom.num_free(); ++i)
      in.levels.emplace_back(atom.free_positions()[i], atom.num_bound() + i);
    inputs.push_back(std::move(in));
  }
  JoinIterator join(&inputs, mu, std::vector<LevelConstraint>(mu));
  Tuple out;
  for (const FBox& box : boxes) {
    join.ResetToBox(box);
    if (join.Next(&out)) return true;
  }
  return false;
}

// Sweeps one node: appends its heavy entries and returns (via `live`) the
// candidate ids that propagate to the children. Reads the dictionary's raw
// candidate pool and the shared read-only inputs only, and writes only
// staging[node] — safe to run concurrently for distinct nodes.
void DictionaryBuilder::ProcessOne(const HeavyDictionary& dict,
                                   std::vector<Entry>* entries, int node,
                                   const std::vector<FBox>& boxes,
                                   const std::vector<uint32_t>& cand,
                                   std::vector<uint32_t>* live) const {
  const double threshold =
      DelayBalancedTree::Threshold(tau_, alpha_, tree_->level(node));
  for (uint32_t id : cand) {
    const TupleSpan vb = dict.candidate(id);
    const double t = cost_->BoxesCostBound(vb, boxes);
    if (t <= threshold) continue;  // light: no entry
    const bool nonempty = ProbeNonEmpty(vb, boxes);
    entries->push_back({id, (uint8_t)(nonempty ? 1 : 0)});
    if (nonempty) live->push_back(id);
  }
  // `cand` is sorted; filtering preserves order, so entries stay sorted.
}

void DictionaryBuilder::ProcessNode(HeavyDictionary* dict,
                                    std::vector<std::vector<Entry>>* staging,
                                    int node, const FInterval& interval,
                                    const std::vector<uint32_t>& cand) {
  const std::vector<FBox> boxes = BoxDecompose(interval);
  std::vector<uint32_t> live;  // heavy with bit 1: propagate to children
  ProcessOne(*dict, &(*staging)[node], node, boxes, cand, &live);

  if (live.empty() || tree_->leaf(node)) return;
  const TupleSpan beta = tree_->beta(node);
  FInterval child;
  if (tree_->left(node) >= 0) {
    CQC_CHECK(
        DelayBalancedTree::LeftInterval(interval, beta, *domain_, &child));
    ProcessNode(dict, staging, tree_->left(node), child, live);
  }
  if (tree_->right(node) >= 0) {
    CQC_CHECK(
        DelayBalancedTree::RightInterval(interval, beta, *domain_, &child));
    ProcessNode(dict, staging, tree_->right(node), child, live);
  }
}

HeavyDictionary DictionaryBuilder::Build() {
  HeavyDictionary dict;
  CollectCandidates(&dict);
  const size_t num_nodes = tree_->size();
  if (tree_->empty() || domain_->mu() == 0) {
    dict.node_offsets_.assign(num_nodes + 1, 0);
    dict.Seal();
    return dict;
  }

  std::vector<std::vector<Entry>> staging(num_nodes);
  std::vector<uint32_t> all((size_t)dict.NumCandidates());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  FInterval root{domain_->MinTuple(), domain_->MaxTuple()};

  const int threads = par::BuildThreads();
  if (threads <= 1 || ThreadPool::InWorker()) {
    ProcessNode(&dict, &staging, tree_->root(), root, all);
  } else {
    // Per-subtree parallelism: expand a work frontier breadth-first on the
    // caller thread (child candidate sets depend on the parent sweep, so
    // the prefix is inherently sequential), then hand each remaining
    // subtree to the shared pool. Subtrees write disjoint staging slots and
    // read the shared structures only.
    struct SubtreeTask {
      int node;
      FInterval interval;
      std::vector<uint32_t> cand;
    };
    std::deque<SubtreeTask> frontier;
    frontier.push_back({tree_->root(), root, std::move(all)});
    const size_t target = 4 * (size_t)threads;
    while (!frontier.empty() && frontier.size() < target) {
      SubtreeTask t = std::move(frontier.front());
      frontier.pop_front();
      const std::vector<FBox> boxes = BoxDecompose(t.interval);
      std::vector<uint32_t> live;
      ProcessOne(dict, &staging[t.node], t.node, boxes, t.cand, &live);
      if (live.empty() || tree_->leaf(t.node)) continue;
      const TupleSpan beta = tree_->beta(t.node);
      FInterval child;
      if (tree_->left(t.node) >= 0) {
        CQC_CHECK(DelayBalancedTree::LeftInterval(t.interval, beta, *domain_,
                                                  &child));
        frontier.push_back({tree_->left(t.node), child, live});
      }
      if (tree_->right(t.node) >= 0) {
        CQC_CHECK(DelayBalancedTree::RightInterval(t.interval, beta,
                                                   *domain_, &child));
        frontier.push_back({tree_->right(t.node), child, std::move(live)});
      }
    }
    if (!frontier.empty()) {
      // TaskGroup (not bare Submit+WaitIdle): per-group completion and
      // fault attribution. A task killed by a contained exception or an
      // injected thread_pool/task fault is re-run serially below, so a
      // transient worker fault degrades to serial work on that subtree
      // instead of a silently incomplete dictionary.
      std::vector<SubtreeTask> tasks(
          std::make_move_iterator(frontier.begin()),
          std::make_move_iterator(frontier.end()));
      // One byte per task, each written by exactly one worker; reads are
      // ordered by the group's Wait().
      std::vector<char> completed(tasks.size(), 0);
      TaskGroup group(SharedBuildPool());
      for (size_t i = 0; i < tasks.size(); ++i) {
        group.Submit([this, &dict, &staging, &tasks, &completed, i] {
          const SubtreeTask& task = tasks[i];
          ProcessNode(&dict, &staging, task.node, task.interval, task.cand);
          completed[i] = 1;
        });
      }
      if (!group.Wait().ok()) {
        // A failed task may have filled part of its subtree's staging
        // slots before dying; clear the whole subtree so the serial rerun
        // appends into empty slots.
        const std::function<void(int)> clear_subtree = [&](int node) {
          if (node < 0) return;
          staging[node].clear();
          clear_subtree(tree_->left(node));
          clear_subtree(tree_->right(node));
        };
        for (size_t i = 0; i < tasks.size(); ++i) {
          if (completed[i]) continue;
          clear_subtree(tasks[i].node);
          ProcessNode(&dict, &staging, tasks[i].node, tasks[i].interval,
                      tasks[i].cand);
        }
      }
    }
  }

  // Flatten the per-node staging vectors into the CSR columns.
  size_t total = 0;
  for (const auto& e : staging) total += e.size();
  dict.node_offsets_.resize(num_nodes + 1);
  dict.entry_vb_.reserve(total);
  dict.entry_bit_.reserve(total);
  uint32_t* offsets = dict.node_offsets_.mutable_data();
  for (size_t n = 0; n < num_nodes; ++n) {
    offsets[n] = (uint32_t)dict.entry_vb_.size();
    for (const Entry& e : staging[n]) {
      dict.entry_vb_.push_back(e.vb);
      dict.entry_bit_.push_back(e.bit);
    }
  }
  offsets[num_nodes] = (uint32_t)dict.entry_vb_.size();
  dict.Seal();
  return dict;
}

}  // namespace cqc
