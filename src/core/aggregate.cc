#include "core/aggregate.h"

#include <map>

#include "util/logging.h"

namespace cqc {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

bool IsPrefixGroupSet(const std::vector<int>& group_vars) {
  for (size_t i = 0; i < group_vars.size(); ++i)
    if (group_vars[i] != (int)i) return false;
  return true;
}

void GroupAccumulator::Open(const Value* key) {
  open_ = true;
  cur_key_.assign(key, key + k_);
  cur_ = AggCell{};
}

void GroupAccumulator::Flush() {
  if (!open_ || cur_.count == 0) return;
  out_.keys.insert(out_.keys.end(), cur_key_.begin(), cur_key_.end());
  out_.counts.push_back(cur_.count);
  switch (spec_.func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
      out_.values.push_back(cur_.sum);
      break;
    case AggFunc::kMin:
      out_.values.push_back(cur_.min);
      break;
    case AggFunc::kMax:
      out_.values.push_back(cur_.max);
      break;
  }
}

void GroupAccumulator::AddCell(const Value* key, uint64_t count, Value sum,
                               Value min, Value max) {
  if (count == 0) return;
  if (!open_ || !std::equal(key, key + k_, cur_key_.begin())) {
    CQC_DCHECK(!open_ || std::lexicographical_compare(
                             cur_key_.begin(), cur_key_.end(), key, key + k_))
        << "group keys must arrive in nondecreasing order";
    Flush();
    Open(key);
  }
  AggCell c;
  c.count = count;
  c.sum = sum;
  c.min = min;
  c.max = max;
  cur_.Merge(c);
}

void GroupAccumulator::AddTuple(TupleSpan t) {
  if (!open_ || !std::equal(t.begin(), t.begin() + k_, cur_key_.begin())) {
    CQC_DCHECK(!open_ ||
               std::lexicographical_compare(cur_key_.begin(), cur_key_.end(),
                                            t.begin(), t.begin() + k_))
        << "group keys must arrive in nondecreasing order";
    Flush();
    Open(t.data());
  }
  if (spec_.value_var >= 0)
    cur_.FoldValue(t[spec_.value_var]);
  else
    cur_.FoldCountOnly();
}

AggregateResult GroupAccumulator::Finish() {
  Flush();
  open_ = false;
  return std::move(out_);
}

AggregateResult GroupedDrainAggregate(TupleEnumerator& e, int num_free,
                                      const std::vector<int>& group_vars,
                                      const AggSpec& spec) {
  const int k = (int)group_vars.size();
  const int value_var = spec.func == AggFunc::kCount ? -1 : spec.value_var;
  CQC_DCHECK(value_var < 0 || (value_var >= 0 && value_var < num_free));
  constexpr size_t kBatch = 256;
  TupleBuffer batch(num_free);
  if (k == 0) {
    // One group: arrival order does not matter, so the streaming
    // accumulator folds it without a map.
    AggSpec one = spec;
    one.value_var = value_var;
    GroupAccumulator acc(0, one);
    for (;;) {
      batch.Clear();
      const size_t n = e.NextBatch(&batch, kBatch);
      for (size_t i = 0; i < n; ++i) acc.AddTuple(batch[i]);
      if (n < kBatch) break;
    }
    return acc.Finish();
  }
  // One ordered map keyed by the extracted group key: lex key order is
  // vector order, so the flattening loop emits groups strictly ascending —
  // byte-identical to what the in-order annotation walks produce. The
  // scratch key is reused and only copied into the map on first sight of a
  // group, so the steady-state fold allocates nothing.
  std::map<Tuple, AggCell> groups;
  Tuple key((size_t)k);
  for (;;) {
    batch.Clear();
    const size_t n = e.NextBatch(&batch, kBatch);
    for (size_t i = 0; i < n; ++i) {
      const TupleSpan t = batch[i];
      for (int j = 0; j < k; ++j) key[j] = t[group_vars[j]];
      auto it = groups.find(key);
      if (it == groups.end()) it = groups.emplace(key, AggCell{}).first;
      if (value_var >= 0)
        it->second.FoldValue(t[value_var]);
      else
        it->second.FoldCountOnly();
    }
    if (n < kBatch) break;
  }
  AggregateResult out;
  out.group_arity = k;
  out.keys.reserve(groups.size() * (size_t)k);
  out.counts.reserve(groups.size());
  for (const auto& [gk, cell] : groups) {
    out.keys.insert(out.keys.end(), gk.begin(), gk.end());
    out.counts.push_back(cell.count);
    switch (spec.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
        out.values.push_back(cell.sum);
        break;
      case AggFunc::kMin:
        out.values.push_back(cell.min);
        break;
      case AggFunc::kMax:
        out.values.push_back(cell.max);
        break;
    }
  }
  return out;
}

}  // namespace cqc
