#include "join/generic_join.h"

#include <algorithm>

#include "simd/kernels.h"
#include "util/logging.h"
#include "util/op_counter.h"

namespace cqc {

JoinIterator::JoinIterator(const std::vector<JoinAtomInput>* atoms,
                           int num_levels,
                           std::vector<LevelConstraint> constraints)
    : atoms_(atoms),
      num_levels_(num_levels),
      constraints_(std::move(constraints)) {
  CQC_CHECK_EQ((int)constraints_.size(), num_levels_);
  participants_.resize(num_levels_);
  range_stack_.resize(this->atoms().size());
  for (size_t a = 0; a < this->atoms().size(); ++a) {
    const JoinAtomInput& in = this->atoms()[a];
    if (in.start.empty()) empty_atom_ = true;
    range_stack_[a].assign(in.levels.size() + 1, in.start);
    int prev_join = -1, prev_trie = in.start_level - 1;
    for (size_t d = 0; d < in.levels.size(); ++d) {
      auto [join_level, trie_level] = in.levels[d];
      CQC_CHECK_GT(join_level, prev_join);
      CQC_CHECK_GT(trie_level, prev_trie);
      CQC_CHECK_LT(join_level, num_levels_);
      prev_join = join_level;
      prev_trie = trie_level;
      participants_[join_level].push_back({(int)a, trie_level, (int)d});
    }
  }
  size_t max_parts = 0;
  for (int l = 0; l < num_levels_; ++l) {
    CQC_CHECK(!participants_[l].empty())
        << "join level " << l << " has no participating atom";
    max_parts = std::max(max_parts, participants_[l].size());
  }
  seek_pos_.assign(max_parts, 0);
  values_.assign(num_levels_, 0);
  if (num_levels_ == 0) return;
  // range_stack_ is never resized after this point (and a move keeps the
  // inner buffers), so the deepest level's run and parent addresses stay
  // valid for the iterator's lifetime.
  for (const Participant& p : participants_[num_levels_ - 1]) {
    ScanCursor s;
    s.col = this->atoms()[p.atom].index->LevelData(p.trie_level);
    s.run = &range_stack_[p.atom][p.depth + 1];
    s.parent = &range_stack_[p.atom][p.depth];
    scan_.push_back(s);
  }
}

JoinIterator::JoinIterator(std::vector<JoinAtomInput> atoms, int num_levels,
                           std::vector<LevelConstraint> constraints)
    : JoinIterator(&atoms, num_levels, std::move(constraints)) {
  // The delegated ctor read from the caller's vector; adopt it afterwards
  // (element heap buffers are stable under vector move), on the heap, so
  // moving the iterator keeps atoms_ valid.
  owned_atoms_ =
      std::make_unique<const std::vector<JoinAtomInput>>(std::move(atoms));
  atoms_ = owned_atoms_.get();
}

void JoinIterator::ResetToBox(const FBox& box) {
  CQC_CHECK_EQ(box.mu(), num_levels_);
  for (int l = 0; l < num_levels_; ++l)
    constraints_[l] = LevelConstraint::FromDim(box.dims[l]);
  // Depth-0 ranges (the pre-bound starts) are never overwritten by
  // SeekLevel, and the current runs stay valid: the atom inputs are fixed,
  // so only the targets of the next seeks change.
  started_ = false;
  done_ = false;
}

Value JoinIterator::LevelStart(int level) const {
  const LevelConstraint& c = constraints_[level];
  switch (c.kind) {
    case FBoxDim::kUnit:
    case FBoxDim::kRange:
      return c.lo;
    case FBoxDim::kAny:
      return kBottom;
  }
  return kBottom;
}

bool JoinIterator::SeekLevel(int level, Value from) {
  const LevelConstraint& c = constraints_[level];
  Value v = from;
  if (c.kind != FBoxDim::kAny) {
    if (v < c.lo) v = c.lo;
    if (v > c.hi || c.lo > c.hi) return false;
  }
  const auto& parts = participants_[level];
  const size_t k = parts.size();
  // The level's current run is a valid hint when the parent ranges are
  // unchanged since it was found and the target is not below its value.
  const bool hinted = level < valid_levels_ && v >= values_[level];
  if (hinted && v == values_[level]) {
    // The run is the answer: every participant already sits on it.
    ops::Bump();
    return true;
  }
  // Search cursors: with a hint, everything before the run's end is
  // <= values_[level] < v, so the gallop starts there (usually a direct
  // hit on the next run); otherwise from the parent's first row.
  for (size_t j = 0; j < k; ++j) {
    const Participant& p = parts[j];
    seek_pos_[j] = hinted ? range_stack_[p.atom][p.depth + 1].end
                          : range_stack_[p.atom][p.depth].begin;
  }
  // Leapfrog: cycle until every participant agrees on v.
  size_t agreed = 0;
  size_t i = 0;
  while (agreed < k) {
    const Participant& p = parts[i];
    const SortedIndex& idx = *atoms()[p.atom].index;
    const RowRange parent = range_stack_[p.atom][p.depth];
    ops::Bump();
    const size_t pos = idx.SeekGE(parent, p.trie_level, v, seek_pos_[i]);
    if (pos >= parent.end) return false;
    seek_pos_[i] = pos;
    Value got = idx.ValueAt(p.trie_level, pos);
    if (got > v) {
      if (c.kind == FBoxDim::kUnit) return false;
      if (c.kind == FBoxDim::kRange && got > c.hi) return false;
      v = got;
      agreed = 1;
    } else {
      ++agreed;
    }
    i = (i + 1) % k;
  }
  // Every cursor sits on the first row of its v-run (the seek targets only
  // ever grew, so no position was overshot): record the refined child
  // ranges straight from the cursors — no re-search.
  for (size_t j = 0; j < k; ++j) {
    const Participant& p = parts[j];
    const SortedIndex& idx = *atoms()[p.atom].index;
    const RowRange parent = range_stack_[p.atom][p.depth];
    const size_t lo_pos = seek_pos_[j];
    range_stack_[p.atom][p.depth + 1] = {
        lo_pos, idx.RunEnd(parent, p.trie_level, lo_pos)};
  }
  values_[level] = v;
  valid_levels_ = level + 1;  // deeper runs hang off the old one
  return true;
}

bool JoinIterator::AdvanceToMatch() {
  if (scan_live_) {  // seeks start from the runs the last merge reached
    for (ScanCursor& m : scan_) *m.run = {m.run_begin, m.run_end};
    scan_live_ = false;
  }
  if (done_ || empty_atom_) {
    done_ = true;
    return false;
  }
  if (num_levels_ == 0) {
    // Pure existence check on pre-bound atoms: all start ranges nonempty.
    if (started_) {
      done_ = true;
      return false;
    }
    started_ = true;
    return true;
  }

  int level;
  bool advancing;  // move past values_[level] rather than start fresh
  if (!started_) {
    started_ = true;
    level = 0;
    advancing = false;
  } else {
    level = num_levels_ - 1;
    advancing = true;
  }

  for (;;) {
    Value from;
    if (advancing) {
      if (values_[level] == kTop) {
        from = 0;  // unreachable sentinel; force backtrack below
        --level;
        if (level < 0) {
          done_ = true;
          return false;
        }
        continue;
      }
      from = values_[level] + 1;
    } else {
      from = LevelStart(level);
    }
    if (SeekLevel(level, from)) {
      if (level == num_levels_ - 1) return true;
      ++level;
      advancing = false;
    } else {
      --level;
      if (level < 0) {
        done_ = true;
        return false;
      }
      advancing = true;
    }
  }
}

bool JoinIterator::Next(Tuple* out) {
  if (!AdvanceToMatch()) return false;
  *out = values_;
  return true;
}

[[gnu::always_inline]] inline size_t JoinIterator::ScanLastLevel(
    TupleBuffer* out, size_t max_tuples) {
  const int level = num_levels_ - 1;
  const LevelConstraint& c = constraints_[level];
  if (c.kind == FBoxDim::kUnit) return 0;  // a unit level has one match
  const Value hi = c.kind == FBoxDim::kRange ? c.hi : kTop;
  const size_t k = scan_.size();

  size_t emitted = 0;
  if (k == 1) {
    // Single participant: a raw walk of its sorted column, run by run. The
    // values_/range_stack_ book-keeping the generic path resumes from is
    // written back once on exit, not per tuple.
    ScanCursor& s = scan_[0];
    const Value* col = s.col;
    const size_t end = s.parent->end;
    size_t pos = s.run->end;  // past the current run
    size_t run_begin = pos;
    while (emitted < max_tuples && pos < end) {
      const Value v = col[pos];
      if (v > hi) break;
      ops::Bump();
      // Length-1 runs dominate set-semantics deepest levels: one inline
      // compare; real runs fall through to the block compare-and-count
      // kernel (which gallops past pathological ones).
      size_t next = pos + 1;
      if (next < end && col[next] == v) next = simd::RunEnd(col, pos, end);
      Value* slot = out->AppendSlot();
      for (int l = 0; l < level; ++l) slot[l] = values_[l];
      slot[level] = v;
      run_begin = pos;
      pos = next;
      ++emitted;
    }
    if (emitted > 0) {
      values_[level] = col[run_begin];
      *s.run = {run_begin, pos};
    }
    return emitted;
  }
  // Several participants (a cyclic deepest level — the triangle's z): a
  // k-way merge over the raw columns. Cursor 0 proposes the candidate and
  // the others catch up by one inline step, galloping only when a cursor is
  // still behind after it. Every step is one op, so hard intersections
  // (long interleaved runs of non-matches) show up on the delay clock.
  if (!scan_live_) {
    for (ScanCursor& s : scan_) {
      s.pos = s.run_end = s.run->end;
      s.run_begin = s.run->begin;
      s.end = s.parent->end;
    }
  }
  Value last = values_[level];
  while (emitted < max_tuples) {
    const ScanCursor& lead = scan_[0];
    if (lead.pos >= lead.end) break;
    Value v = lead.col[lead.pos];
    if (v > hi) break;
    bool match = true;
    for (size_t agreed = 1, i = 1; agreed < k; i = i + 1 == k ? 0 : i + 1) {
      ops::Bump();
      ScanCursor& m = scan_[i];
      size_t pos = m.pos;
      if (pos < m.end && m.col[pos] < v) {
        ++pos;
        if (pos < m.end && m.col[pos] < v) {
          ops::BumpRangeSeek();
          pos = simd::SeekGE(m.col, pos, m.end, v);
        }
        m.pos = pos;
      }
      if (pos >= m.end || m.col[pos] > hi) {
        match = false;
        break;
      }
      if (m.col[pos] > v) {
        v = m.col[pos];
        agreed = 1;
      } else {
        ++agreed;
      }
    }
    if (!match) break;
    // Every cursor sits on the first row of its v-run.
    for (ScanCursor& m : scan_) {
      size_t end = m.pos + 1;
      if (end < m.end && m.col[end] == v)
        end = simd::RunEnd(m.col, m.pos, m.end);
      m.run_begin = m.pos;
      m.run_end = m.pos = end;
    }
    Value* slot = out->AppendSlot();
    for (int l = 0; l < level; ++l) slot[l] = values_[l];
    slot[level] = v;
    last = v;
    ++emitted;
  }
  values_[level] = last;
  // The cursors now hold the runs: a call that resumes the scan continues
  // from them, and AdvanceToMatch writes them back before it seeks.
  if (emitted > 0) scan_live_ = true;
  return emitted;
}

size_t JoinIterator::NextBatch(TupleBuffer* out, size_t max_tuples) {
  size_t emitted = 0;
  const bool scannable =
      num_levels_ > 0 && constraints_[num_levels_ - 1].kind != FBoxDim::kUnit;
  // Already on a match (a batch ended inside a deepest-level run): resume
  // with the inline scan step, so a max_tuples = 1 pull costs one step
  // instead of a full AdvanceToMatch re-seek. ResetToBox clears started_,
  // so a restarted box never resumes.
  if (scannable && started_ && !done_ && !empty_atom_)
    emitted = ScanLastLevel(out, max_tuples);
  while (emitted < max_tuples) {
    if (!AdvanceToMatch()) break;
    out->Append(values_);
    ++emitted;
    if (scannable && emitted < max_tuples)
      emitted += ScanLastLevel(out, max_tuples - emitted);
  }
  return emitted;
}

BoxJoinEnumerator::BoxJoinEnumerator(std::vector<JoinAtomInput> atoms,
                                     int num_levels, std::vector<FBox> boxes)
    : TupleEnumerator(num_levels),
      atoms_(std::move(atoms)),
      num_levels_(num_levels),
      boxes_(std::move(boxes)) {
  active_ = AdvanceBox();
}

bool BoxJoinEnumerator::AdvanceBox() {
  if (box_idx_ >= boxes_.size()) return false;
  if (!join_.has_value())
    join_.emplace(&atoms_, num_levels_,
                  std::vector<LevelConstraint>(num_levels_));
  join_->ResetToBox(boxes_[box_idx_++]);
  return true;
}

size_t BoxJoinEnumerator::NextBatch(TupleBuffer* out, size_t max_tuples) {
  size_t emitted = 0;
  while (active_ && emitted < max_tuples) {
    emitted += join_->NextBatch(out, max_tuples - emitted);
    if (emitted == max_tuples) break;  // the box may still have more
    active_ = AdvanceBox();
  }
  return emitted;
}

size_t RangeScanEnumerator::NextBatch(TupleBuffer* out, size_t max_tuples) {
  if (row_ >= range_.end) return 0;
  const size_t n = std::min(max_tuples, range_.end - row_);
  Value* dst = out->AppendSlots(n);
  const int width = to_ - from_;
  // Column by column into the batch's rows: one column pointer per pass.
  for (int c = 0; c < width; ++c) {
    const Value* col = index_->LevelData(from_ + c) + row_;
    for (size_t i = 0; i < n; ++i) dst[i * width + c] = col[i];
  }
  row_ += n;
  return n;
}

}  // namespace cqc
