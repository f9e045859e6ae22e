// TupleBuffer: a caller-owned flat buffer of fixed-arity tuples, the unit of
// the batch enumeration API (TupleEnumerator::NextBatch).
//
// Tuples live back to back in one contiguous Value array — no per-tuple
// allocation, no pointer indirection — so filling a batch is a sequence of
// bump-and-memcpy appends and draining one is a linear scan. Growth leaves
// new slots uninitialized (AppendSlot hands the raw slot to the producer),
// which keeps the append fast path to a capacity check and a pointer bump.
// The buffer is meant to be reused across batches: Clear() keeps the
// capacity. A buffer can also start on caller storage for one tuple
// (TupleEnumerator::Next hands its caller's Tuple to the producer this way);
// growing past it moves the buffer to storage of its own.
#ifndef CQC_UTIL_TUPLE_BUFFER_H_
#define CQC_UTIL_TUPLE_BUFFER_H_

#include <cstring>
#include <memory>
#include <vector>

#include "util/common.h"
#include "util/logging.h"

namespace cqc {

class TupleBuffer {
 public:
  /// All tuples in the buffer share this arity (>= 0; arity 0 supports
  /// boolean views, whose single output is the empty tuple).
  explicit TupleBuffer(int arity) : arity_(arity) {
    CQC_CHECK_GE(arity, 0);
  }

  /// A buffer whose first tuple is written into `slot`, caller storage of
  /// `arity` values (null when arity is 0). It does not own `slot`.
  TupleBuffer(int arity, Value* slot)
      : arity_(arity), cap_(arity), data_(slot) {}

  TupleBuffer(TupleBuffer&&) = default;
  TupleBuffer& operator=(TupleBuffer&&) = default;

  int arity() const { return arity_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Drops all tuples but keeps the allocation.
  void Clear() {
    count_ = 0;
    used_ = 0;
  }

  void Reserve(size_t num_tuples) { Grow(num_tuples * arity_); }

  /// Appends one uninitialized tuple and returns a pointer to its `arity()`
  /// slots (none when arity is 0 — the tuple still counts).
  Value* AppendSlot() { return AppendSlots(1); }

  /// Appends `n` uninitialized tuples and returns a pointer to the first
  /// one's slots; the rest follow back to back (n * arity() values). One
  /// capacity check and one counter update for all of them.
  Value* AppendSlots(size_t n) {
    const size_t values = n * arity_;
    count_ += n;
    if (used_ + values > cap_) Grow(used_ + values);
    Value* slot = data_ + used_;
    used_ += values;
    return slot;
  }

  /// Appends a copy of `t` (its size must equal arity()).
  void Append(TupleSpan t) {
    CQC_CHECK_EQ(t.size(), (size_t)arity_);
    Value* slot = AppendSlot();
    if (arity_ > 0) std::memcpy(slot, t.data(), arity_ * sizeof(Value));
  }

  TupleSpan operator[](size_t i) const {
    return TupleSpan(data_ + i * arity_, arity_);
  }
  TupleSpan back() const { return (*this)[count_ - 1]; }

  /// The flat row-major payload (size() * arity() values).
  const Value* data() const { return data_; }

  /// Materializes owning tuples (tests / interop with legacy call sites).
  std::vector<Tuple> ToTuples() const {
    std::vector<Tuple> out;
    out.reserve(count_);
    for (size_t i = 0; i < count_; ++i) out.push_back((*this)[i].ToTuple());
    return out;
  }

 private:
  // Out of line: the append fast path stays a check and a bump, and the
  // producers that inline it keep the allocation off their hot path.
  [[gnu::noinline]] void Grow(size_t min_values) {
    if (min_values <= cap_) return;
    size_t cap = cap_ == 0 ? 64 : cap_;
    while (cap < min_values) cap *= 2;
    std::unique_ptr<Value[]> grown(new Value[cap]);
    if (used_ > 0) std::memcpy(grown.get(), data_, used_ * sizeof(Value));
    owned_ = std::move(grown);
    data_ = owned_.get();
    cap_ = cap;
  }

  int arity_;
  size_t count_ = 0;  // tuples
  size_t used_ = 0;   // values
  size_t cap_ = 0;    // values
  Value* data_ = nullptr;  // owned_, or caller storage for one tuple
  std::unique_ptr<Value[]> owned_;
};

}  // namespace cqc

#endif  // CQC_UTIL_TUPLE_BUFFER_H_
