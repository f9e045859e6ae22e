// A thread-local operation counter used as a machine-independent clock.
//
// Delay (the gap between consecutive enumerated tuples) is the paper's central
// online metric; wall-clock gaps at nanosecond scale are dominated by noise,
// so every index probe and join step bumps this counter and the harness
// measures delay in "operations" as well as in time.
#ifndef CQC_UTIL_OP_COUNTER_H_
#define CQC_UTIL_OP_COUNTER_H_

#include <cstdint>

namespace cqc {
namespace ops {

inline thread_local uint64_t counter = 0;

/// Record `n` abstract operations (binary-search probes, join steps, ...).
inline void Bump(uint64_t n = 1) { counter += n; }

/// Current per-thread operation count.
inline uint64_t Now() { return counter; }

// Access-path accounting: point-membership probes (Relation::Contains, a
// binary search over the relation's sorted columns; the counter keeps its
// historical name because benchmark reports read it by that name) and
// sorted-trie lex-range seeks. Same thread-local idiom as the delay clock:
// the hot paths pay one register add, and callers snapshot deltas around a
// region to attribute probes to it.
inline thread_local uint64_t hash_point_probes = 0;
inline thread_local uint64_t sorted_range_seeks = 0;

inline void BumpHashProbe() { ++hash_point_probes; }
inline void BumpRangeSeek() { ++sorted_range_seeks; }

}  // namespace ops
}  // namespace cqc

#endif  // CQC_UTIL_OP_COUNTER_H_
