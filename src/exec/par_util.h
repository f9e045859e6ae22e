// Build-time parallelism helpers: a chunked parallel sort and a task-list
// runner, both self-gating.
//
// These back the bulk phases of representation construction — Relation::Seal
// row sorts, SortedIndex builds, column scatters — where the work is a
// single large data-parallel operation on a caller thread. They spawn plain
// std::threads (not the shared ThreadPool) because they may be reached FROM
// a pool task (e.g. an index build submitted by CompressedRep::Build): a
// pool task that waited on its own pool would deadlock, and nested fan-out
// would oversubscribe. The gates below make any nested call run serially:
//   * inside a ThreadPool worker           -> serial
//   * inside another par_util region       -> serial
//   * input below the split threshold      -> serial
//   * BuildThreads() == 1                  -> serial
//
// BuildThreads() defaults to the hardware parallelism and is overridable
// (SetBuildThreads) so tests can exercise the parallel paths on small
// machines and ops can cap build fan-out.
#ifndef CQC_EXEC_PAR_UTIL_H_
#define CQC_EXEC_PAR_UTIL_H_

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

namespace cqc {
namespace par {

/// Worker count for build-time parallelism (>= 1).
int BuildThreads();
/// Overrides BuildThreads(); n <= 0 restores the hardware default. Takes
/// effect for later calls (the shared pool is sized at first use).
void SetBuildThreads(int n);

/// True while inside a par_util parallel region (any thread).
bool InParallelRegion();

namespace internal {
class RegionGuard {
 public:
  RegionGuard();
  ~RegionGuard();
};
bool SerialOnly();
}  // namespace internal

/// Inputs smaller than this many rows are sorted or processed serially:
/// below it, starting a thread costs more than the work it would share.
inline constexpr size_t kMinParallelSort = 1u << 15;

/// Runs every task, possibly concurrently. Tasks must be independent.
/// `rows` is the size of the input the tasks split between them; below
/// kMinParallelSort they run serially on the caller.
void RunTasks(std::vector<std::function<void()>> tasks, size_t rows);

/// std::sort with chunked fan-out + pairwise merge when the input is large
/// and the gates allow it. Comparator requirements as for std::sort.
template <typename It, typename Cmp>
void ParallelSort(It begin, It end, Cmp cmp) {
  const size_t n = (size_t)(end - begin);
  const int threads = BuildThreads();
  if (n < kMinParallelSort || threads <= 1 || internal::SerialOnly()) {
    std::sort(begin, end, cmp);
    return;
  }
  internal::RegionGuard guard;
  size_t k = std::min<size_t>((size_t)threads, 8);
  while (k > 1 && n / k < kMinParallelSort / 2) --k;
  if (k <= 1) {
    std::sort(begin, end, cmp);
    return;
  }
  // Sort k chunks (k-1 spawned threads + this one), then merge pairwise.
  std::vector<size_t> bounds(k + 1);
  for (size_t i = 0; i <= k; ++i) bounds[i] = n * i / k;
  {
    std::vector<std::thread> workers;
    workers.reserve(k - 1);
    for (size_t i = 1; i < k; ++i)
      workers.emplace_back([&, i] {
        std::sort(begin + bounds[i], begin + bounds[i + 1], cmp);
      });
    std::sort(begin + bounds[0], begin + bounds[1], cmp);
    for (auto& w : workers) w.join();
  }
  for (size_t width = 1; width < k; width *= 2) {
    std::vector<std::thread> workers;
    for (size_t i = 0; i + width < k; i += 2 * width) {
      const size_t lo = bounds[i];
      const size_t mid = bounds[i + width];
      const size_t hi = bounds[std::min(i + 2 * width, k)];
      workers.emplace_back([=, &cmp] {
        std::inplace_merge(begin + lo, begin + mid, begin + hi, cmp);
      });
    }
    for (auto& w : workers) w.join();
  }
}

}  // namespace par
}  // namespace cqc

#endif  // CQC_EXEC_PAR_UTIL_H_
