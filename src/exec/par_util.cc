#include "exec/par_util.h"

#include <atomic>

#include "exec/thread_pool.h"

namespace cqc {
namespace par {
namespace {

std::atomic<int> g_build_threads{0};  // 0 = hardware default
thread_local int tls_region_depth = 0;

}  // namespace

int BuildThreads() {
  const int n = g_build_threads.load(std::memory_order_relaxed);
  return n > 0 ? n : ThreadPool::DefaultThreadCount();
}

void SetBuildThreads(int n) {
  g_build_threads.store(n, std::memory_order_relaxed);
}

bool InParallelRegion() { return tls_region_depth > 0; }

namespace internal {

RegionGuard::RegionGuard() { ++tls_region_depth; }
RegionGuard::~RegionGuard() { --tls_region_depth; }

bool SerialOnly() { return InParallelRegion() || ThreadPool::InWorker(); }

}  // namespace internal

void RunTasks(std::vector<std::function<void()>> tasks, size_t rows) {
  const int threads = BuildThreads();
  if (tasks.size() <= 1 || rows < kMinParallelSort || threads <= 1 ||
      internal::SerialOnly()) {
    for (auto& t : tasks) t();
    return;
  }
  internal::RegionGuard guard;
  const size_t workers = std::min<size_t>((size_t)threads, tasks.size());
  std::atomic<size_t> next{0};
  auto drain = [&] {
    internal::RegionGuard inner;  // tasks reaching par_util again go serial
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      tasks[i]();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
  drain();
  for (auto& t : pool) t.join();
}

}  // namespace par
}  // namespace cqc
