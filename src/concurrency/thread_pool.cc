#include "concurrency/thread_pool.h"

#include <algorithm>

#include "obs/metric_names.h"

namespace iq {

namespace {

// Pool telemetry: queue depth at enqueue/dequeue, and how long tasks
// wait in the queue / run once picked up (wall clock, seconds).
struct PoolMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* tasks;
  obs::Histogram* wait_s;
  obs::Histogram* run_s;

  static const PoolMetrics& Get() {
    static constexpr double kLatencyBounds[] = {
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
    auto& registry = obs::MetricRegistry::Global();
    static const PoolMetrics m{
        registry.GetGauge(obs::metric::kPoolQueueDepth),
        registry.GetCounter(obs::metric::kPoolTasksTotal),
        registry.GetHistogram(obs::metric::kPoolTaskWaitSeconds, kLatencyBounds),
        registry.GetHistogram(obs::metric::kPoolTaskRunSeconds, kLatencyBounds)};
    return m;
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) : cv_(&mu_) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.SignalAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  Task entry{std::move(task), {}};
  if constexpr (obs::kEnabled) {
    entry.enqueued = std::chrono::steady_clock::now();
  }
  {
    MutexLock lock(&mu_);
    // Scheduling after the destructor has started would race with the
    // drain; the single-owner usage model makes it a programming error.
    queue_.push_back(std::move(entry));
    PoolMetrics::Get().queue_depth->Set(static_cast<double>(queue_.size()));
  }
  PoolMetrics::Get().tasks->Increment();
  cv_.Signal();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !shutdown_) cv_.Wait();
      if (queue_.empty()) return;  // shutdown and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      PoolMetrics::Get().queue_depth->Set(static_cast<double>(queue_.size()));
    }
    if constexpr (obs::kEnabled) {
      PoolMetrics::Get().wait_s->Observe(SecondsSince(task.enqueued));
      const auto started = std::chrono::steady_clock::now();
      task.fn();
      PoolMetrics::Get().run_s->Observe(SecondsSince(started));
    } else {
      task.fn();
    }
  }
}

}  // namespace iq
