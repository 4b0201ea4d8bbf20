#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "support/require.hpp"

namespace pitfalls::support {

namespace {

// Frozen chunk-policy constants (see plan_chunks doc): changing either
// changes every chunk-seeded random stream, i.e. the reproduced numbers.
constexpr std::size_t kTargetChunks = 64;
constexpr std::size_t kMinChunkSize = 64;

thread_local bool tls_in_region = false;

struct RegionGuard {
  bool previous;
  RegionGuard() : previous(tls_in_region) { tls_in_region = true; }
  ~RegionGuard() { tls_in_region = previous; }
};

// Top-level regions get a process-unique id so observability hooks can key
// per-chunk state by (region, chunk) instead of by thread.
std::atomic<std::uint64_t> next_region_id{1};

using ChunkHook =
    std::function<void(std::uint64_t, std::size_t, std::size_t, bool)>;

/// RAII wrapper firing on_chunk_run around one chunk body on whichever
/// thread executes it. A no-op when the hook is not installed.
struct ChunkNotifier {
  const ChunkHook& hook;
  std::uint64_t region_id;
  std::size_t chunk;
  std::size_t chunks;
  ChunkNotifier(const ChunkHook& h, std::uint64_t region, std::size_t c,
                std::size_t count)
      : hook(h), region_id(region), chunk(c), chunks(count) {
    if (hook) hook(region_id, chunk, chunks, true);
  }
  ~ChunkNotifier() {
    if (hook) hook(region_id, chunk, chunks, false);
  }
};

// One parallel_for_chunks invocation. Workers and the calling thread claim
// chunks from a shared atomic cursor; whoever claims a chunk runs it, so the
// region completes even if every helper task is dropped.
struct Region {
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn =
      nullptr;
  std::size_t n = 0;
  std::size_t chunk_size = 0;
  std::size_t chunks = 0;
  std::uint64_t region_id = 0;
  ChunkHook chunk_hook;  // copied once at region setup; workers share it
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable finished;
  std::exception_ptr error;  // first chunk exception; guarded by mutex

  void run_chunks() {
    for (;;) {
      const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) return;
      const std::size_t begin = chunk * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      try {
        const ChunkNotifier notify(chunk_hook, region_id, chunk, chunks);
        (*fn)(chunk, begin, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        // Lock pairs with the waiter's predicate check so the notify cannot
        // slip between its check and its wait.
        const std::lock_guard<std::mutex> lock(mutex);
        finished.notify_all();
      }
    }
  }

  void wait_and_rethrow() {
    std::unique_lock<std::mutex> lock(mutex);
    finished.wait(lock, [this] {
      return done.load(std::memory_order_acquire) == chunks;
    });
    if (error) std::rethrow_exception(error);
  }
};

struct Hooks {
  std::mutex mutex;
  PoolHooks hooks;
};

Hooks& hooks_state() {
  static Hooks state;
  return state;
}

void notify_configured(std::size_t threads) {
  std::function<void(std::size_t)> fn;
  {
    const std::lock_guard<std::mutex> lock(hooks_state().mutex);
    fn = hooks_state().hooks.on_pool_configured;
  }
  if (fn) fn(threads);
}

void notify_tasks(std::size_t chunks) {
  std::function<void(std::size_t)> fn;
  {
    const std::lock_guard<std::mutex> lock(hooks_state().mutex);
    fn = hooks_state().hooks.on_tasks_scheduled;
  }
  if (fn) fn(chunks);
}

ChunkHook fetch_chunk_hook() {
  const std::lock_guard<std::mutex> lock(hooks_state().mutex);
  return hooks_state().hooks.on_chunk_run;
}

void notify_region_seconds(const char* callsite, double seconds) {
  if (callsite == nullptr) return;
  std::function<void(const char*, double)> fn;
  {
    const std::lock_guard<std::mutex> lock(hooks_state().mutex);
    fn = hooks_state().hooks.on_region_seconds;
  }
  if (fn) fn(callsite, seconds);
}

std::size_t size_from_environment() {
  const char* env = std::getenv("PITFALLS_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed >= 1 && parsed <= 1024)
      return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  std::size_t thread_count() {
    const std::lock_guard<std::mutex> lock(mutex_);
    resolve_size_locked();
    return size_;
  }

  void resize(std::size_t threads) {
    PITFALLS_REQUIRE(threads >= 1, "pool needs at least the calling thread");
    stop_workers();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      size_ = threads;
      size_resolved_ = true;
    }
    notify_configured(threads);
  }

  /// Enqueue helper tasks for `region` (the caller participates and waits
  /// separately). Lazily spawns the workers on first use.
  void offer(const std::shared_ptr<Region>& region) {
    const std::lock_guard<std::mutex> lock(mutex_);
    resolve_size_locked();
    if (size_ <= 1) return;
    if (workers_.empty()) spawn_workers_locked();
    const std::size_t helpers =
        std::min(size_ - 1, region->chunks > 0 ? region->chunks - 1 : 0);
    for (std::size_t i = 0; i < helpers; ++i) queue_.push_back(region);
    if (helpers > 0) work_available_.notify_all();
  }

  ~ThreadPool() { stop_workers(); }

 private:
  void resolve_size_locked() {
    if (!size_resolved_) {
      size_ = size_from_environment();
      size_resolved_ = true;
    }
  }

  void spawn_workers_locked() {
    stop_ = false;
    workers_.reserve(size_ - 1);
    for (std::size_t i = 0; i + 1 < size_; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void stop_workers() {
    std::vector<std::thread> workers;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      queue_.clear();  // callers drain their own chunks; helpers are optional
      workers.swap(workers_);
      work_available_.notify_all();
    }
    for (auto& worker : workers) worker.join();
  }

  void worker_loop() {
    tls_in_region = true;  // anything a worker runs treats nesting as inline
    for (;;) {
      std::shared_ptr<Region> region;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_available_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        region = std::move(queue_.front());
        queue_.pop_front();
      }
      region->run_chunks();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::shared_ptr<Region>> queue_;
  std::vector<std::thread> workers_;
  std::size_t size_ = 1;
  bool size_resolved_ = false;
  bool stop_ = false;
};

}  // namespace

ChunkPlan plan_chunks(std::size_t n) {
  ChunkPlan plan;
  if (n == 0) return plan;
  plan.size = std::max(kMinChunkSize, (n + kTargetChunks - 1) / kTargetChunks);
  plan.count = (n + plan.size - 1) / plan.size;
  return plan;
}

Rng rng_for_chunk(std::uint64_t seed, std::size_t chunk_index) {
  // SplitMix64 finalizer over the combined (seed, chunk) word; Rng's
  // constructor then expands it into xoshiro state through another
  // SplitMix64 pass, so neighbouring chunks get decorrelated streams.
  const std::uint64_t combined =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(chunk_index) + 1);
  return Rng(splitmix64_mix(combined));
}

void set_pool_hooks(PoolHooks hooks) {
  {
    const std::lock_guard<std::mutex> lock(hooks_state().mutex);
    hooks_state().hooks = std::move(hooks);
  }
  notify_configured(ThreadPool::instance().thread_count());
}

std::size_t pool_thread_count() { return ThreadPool::instance().thread_count(); }

void set_pool_thread_count(std::size_t threads) {
  ThreadPool::instance().resize(threads);
}

bool in_parallel_region() { return tls_in_region; }

namespace {

// Shared body of parallel_for_chunks / parallel_for_tasks: execute `fn`
// over the chunks of `plan`, inline or on the pool. The plan is part of
// the caller's reproducibility contract and must never depend on the
// thread count.
void run_region(
    const ChunkPlan& plan, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    const char* callsite) {
  notify_tasks(plan.count);
  // Region timing feeds the <callsite>.parallel_seconds histogram (obs
  // hooks) only; no result depends on it.
  const auto start = std::chrono::steady_clock::now();  // lint:wallclock-ok

  if (tls_in_region || plan.count == 1 ||
      ThreadPool::instance().thread_count() == 1) {
    // Inline execution: same chunk boundaries, same per-chunk streams —
    // byte-identical to the pooled path by construction. Nested regions
    // skip chunk notifications: their chunks stay attributed to the
    // enclosing top-level chunk, which runs them inline.
    const bool top_level = !tls_in_region;
    const ChunkHook hook = top_level ? fetch_chunk_hook() : ChunkHook{};
    const std::uint64_t region_id =
        top_level ? next_region_id.fetch_add(1, std::memory_order_relaxed)
                  : 0;
    RegionGuard guard;
    for (std::size_t chunk = 0; chunk < plan.count; ++chunk) {
      const ChunkNotifier notify(hook, region_id, chunk, plan.count);
      fn(chunk, chunk * plan.size, std::min(n, (chunk + 1) * plan.size));
    }
  } else {
    auto region = std::make_shared<Region>();
    region->fn = &fn;
    region->n = n;
    region->chunk_size = plan.size;
    region->chunks = plan.count;
    region->region_id = next_region_id.fetch_add(1, std::memory_order_relaxed);
    region->chunk_hook = fetch_chunk_hook();
    ThreadPool::instance().offer(region);
    {
      RegionGuard guard;
      region->run_chunks();  // the caller participates
    }
    region->wait_and_rethrow();
  }

  notify_region_seconds(
      callsite,
      std::chrono::duration<double>(  // lint:wallclock-ok
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

void parallel_for_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    const char* callsite) {
  if (n == 0) return;
  run_region(plan_chunks(n), n, fn, callsite);
}

void parallel_for_tasks(std::size_t n,
                        const std::function<void(std::size_t)>& fn,
                        const char* callsite) {
  if (n == 0) return;
  ChunkPlan plan;
  plan.count = n;
  plan.size = 1;
  run_region(
      plan, n,
      [&fn](std::size_t task, std::size_t, std::size_t) { fn(task); },
      callsite);
}

}  // namespace pitfalls::support
