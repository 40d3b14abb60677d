#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/diagnostics.hpp"

namespace obd::par {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// True on pool worker threads: a region body that itself reaches a
/// parallel entry point runs that inner region inline instead of
/// deadlocking on its own pool.
thread_local bool t_is_worker = false;

/// One parallel region: a fixed set of chunks claimed through an atomic
/// cursor by the calling thread and any workers that join. Lifetime
/// protocol (the region lives on the caller's stack): a worker may only
/// enter a region by incrementing `active` under the pool mutex while the
/// region is published; the caller unpublishes the region after its own
/// drain (at which point the cursor is exhausted, so no new work starts)
/// and then waits under `m` for `active` to fall to zero before returning.
/// A worker leaves by decrementing `active` under `m`, so that wait cannot
/// end while the worker still holds a reference.
struct Region {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n_chunks = 0;
  std::size_t max_workers = 0;  ///< workers allowed besides the caller
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> active{0};
  std::mutex m;
  std::condition_variable cv;  ///< signaled when active reaches zero
  std::exception_ptr error;    ///< first chunk exception, guarded by m
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t thread_count() {
    const std::lock_guard<std::mutex> lock(admin_);
    return resolve_width();
  }

  void set_threads(std::size_t n) {
    const std::lock_guard<std::mutex> lock(admin_);
    override_ = n;
    if (!workers_.empty() && workers_.size() + 1 != resolve_width())
      stop_workers();
  }

  void shutdown() {
    const std::lock_guard<std::mutex> lock(admin_);
    stop_workers();
  }

  void run(std::size_t n_chunks,
           const std::function<void(std::size_t)>& chunk_body,
           std::size_t max_threads) {
    std::size_t width = 0;
    {
      const std::lock_guard<std::mutex> lock(admin_);
      width = resolve_width();
      if (max_threads != 0) width = std::min(width, max_threads);
      if (t_is_worker || width <= 1 || n_chunks <= 1) {
        width = 1;
      } else {
        ensure_started();
      }
    }

    if (width == 1) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < n_chunks; ++i) chunk_body(i);
      record_region(n_chunks, seconds_since(t0), 0.0, /*inline_run=*/true);
      return;
    }

    Region region;
    region.body = &chunk_body;
    region.n_chunks = n_chunks;
    region.max_workers = width - 1;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      region_ = &region;
      ++generation_;
    }
    cv_.notify_all();

    // The caller works alongside the pool; when its drain returns the
    // cursor is exhausted, so unpublishing cannot strand unclaimed chunks.
    const Clock::time_point t0 = Clock::now();
    drain(region);
    const double busy = seconds_since(t0);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      region_ = nullptr;
      ++generation_;
    }
    cv_.notify_all();

    const Clock::time_point w0 = Clock::now();
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(region.m);
      region.cv.wait(lock, [&] {
        return region.active.load(std::memory_order_acquire) == 0;
      });
      error = region.error;
    }
    record_region(n_chunks, busy, seconds_since(w0), /*inline_run=*/false);
    if (error) std::rethrow_exception(error);
  }

  PoolStats stats() {
    PoolStats out;
    out.regions = regions_.load(std::memory_order_relaxed);
    out.inline_regions = inline_regions_.load(std::memory_order_relaxed);
    out.chunks = chunks_.load(std::memory_order_relaxed);
    out.busy_seconds =
        1e-9 * static_cast<double>(busy_ns_.load(std::memory_order_relaxed));
    out.wait_seconds =
        1e-9 * static_cast<double>(wait_ns_.load(std::memory_order_relaxed));
    return out;
  }

  void reset_stats() {
    regions_.store(0, std::memory_order_relaxed);
    inline_regions_.store(0, std::memory_order_relaxed);
    chunks_.store(0, std::memory_order_relaxed);
    busy_ns_.store(0, std::memory_order_relaxed);
    wait_ns_.store(0, std::memory_order_relaxed);
  }

  ~Pool() { shutdown(); }

 private:
  // Width resolution: explicit override > OBDREL_THREADS > hardware. The
  // automatic choice is resolved once and cached: run() consults the
  // width on every region (evaluators pass MonteCarloOptions::threads per
  // call), and trace playback reaches a region per phase — re-reading the
  // environment inside that path costs a getenv under the admin mutex per
  // step for a value that cannot change meaningfully mid-process.
  std::size_t resolve_width() const {
    if (override_ != 0) return override_;
    if (auto_width_ == 0) {
      std::size_t width = 0;
      if (const char* env = std::getenv("OBDREL_THREADS")) {
        const long long v = std::atoll(env);
        if (v > 0) width = static_cast<std::size_t>(v);
      }
      if (width == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        width = hw == 0 ? 1 : static_cast<std::size_t>(hw);
      }
      auto_width_ = width;
    }
    return auto_width_;
  }

  // admin_ held by caller.
  void ensure_started() {
    const std::size_t width = resolve_width();
    if (!workers_.empty() || width <= 1) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = false;
    }
    workers_.reserve(width - 1);
    for (std::size_t w = 0; w + 1 < width; ++w)
      workers_.emplace_back([this] { worker_loop(); });
  }

  // admin_ held by caller.
  void stop_workers() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
    workers_.clear();
  }

  void worker_loop() {
    t_is_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      Region* region = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
        seen = generation_;
        if (stopping_) return;
        if (region_ == nullptr) continue;
        // Joining is the lifetime handshake: active is incremented under
        // the pool mutex while the region is still published, so the
        // caller cannot destroy it underneath us. Respect the width cap.
        if (region_->active.load(std::memory_order_relaxed) >=
            region_->max_workers + 1)
          continue;
        region = region_;
        region->active.fetch_add(1, std::memory_order_acq_rel);
      }
      drain(*region);
      leave(*region);
    }
  }

  /// Claims and executes chunks until the region's cursor is exhausted.
  /// A throwing chunk cancels the remaining unclaimed chunks and parks the
  /// first exception for the caller to rethrow.
  void drain(Region& region) {
    for (;;) {
      const std::size_t i =
          region.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= region.n_chunks) break;
      try {
        (*region.body)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(region.m);
        if (!region.error) region.error = std::current_exception();
        region.next.store(region.n_chunks, std::memory_order_relaxed);
      }
      chunks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// The worker's last touch of the region: decrementing under region.m
  /// keeps the caller's wait from seeing zero before this unlock.
  void leave(Region& region) {
    const std::lock_guard<std::mutex> lock(region.m);
    if (region.active.fetch_sub(1, std::memory_order_acq_rel) == 1)
      region.cv.notify_all();
  }

  void record_region(std::size_t n_chunks, double busy, double wait,
                     bool inline_run) {
    regions_.fetch_add(1, std::memory_order_relaxed);
    if (inline_run) {
      inline_regions_.fetch_add(1, std::memory_order_relaxed);
      chunks_.fetch_add(n_chunks, std::memory_order_relaxed);
    }
    busy_ns_.fetch_add(static_cast<std::uint64_t>(busy * 1e9),
                       std::memory_order_relaxed);
    wait_ns_.fetch_add(static_cast<std::uint64_t>(wait * 1e9),
                       std::memory_order_relaxed);
  }

  std::mutex admin_;  ///< serializes set_threads/shutdown/region dispatch
  std::size_t override_ = 0;
  mutable std::size_t auto_width_ = 0;  ///< cached env/hardware resolution
  std::vector<std::thread> workers_;

  std::mutex mutex_;  ///< guards region publication and stopping_
  std::condition_variable cv_;
  Region* region_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumps on publish/unpublish/stop
  bool stopping_ = false;

  std::atomic<std::uint64_t> regions_{0};
  std::atomic<std::uint64_t> inline_regions_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> wait_ns_{0};
};

}  // namespace

std::size_t thread_count() { return Pool::instance().thread_count(); }

void set_threads(std::size_t n) { Pool::instance().set_threads(n); }

void shutdown() { Pool::instance().shutdown(); }

void parallel_for(std::size_t begin, std::size_t end, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t max_threads) {
  if (begin >= end) return;
  if (chunk == 0) chunk = 1;
  const std::size_t n_chunks = (end - begin + chunk - 1) / chunk;
  detail::run_chunks(
      n_chunks,
      [&](std::size_t i) {
        const std::size_t b = begin + i * chunk;
        body(b, std::min(end, b + chunk));
      },
      max_threads);
}

namespace detail {
void run_chunks(std::size_t n_chunks,
                const std::function<void(std::size_t)>& chunk_body,
                std::size_t max_threads) {
  if (n_chunks == 0) return;
  Pool::instance().run(n_chunks, chunk_body, max_threads);
}
}  // namespace detail

PoolStats stats() { return Pool::instance().stats(); }

void reset_stats() { Pool::instance().reset_stats(); }

void publish_stats() {
  const PoolStats s = stats();
  if (s.regions == 0) return;
  std::ostringstream msg;
  msg << thread_count() << " thread(s), " << s.regions << " region(s) ("
      << s.inline_regions << " inline), " << s.chunks << " chunk(s), busy "
      << s.busy_seconds << " s, wait " << s.wait_seconds << " s";
  diagnostics().stat("parallel.pool", msg.str());
}

}  // namespace obd::par
