#include "obs/timeline.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/failpoint.hh"
#include "common/fileio.hh"
#include "common/log.hh"
#include "common/stats.hh"

namespace allarm::obs {

namespace {

struct Span {
  const char* name;
  const char* cat;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint64_t arg;
};

/// One thread's span ring.  The owning thread is the only writer; the
/// serializer reads concurrently through the release/acquire pair on
/// `size`, so it sees fully-written spans only.
struct ThreadBuffer {
  explicit ThreadBuffer(std::string name_in, std::uint32_t tid_in)
      : name(std::move(name_in)), tid(tid_in) {
    spans.resize(Timeline::kRingCapacity);
  }

  std::vector<Span> spans;            ///< Fixed capacity, never resized.
  std::atomic<std::uint32_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  std::string name;                   ///< OS thread name at first span.
  std::uint32_t tid;                  ///< Registration order, stable.
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry;  // Leaked: outlives every thread.
  return *r;
}

std::atomic<std::uint64_t> g_epoch{1};
std::chrono::steady_clock::time_point g_t0;

std::string os_thread_name() {
#if defined(__linux__)
  char buf[16] = {0};
  if (pthread_getname_np(pthread_self(), buf, sizeof(buf)) == 0 &&
      buf[0] != '\0') {
    return buf;
  }
#endif
  return "thread";
}

/// The calling thread's buffer, created and registered on first use.
/// reset() bumps the epoch, so a stale cached buffer (from before the
/// reset) is abandoned and a fresh one registered.
ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> cached;
  thread_local std::uint64_t cached_epoch = 0;
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (!cached || cached_epoch != epoch) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    cached = std::make_shared<ThreadBuffer>(
        os_thread_name(), static_cast<std::uint32_t>(r.buffers.size()));
    r.buffers.push_back(cached);
    cached_epoch = epoch;
  }
  return *cached;
}

/// Microseconds with sub-ns kept: Chrome trace `ts`/`dur` are doubles.
std::string json_us(std::uint64_t ns) {
  return json_number(static_cast<double>(ns) / 1000.0);
}

}  // namespace

std::atomic<bool> Timeline::enabled_{false};

void Timeline::enable() {
  bool expected = false;
  if (enabled_.compare_exchange_strong(expected, true)) {
    g_t0 = std::chrono::steady_clock::now();
  }
}

void Timeline::reset() {
  enabled_.store(false, std::memory_order_relaxed);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.buffers.clear();
  g_epoch.fetch_add(1, std::memory_order_release);
}

std::uint64_t Timeline::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_t0)
          .count());
}

void Timeline::record(const char* name, const char* cat,
                      std::uint64_t start_ns, std::uint64_t dur_ns,
                      std::uint64_t arg) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  const std::uint32_t idx = buf.size.load(std::memory_order_relaxed);
  if (idx >= kRingCapacity) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.spans[idx] = Span{name, cat, start_ns, dur_ns, arg};
  buf.size.store(idx + 1, std::memory_order_release);
}

std::uint64_t Timeline::span_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::uint64_t total = 0;
  for (const auto& buf : r.buffers) {
    total += buf->size.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t Timeline::dropped() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::uint64_t total = 0;
  for (const auto& buf : r.buffers) {
    total += buf->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

bool Timeline::write(const std::string& path) {
  // Snapshot the registry, then serialize outside the lock (recording
  // threads only ever append; the acquire-load below bounds what we read).
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    buffers = r.buffers;
  }

  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\": [\n";
  out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"allarm\"}}";
  std::uint64_t lost = 0;
  for (const auto& buf : buffers) {
    out += ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(buf->tid) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": " +
           json_quote(buf->name) + "}}";
  }
  for (const auto& buf : buffers) {
    const std::uint32_t n = buf->size.load(std::memory_order_acquire);
    lost += buf->dropped.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Span& s = buf->spans[i];
      out += ",\n{\"name\": ";
      out += json_quote(s.name);
      out += ", \"cat\": ";
      out += json_quote(s.cat);
      out += ", \"ph\": \"X\", \"ts\": ";
      out += json_us(s.start_ns);
      out += ", \"dur\": ";
      out += json_us(s.dur_ns);
      out += ", \"pid\": 1, \"tid\": ";
      out += std::to_string(buf->tid);
      if (s.arg != kNoArg) {
        out += ", \"args\": {\"n\": ";
        out += std::to_string(s.arg);
        out += "}";
      }
      out += "}";
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";

  if (lost > 0) {
    log_warn("timeline ", path, ": ", lost,
             " spans dropped to ring overflow (first ", kRingCapacity,
             " per thread kept)");
  }

  const std::string tmp = path + ".tmp";
  try {
    failpoint::inject("obs.timeline", [&] { return path; });
    write_file_durable(tmp, out);
    rename_durable(tmp, path);
  } catch (const std::exception& e) {
    std::remove(tmp.c_str());
    log_error("timeline write failed: ", e.what(),
              "; the run's results are unaffected");
    return false;
  }
  return true;
}

}  // namespace allarm::obs
