// Counting global operator new/delete for the allocation tests.
//
// Replaces the global allocator with wrappers that count calls (g_news)
// and requested bytes (g_new_bytes), then forward to malloc/free.  It
// defines the replacement functions, so include it from exactly one
// translation unit of a test binary.
//
// AddressSanitizer owns the global allocator; forwarding counting wrappers
// to malloc/free trips its alloc-dealloc-mismatch checker.  Under ASan
// ALLARM_COUNTING_NEW is 0 and the counters stay at zero, so zero-new
// assertions become vacuous and byte bounds must be skipped; the suites'
// value there is the sanitizer's own checking.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_new_bytes{0};
}  // namespace

#if defined(__SANITIZE_ADDRESS__)
#define ALLARM_COUNTING_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ALLARM_COUNTING_NEW 0
#else
#define ALLARM_COUNTING_NEW 1
#endif
#else
#define ALLARM_COUNTING_NEW 1
#endif

#if ALLARM_COUNTING_NEW
// Not inlined: a caller then sees only operator new paired with operator
// delete, never the malloc/free inside them, which GCC reports as a
// mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
#endif  // ALLARM_COUNTING_NEW
