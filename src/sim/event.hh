// Inline-storage event callable for the discrete-event kernel.
//
// Every coherence hop schedules a small closure (a captured `this` plus a
// few words of transaction state).  Wrapping those in std::function costs a
// heap allocation per event on the simulator's hottest path; Event instead
// stores the callable inline in a fixed small buffer, and a callable that
// does not fit fails to compile, so no event ever allocates.
//
// Move-only, like the events it carries: an event executes exactly once.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace allarm::sim {

/// A move-only, small-buffer-optimized `void()` callable.
class Event {
 public:
  /// Inline capture budget, which every closure must fit.  Sized so the
  /// coherence closures -- a `this` pointer plus pooled-transaction-state
  /// pointer, or `this` plus a by-value Request and a word of flags -- fit,
  /// while one event-queue arena node (tick + link + Event) is exactly one
  /// 64-byte cache line.
  static constexpr std::size_t kInlineBytes = 40;

  /// Inline storage alignment.  Word alignment keeps sizeof(Event) at 48
  /// (a max_align_t buffer would pad it to 64 and push the arena node
  /// across two cache lines).
  static constexpr std::size_t kInlineAlign = alignof(void*);

  Event() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Event> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Event(F&& fn) {  // NOLINT: implicit by design (mirrors std::function).
    emplace(std::forward<F>(fn));
  }

  /// Replaces the held callable, constructing the new one directly in the
  /// inline buffer.  The event kernel uses this to build callables in
  /// place inside arena nodes — no intermediate Event, no relocation.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Event> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "Event closure exceeds kInlineBytes: capture a pointer to "
                  "pooled state instead of the state itself");
    static_assert(alignof(Fn) <= kInlineAlign,
                  "Event closure is over-aligned: capture a pointer to "
                  "pooled state instead of the state itself");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "Event closure has a throwing move: capture a pointer to "
                  "pooled state instead of the state itself");
    reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &inline_ops<Fn>;
  }

  Event(Event&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  ~Event() { reset(); }

  /// True when a callable is held.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable (which must be present).
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable into `dst` and destroys it at `src`.
    /// Null when the callable is trivially relocatable: the whole inline
    /// buffer is then moved with a fixed-size memcpy (no indirect call) --
    /// the common case for the {this, state-pointer} captures the
    /// simulator schedules.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when destruction is a no-op.
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool kTrivialInline =
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
      kTrivialInline<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              Fn* from = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*from));
              from->~Fn();
            },
      kTrivialInline<Fn>
          ? nullptr
          : +[](void* self) noexcept {
              std::launder(reinterpret_cast<Fn*>(self))->~Fn();
            }};

  void relocate_from(Event& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  // Zero-initialized so the fixed-size relocation memcpy never reads
  // indeterminate tail bytes (keeps -Wmaybe-uninitialized quiet; the dead
  // stores vanish under optimization when a callable is installed).
  alignas(kInlineAlign) unsigned char storage_[kInlineBytes] = {};
};

}  // namespace allarm::sim
