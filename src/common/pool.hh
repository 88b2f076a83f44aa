// Free-list arena for per-transaction state blocks.
//
// The directory allocates a small state block per in-flight coherence
// transaction (miss, broadcast, eviction).  std::make_shared costs a heap
// allocation plus atomic refcounting per transaction; Pool hands out slots
// from chunked storage and recycles them through an intrusive free list,
// so steady-state acquire/release touches no allocator at all.
//
// T must be trivially destructible: release() does not run destructors,
// and blocks still acquired when the pool dies are dropped with its
// storage.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace allarm {

template <typename T>
class Pool {
  static_assert(std::is_trivially_destructible_v<T>,
                "Pool does not run destructors");

 public:
  /// Returns a value-initialized block (default member initializers apply).
  T* acquire() {
    if (free_head_ != nullptr) {
      Slot* slot = free_head_;
      free_head_ = slot->next;
      return ::new (static_cast<void*>(slot->storage)) T{};
    }
    if (chunks_.empty() || chunk_used_ == kChunkSlots) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      chunk_used_ = 0;
    }
    Slot* slot = &chunks_.back()[chunk_used_++];
    return ::new (static_cast<void*>(slot->storage)) T{};
  }

  /// Returns `block` (obtained from acquire) to the free list.
  void release(T* block) {
    Slot* slot = reinterpret_cast<Slot*>(block);
    slot->next = free_head_;
    free_head_ = slot;
  }

 private:
  union Slot {
    Slot* next;
    alignas(T) unsigned char storage[sizeof(T)];
  };
  static constexpr std::size_t kChunkSlots = 64;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t chunk_used_ = 0;  ///< Slots handed out of the last chunk.
  Slot* free_head_ = nullptr;
};

}  // namespace allarm
