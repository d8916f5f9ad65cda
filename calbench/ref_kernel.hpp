#pragma once

/// \file ref_kernel.hpp
/// The frozen reference kernel every host-time metric is calibrated
/// against (README.md, "Calibration").
///
/// It links nothing from the simulator on purpose: no change to `src/` may
/// move it, so a slower reference always means a slower host. The mix
/// mirrors what the simulator spends its time on: a binary heap of event
/// keys and an ordered map under insert/erase churn, over a working set of a
/// dozen MB, keyed by a xorshift stream. Single-threaded. Of the sizes
/// tried, this working set tracked the simulator's slowdowns under
/// co-tenant load best (README.md, "Calibration").
///
/// All of its memory is allocated once, up front, and every run lays its
/// nodes out at the same addresses: the state of the process heap, which
/// the simulator shapes, must not reach the reference's timing.
///
/// Changing anything here (sizes, operation mix, key stream) invalidates
/// every recorded baseline: the nominal time and the checksum are part of
/// the benchmark's definition.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <new>
#include <vector>

namespace calbench {

/// Nominal duration of one reference run: calibrated host seconds are
/// `raw seconds × kNominalRefSeconds / measured reference seconds`.
inline constexpr double kNominalRefSeconds = 0.100;

/// Checksum every reference run must reproduce.
inline constexpr std::uint64_t kRefChecksum = 0x489967cb9add33fcULL;

class RefKernel {
 public:
  RefKernel() : pool_(kMapKeys + 16) {
    keys_.reserve(kMapKeys);
    heap_.reserve(kHeapKeys + 1);
  }
  RefKernel(const RefKernel&) = delete;
  RefKernel& operator=(const RefKernel&) = delete;

  /// One reference run; returns its checksum.
  std::uint64_t run() {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    pool_.reset();
    Map map{std::less<>{}, PoolAlloc<Map::value_type>{&pool_}};
    keys_.clear();
    for (int i = 0; i < kMapKeys; ++i) {
      const std::uint64_t k = next();
      map.emplace(k, static_cast<std::uint64_t>(i));
      keys_.push_back(k);
    }
    // Binary min-heap of event keys.
    const std::greater<> later;
    heap_.clear();
    for (int i = 0; i < kHeapKeys; ++i) {
      heap_.push_back(next() >> 8);
      std::push_heap(heap_.begin(), heap_.end(), later);
    }

    std::uint64_t sum = 0;
    for (int step = 0; step < kChurnSteps; ++step) {
      // Event-queue half: pop the earliest key, push a later one.
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const std::uint64_t top = heap_.back();
      heap_.back() = top + (next() >> 40);
      std::push_heap(heap_.begin(), heap_.end(), later);
      sum = sum * 31 + top;
      // Ordered-map half: erase one resident key, insert a fresh one, and
      // probe a neighbour.
      const std::size_t slot = next() % keys_.size();
      map.erase(keys_[slot]);
      const std::uint64_t k = next();
      map.emplace(k, static_cast<std::uint64_t>(step));
      keys_[slot] = k;
      const auto it = map.lower_bound(next());
      sum ^= it == map.end() ? 0 : it->second;
    }
    return sum ^ map.size() ^ heap_.size();
  }

 private:
  static constexpr int kMapKeys = 128 * 1024;   // 8 MB of tree nodes
  static constexpr int kHeapKeys = 512 * 1024;  // 4 MB heap
  static constexpr int kChurnSteps = 16 * 1024;

  /// Fixed-slot node pool: a free list over one preallocated block.
  class NodePool {
   public:
    static constexpr std::size_t kSlot = 64;
    explicit NodePool(std::size_t slots)
        : storage_(slots * kSlot, std::byte{1}) {}
    void reset() noexcept {
      used_ = 0;
      free_ = nullptr;
    }
    void* take(std::size_t bytes) {
      if (bytes > kSlot) {
        throw std::bad_alloc();
      }
      if (free_ != nullptr) {
        void* p = free_;
        free_ = *static_cast<void**>(p);
        return p;
      }
      if (used_ + kSlot > storage_.size()) {
        throw std::bad_alloc();
      }
      void* p = storage_.data() + used_;
      used_ += kSlot;
      return p;
    }
    void give(void* p) noexcept {
      *static_cast<void**>(p) = free_;
      free_ = p;
    }

   private:
    std::vector<std::byte> storage_;
    std::size_t used_ = 0;
    void* free_ = nullptr;
  };

  template <class T>
  struct PoolAlloc {
    using value_type = T;
    NodePool* pool;
    explicit PoolAlloc(NodePool* p) noexcept : pool(p) {}
    template <class U>
    PoolAlloc(const PoolAlloc<U>& o) noexcept : pool(o.pool) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(pool->take(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t /*n*/) noexcept { pool->give(p); }
    template <class U>
    bool operator==(const PoolAlloc<U>& o) const noexcept {
      return pool == o.pool;
    }
  };
  using Map =
      std::map<std::uint64_t, std::uint64_t, std::less<>,
               PoolAlloc<std::pair<const std::uint64_t, std::uint64_t>>>;

  NodePool pool_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> heap_;
};

}  // namespace calbench
