#ifndef DYNAPROX_BEM_FREE_LIST_H_
#define DYNAPROX_BEM_FREE_LIST_H_

#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

#include "bem/types.h"
#include "common/contended_mutex.h"
#include "common/result.h"

namespace dynaprox::bem {

// FIFO free list of DPC slots (paper 4.3.3's free dpcKeys; the directory
// turns a slot into a key by adding the slot's generation, see
// bem::DpcKey). Initially holds every slot in [0, capacity). When a
// fragment becomes invalid its slot is pushed at the *end*, so a slot is
// only reassigned after all slots freed before it — giving invalid DPC
// slots the longest possible grace period before they are overwritten by a
// SET for a different fragment.
//
// Paper requirement: "the size of the freeList should be at least as large
// as the maximum cache size" — enforced: Release on a full list fails.
//
// The list is a ring over a fixed array of `capacity` slots, so it never
// allocates after construction.
//
// Thread-safe: one internal mutex serializes the ring operations — they
// are O(1) index moves, so the critical section is tiny. The mutex
// counts contended acquisitions (contentions()) because the free list is
// the one structure every parallel Insert still shares after the
// directory went stripe-locked; the counter shows whether it becomes the
// next bottleneck.
class FreeList {
 public:
  // Fills the list with slots 0..capacity-1.
  explicit FreeList(DpcKey capacity);

  // Pops the oldest free slot; nullopt when none is free (a full
  // directory's every evicting insert asks first).
  std::optional<DpcKey> Allocate();

  // Returns `slot` to the tail. Fails on out-of-range slots and when the
  // list is already full (double release).
  Status Release(DpcKey slot);

  // Returns `slot` to the HEAD, so the next Allocate hands it right back.
  // Used by refresh-driven invalidation (DPC cold-cache recovery): the DPC
  // asked for this slot's fragment to be regenerated, so the re-rendered
  // fragment should land in it — a committed stream is waiting to splice
  // `GET key` there.
  Status ReleaseFront(DpcKey slot);

  size_t free_count() const { return size_.load(std::memory_order_relaxed); }
  DpcKey capacity() const { return capacity_; }
  bool empty() const { return free_count() == 0; }

  // Contended acquisitions of the internal mutex (see class comment).
  uint64_t contentions() const { return mu_.contended_acquisitions(); }

 private:
  // Checks `slot` for a release; caller holds mu_.
  Status CheckRelease(DpcKey slot) const;

  const DpcKey capacity_;
  mutable common::ContendedMutex mu_;
  // The free slots are ring_[head_], ring_[head_ + 1], ... (mod capacity),
  // size_ of them, oldest first. Guarded by mu_; size_ is also read
  // without it, so an empty list answers Allocate without locking.
  std::vector<DpcKey> ring_;
  size_t head_ = 0;
  std::atomic<size_t> size_;
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_FREE_LIST_H_
