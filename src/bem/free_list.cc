#include "bem/free_list.h"

namespace dynaprox::bem {

FreeList::FreeList(DpcKey capacity)
    : capacity_(capacity), ring_(capacity), size_(capacity) {
  for (DpcKey slot = 0; slot < capacity; ++slot) ring_[slot] = slot;
}

std::optional<DpcKey> FreeList::Allocate() {
  if (size_.load(std::memory_order_relaxed) == 0) return std::nullopt;
  std::lock_guard<common::ContendedMutex> lock(mu_);
  const size_t size = size_.load(std::memory_order_relaxed);
  if (size == 0) return std::nullopt;
  DpcKey slot = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  size_.store(size - 1, std::memory_order_relaxed);
  return slot;
}

Status FreeList::CheckRelease(DpcKey slot) const {
  if (slot >= capacity_) {
    return Status::InvalidArgument("slot out of range: " +
                                   std::to_string(slot));
  }
  if (size_.load(std::memory_order_relaxed) >= capacity_) {
    return Status::FailedPrecondition("free list already full");
  }
  return Status::Ok();
}

Status FreeList::Release(DpcKey slot) {
  std::lock_guard<common::ContendedMutex> lock(mu_);
  DYNAPROX_RETURN_IF_ERROR(CheckRelease(slot));
  const size_t size = size_.load(std::memory_order_relaxed);
  ring_[(head_ + size) % capacity_] = slot;
  size_.store(size + 1, std::memory_order_relaxed);
  return Status::Ok();
}

Status FreeList::ReleaseFront(DpcKey slot) {
  std::lock_guard<common::ContendedMutex> lock(mu_);
  DYNAPROX_RETURN_IF_ERROR(CheckRelease(slot));
  head_ = (head_ + capacity_ - 1) % capacity_;
  ring_[head_] = slot;
  size_.store(size_.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace dynaprox::bem
