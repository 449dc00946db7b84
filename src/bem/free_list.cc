#include "bem/free_list.h"

namespace dynaprox::bem {

FreeList::FreeList(DpcKey capacity) : capacity_(capacity) {
  for (DpcKey slot = 0; slot < capacity; ++slot) list_.push_back(slot);
}

Result<DpcKey> FreeList::Allocate() {
  std::lock_guard<common::ContendedMutex> lock(mu_);
  if (list_.empty()) {
    return Status::CapacityExceeded("free list exhausted");
  }
  DpcKey slot = list_.front();
  list_.pop_front();
  return slot;
}

Status FreeList::Release(DpcKey slot) {
  if (slot >= capacity_) {
    return Status::InvalidArgument("slot out of range: " +
                                   std::to_string(slot));
  }
  std::lock_guard<common::ContendedMutex> lock(mu_);
  if (list_.size() >= capacity_) {
    return Status::FailedPrecondition("free list already full");
  }
  list_.push_back(slot);
  return Status::Ok();
}

Status FreeList::ReleaseFront(DpcKey slot) {
  if (slot >= capacity_) {
    return Status::InvalidArgument("slot out of range: " +
                                   std::to_string(slot));
  }
  std::lock_guard<common::ContendedMutex> lock(mu_);
  if (list_.size() >= capacity_) {
    return Status::FailedPrecondition("free list already full");
  }
  list_.push_front(slot);
  return Status::Ok();
}

}  // namespace dynaprox::bem
