#include "bem/replacement.h"

namespace dynaprox::bem {

void LruPolicy::Touch(const std::string& fragment_id) {
  auto it = index_.find(fragment_id);
  if (it != index_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  order_.push_front(fragment_id);
  index_.emplace(fragment_id, order_.begin());
}

void LruPolicy::OnInsert(const std::string& fragment_id) {
  Touch(fragment_id);
}

void LruPolicy::OnAccess(const std::string& fragment_id) {
  Touch(fragment_id);
}

void LruPolicy::OnRemove(const std::string& fragment_id) {
  auto it = index_.find(fragment_id);
  if (it == index_.end()) return;
  order_.erase(it->second);
  index_.erase(it);
}

Result<std::string> LruPolicy::PickVictim() {
  if (order_.empty()) {
    return Status::FailedPrecondition("no replacement candidates");
  }
  return order_.back();
}

void FifoPolicy::OnInsert(const std::string& fragment_id) {
  if (index_.find(fragment_id) != index_.end()) return;  // Re-insert: keep age.
  order_.push_back(fragment_id);
  index_.emplace(fragment_id, std::prev(order_.end()));
}

void FifoPolicy::OnRemove(const std::string& fragment_id) {
  auto it = index_.find(fragment_id);
  if (it == index_.end()) return;
  order_.erase(it->second);
  index_.erase(it);
}

Result<std::string> FifoPolicy::PickVictim() {
  if (order_.empty()) {
    return Status::FailedPrecondition("no replacement candidates");
  }
  return order_.front();
}

void ClockPolicy::OnInsert(const std::string& fragment_id) {
  auto it = index_.find(fragment_id);
  if (it != index_.end()) {
    ring_[it->second].referenced = true;
    return;
  }
  index_.emplace(fragment_id, ring_.size());
  ring_.push_back({fragment_id, true});
}

void ClockPolicy::OnAccess(const std::string& fragment_id) {
  auto it = index_.find(fragment_id);
  if (it != index_.end()) ring_[it->second].referenced = true;
}

void ClockPolicy::OnRemove(const std::string& fragment_id) {
  auto it = index_.find(fragment_id);
  if (it == index_.end()) return;
  size_t slot = it->second;
  index_.erase(it);
  // Swap-remove to keep the ring dense.
  if (slot != ring_.size() - 1) {
    ring_[slot] = std::move(ring_.back());
    index_[ring_[slot].fragment_id] = slot;
  }
  ring_.pop_back();
  if (ring_.empty()) {
    hand_ = 0;
  } else {
    hand_ %= ring_.size();
  }
}

Result<std::string> ClockPolicy::PickVictim() {
  if (ring_.empty()) {
    return Status::FailedPrecondition("no replacement candidates");
  }
  // At most two sweeps: the first clears reference bits, the second must
  // find an unreferenced entry.
  for (size_t step = 0; step < 2 * ring_.size(); ++step) {
    Entry& entry = ring_[hand_];
    if (entry.referenced) {
      entry.referenced = false;
      hand_ = (hand_ + 1) % ring_.size();
    } else {
      return entry.fragment_id;
    }
  }
  return ring_[hand_].fragment_id;
}

Result<std::unique_ptr<ReplacementPolicy>> MakeReplacementPolicy(
    std::string_view name) {
  if (name == "lru") {
    return std::unique_ptr<ReplacementPolicy>(new LruPolicy());
  }
  if (name == "fifo") {
    return std::unique_ptr<ReplacementPolicy>(new FifoPolicy());
  }
  if (name == "clock") {
    return std::unique_ptr<ReplacementPolicy>(new ClockPolicy());
  }
  return Status::InvalidArgument("unknown replacement policy: " +
                                 std::string(name));
}

}  // namespace dynaprox::bem
