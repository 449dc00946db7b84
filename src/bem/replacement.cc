#include "bem/replacement.h"

#include <string>

namespace dynaprox::bem {
namespace {

Status NoCandidates() {
  return Status::FailedPrecondition("no replacement candidates");
}

}  // namespace

SlotList::Links& SlotList::LinksOf(DpcKey slot) {
  if (slot >= links_.size()) links_.resize(slot + 1);
  return links_[slot];
}

void SlotList::PushFront(DpcKey slot) {
  Links& links = LinksOf(slot);
  links = {kNone, head_, true};
  if (head_ != kNone) links_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNone) tail_ = slot;
}

void SlotList::PushBack(DpcKey slot) {
  Links& links = LinksOf(slot);
  links = {tail_, kNone, true};
  if (tail_ != kNone) links_[tail_].next = slot;
  tail_ = slot;
  if (head_ == kNone) head_ = slot;
}

void SlotList::Erase(DpcKey slot) {
  if (!contains(slot)) return;
  Links& links = links_[slot];
  (links.prev == kNone ? head_ : links_[links.prev].next) = links.next;
  (links.next == kNone ? tail_ : links_[links.next].prev) = links.prev;
  links = Links{};
}

void LruPolicy::Touch(DpcKey slot) {
  order_.Erase(slot);
  order_.PushFront(slot);
}

void LruPolicy::OnAccess(DpcKey slot) {
  if (order_.contains(slot)) Touch(slot);
}

Result<DpcKey> LruPolicy::PickVictim() {
  if (order_.empty()) return NoCandidates();
  return order_.back();
}

void FifoPolicy::OnInsert(DpcKey slot) {
  if (order_.contains(slot)) return;  // Re-insert: keep age.
  order_.PushBack(slot);
}

Result<DpcKey> FifoPolicy::PickVictim() {
  if (order_.empty()) return NoCandidates();
  return order_.front();
}

void ClockPolicy::OnInsert(DpcKey slot) {
  if (tracked(slot)) {
    ring_[position_[slot]].referenced = true;
    return;
  }
  if (slot >= position_.size()) position_.resize(slot + 1, kUntracked);
  position_[slot] = ring_.size();
  ring_.push_back({slot, true});
}

void ClockPolicy::OnAccess(DpcKey slot) {
  if (tracked(slot)) ring_[position_[slot]].referenced = true;
}

void ClockPolicy::OnRemove(DpcKey slot) {
  if (!tracked(slot)) return;
  const size_t at = position_[slot];
  position_[slot] = kUntracked;
  // Swap-remove to keep the ring dense.
  if (at != ring_.size() - 1) {
    ring_[at] = ring_.back();
    position_[ring_[at].slot] = at;
  }
  ring_.pop_back();
  if (ring_.empty()) {
    hand_ = 0;
  } else {
    hand_ %= ring_.size();
  }
}

Result<DpcKey> ClockPolicy::PickVictim() {
  if (ring_.empty()) return NoCandidates();
  // At most two sweeps: the first clears reference bits, the second must
  // find an unreferenced entry.
  for (size_t step = 0; step < 2 * ring_.size(); ++step) {
    Entry& entry = ring_[hand_];
    if (!entry.referenced) return entry.slot;
    entry.referenced = false;
    hand_ = (hand_ + 1) % ring_.size();
  }
  return ring_[hand_].slot;
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
