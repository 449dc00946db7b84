#ifndef DYNAPROX_BEM_REPLACEMENT_H_
#define DYNAPROX_BEM_REPLACEMENT_H_

#include <memory>
#include <string_view>
#include <vector>

#include "bem/types.h"
#include "common/result.h"

namespace dynaprox::bem {

// Victim-selection policy for the cache replacement manager (paper 4.3.3:
// "a cache replacement manager ... selects fragments for replacement when
// the directory size exceeds some specified threshold"). The policy tracks
// valid directory entries by the slot each one holds: a slot names exactly
// one valid fragment, so every policy is a few arrays indexed by slot and
// no call hashes or allocates once the arrays cover the slots in use.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  // The fragment holding `slot` entered the directory (miss path).
  virtual void OnInsert(DpcKey slot) = 0;
  // The fragment holding `slot` was served from cache (hit path). A slot
  // the policy does not track is ignored.
  virtual void OnAccess(DpcKey slot) = 0;
  // The fragment holding `slot` was invalidated or evicted; forget it.
  virtual void OnRemove(DpcKey slot) = 0;

  // Picks the slot to evict, without forgetting it. Fails when no slots
  // are tracked.
  virtual Result<DpcKey> PickVictim() = 0;

  virtual std::string_view name() const = 0;
};

// A doubly linked list threaded through an array indexed by slot: O(1)
// push, unlink and move, and no node allocations. The array grows to the
// largest slot seen.
class SlotList {
 public:
  bool contains(DpcKey slot) const {
    return slot < links_.size() && links_[slot].linked;
  }
  bool empty() const { return head_ == kNone; }
  DpcKey front() const { return head_; }
  DpcKey back() const { return tail_; }

  void PushFront(DpcKey slot);
  void PushBack(DpcKey slot);
  // Unlinks `slot`; a slot not in the list is ignored.
  void Erase(DpcKey slot);

 private:
  static constexpr DpcKey kNone = kInvalidDpcKey;
  struct Links {
    DpcKey prev = kNone;
    DpcKey next = kNone;
    bool linked = false;
  };
  Links& LinksOf(DpcKey slot);

  std::vector<Links> links_;
  DpcKey head_ = kNone;
  DpcKey tail_ = kNone;
};

// Least-recently-used: evicts the slot whose last insert/access is oldest.
class LruPolicy : public ReplacementPolicy {
 public:
  void OnInsert(DpcKey slot) override { Touch(slot); }
  void OnAccess(DpcKey slot) override;
  void OnRemove(DpcKey slot) override { order_.Erase(slot); }
  Result<DpcKey> PickVictim() override;
  std::string_view name() const override { return "lru"; }

 private:
  void Touch(DpcKey slot);

  SlotList order_;  // Front = most recent.
};

// First-in-first-out: evicts the oldest inserted slot; accesses are
// ignored.
class FifoPolicy : public ReplacementPolicy {
 public:
  void OnInsert(DpcKey slot) override;
  void OnAccess(DpcKey /*slot*/) override {}
  void OnRemove(DpcKey slot) override { order_.Erase(slot); }
  Result<DpcKey> PickVictim() override;
  std::string_view name() const override { return "fifo"; }

 private:
  SlotList order_;  // Front = oldest.
};

// CLOCK (second-chance): approximates LRU with one reference bit per slot
// and a rotating hand over a dense ring of the tracked slots.
class ClockPolicy : public ReplacementPolicy {
 public:
  void OnInsert(DpcKey slot) override;
  void OnAccess(DpcKey slot) override;
  void OnRemove(DpcKey slot) override;
  Result<DpcKey> PickVictim() override;
  std::string_view name() const override { return "clock"; }

 private:
  static constexpr size_t kUntracked = SIZE_MAX;
  bool tracked(DpcKey slot) const {
    return slot < position_.size() && position_[slot] != kUntracked;
  }

  struct Entry {
    DpcKey slot;
    bool referenced;
  };
  std::vector<Entry> ring_;
  std::vector<size_t> position_;  // slot -> ring index, or kUntracked.
  size_t hand_ = 0;
};

// Factory by policy name ("lru", "fifo", "clock"); InvalidArgument
// otherwise.
Result<std::unique_ptr<ReplacementPolicy>> MakeReplacementPolicy(
    std::string_view name);

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_REPLACEMENT_H_
