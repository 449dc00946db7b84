#ifndef DYNAPROX_BEM_REPLACEMENT_H_
#define DYNAPROX_BEM_REPLACEMENT_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace dynaprox::bem {

// Victim-selection policy for the cache replacement manager (paper 4.3.3:
// "a cache replacement manager ... selects fragments for replacement when
// the directory size exceeds some specified threshold"). The policy tracks
// valid directory entries by canonical fragment id.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  // A fragment entered the directory (miss path).
  virtual void OnInsert(const std::string& fragment_id) = 0;
  // A fragment was served from cache (hit path).
  virtual void OnAccess(const std::string& fragment_id) = 0;
  // A fragment was invalidated or evicted; forget it.
  virtual void OnRemove(const std::string& fragment_id) = 0;

  // Picks the fragment to evict. Fails when no candidates are tracked.
  virtual Result<std::string> PickVictim() = 0;

  virtual std::string_view name() const = 0;
};

// Least-recently-used: evicts the entry whose last insert/access is oldest.
// A hit splices the entry's list node to the front: no allocation.
class LruPolicy : public ReplacementPolicy {
 public:
  void OnInsert(const std::string& fragment_id) override;
  void OnAccess(const std::string& fragment_id) override;
  void OnRemove(const std::string& fragment_id) override;
  Result<std::string> PickVictim() override;
  std::string_view name() const override { return "lru"; }

 private:
  void Touch(const std::string& fragment_id);

  std::list<std::string> order_;  // Front = most recent.
  std::unordered_map<std::string, std::list<std::string>::iterator> index_;
};

// First-in-first-out: evicts the oldest inserted entry; accesses are
// ignored.
class FifoPolicy : public ReplacementPolicy {
 public:
  void OnInsert(const std::string& fragment_id) override;
  void OnAccess(const std::string& /*fragment_id*/) override {}
  void OnRemove(const std::string& fragment_id) override;
  Result<std::string> PickVictim() override;
  std::string_view name() const override { return "fifo"; }

 private:
  std::list<std::string> order_;  // Front = oldest.
  std::unordered_map<std::string, std::list<std::string>::iterator> index_;
};

// CLOCK (second-chance): approximates LRU with one reference bit per entry
// and a rotating hand.
class ClockPolicy : public ReplacementPolicy {
 public:
  void OnInsert(const std::string& fragment_id) override;
  void OnAccess(const std::string& fragment_id) override;
  void OnRemove(const std::string& fragment_id) override;
  Result<std::string> PickVictim() override;
  std::string_view name() const override { return "clock"; }

 private:
  struct Entry {
    std::string fragment_id;
    bool referenced;
  };
  std::vector<Entry> ring_;
  std::unordered_map<std::string, size_t> index_;  // id -> ring slot.
  size_t hand_ = 0;
};

// Factory by policy name ("lru", "fifo", "clock"); InvalidArgument
// otherwise.
Result<std::unique_ptr<ReplacementPolicy>> MakeReplacementPolicy(
    std::string_view name);

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_REPLACEMENT_H_
