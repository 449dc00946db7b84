#include "dpc/fragment_store.h"

#include <optional>

#include "net/blocking_scope.h"

namespace dynaprox::dpc {

FragmentStore::Writer& FragmentStore::Writer::operator=(
    Writer&& other) noexcept {
  if (this != &other) {
    Close();
    store_ = other.store_;
    id_ = other.id_;
    horizon_ = other.horizon_;
    other.store_ = nullptr;
  }
  return *this;
}

void FragmentStore::Writer::HeadArrived() {
  if (store_ == nullptr) return;
  std::lock_guard<std::mutex> lock(store_->writers_mu_);
  horizon_ = store_->next_writer_.load();
}

void FragmentStore::Writer::Close() {
  if (store_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(store_->writers_mu_);
    store_->open_writers_.erase(id_);
    store_->PruneAsideLocked();
  }
  store_->WakeWaiters();
  store_ = nullptr;
}

FragmentStore::Writer FragmentStore::OpenWriter() {
  Writer writer;
  std::lock_guard<std::mutex> lock(writers_mu_);
  writer.store_ = this;
  writer.id_ = next_writer_.fetch_add(1);
  open_writers_.insert(writer.id_);
  return writer;
}

void FragmentStore::WakeWaiters() {
  if (waiters_.load() == 0) return;
  std::lock_guard<std::mutex> lock(writers_mu_);
  writers_changed_.notify_all();
}

Status FragmentStore::Set(bem::DpcKey key, std::string content) {
  return Set(key,
             std::make_shared<const std::string>(std::move(content)));
}

Status FragmentStore::Set(bem::DpcKey key, FragmentRef content,
                          const Writer* carrier) {
  Entry fresh;
  fresh.key = key;
  fresh.content = std::move(content);
  Result<bool> stored = Store(
      std::move(fresh),
      carrier != nullptr && carrier->store_ == this ? carrier->id_ : 0);
  if (!stored.ok()) return stored.status();
  if (*stored) {
    ShardFor(SlotOf(key)).sets.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status FragmentStore::SetPushed(bem::DpcKey key, FragmentRef content,
                                MicroTime base_age_micros,
                                MicroTime now_micros) {
  Entry fresh;
  fresh.key = key;
  fresh.content = std::move(content);
  fresh.pushed = true;
  fresh.base_age = base_age_micros;
  fresh.stored_at = now_micros;
  Result<bool> stored = Store(std::move(fresh), /*carrier=*/0);
  if (!stored.ok()) return stored.status();
  if (*stored) {
    ShardFor(SlotOf(key)).pushes.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Result<bool> FragmentStore::Store(Entry fresh, uint64_t carrier) {
  if (slots_.empty()) return Status::InvalidArgument("store has no slots");
  if (fresh.key == bem::kInvalidDpcKey) {
    return Status::InvalidArgument("reserved dpcKey: " +
                                   std::to_string(fresh.key));
  }
  if (fresh.content == nullptr) {
    return Status::InvalidArgument("null fragment for dpcKey " +
                                   std::to_string(fresh.key));
  }
  const bem::DpcKey slot_index = SlotOf(fresh.key);
  Shard& shard = ShardFor(slot_index);
  fresh.stamp = next_writer_.load();
  Entry displaced;  // Leaves the slot array: the old occupant, or `fresh`.
  bool occupied = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    Entry& slot = slots_[slot_index];
    // A response opened after the occupant was stored cannot carry an
    // older key of its slot; a lower one is from a restarted BEM.
    const bool rendered_after = carrier != 0 && carrier >= slot.stamp;
    if (slot.content != nullptr && fresh.key < slot.key && !rendered_after) {
      // A newer occupant's SET already landed; this one arrived late.
      displaced = std::move(fresh);
    } else {
      const size_t fresh_bytes = fresh.content->size();
      if (slot.content == nullptr) {
        shard.occupied.fetch_add(1, std::memory_order_relaxed);
      } else {
        shard.content_bytes.fetch_sub(slot.content->size(),
                                      std::memory_order_relaxed);
      }
      if (slot.pushed) shard.pushed.fetch_sub(1, std::memory_order_relaxed);
      if (fresh.pushed) shard.pushed.fetch_add(1, std::memory_order_relaxed);
      shard.content_bytes.fetch_add(fresh_bytes, std::memory_order_relaxed);
      if (slot.content != nullptr && slot.key != fresh.key) {
        displaced = std::move(slot);
      }
      slot = std::move(fresh);
      occupied = true;
    }
  }
  bool stored = occupied;
  if (displaced.content != nullptr) {
    const bool late = !occupied;
    bool kept;
    {
      std::lock_guard<std::mutex> lock(writers_mu_);
      kept = KeepAsideLocked(std::move(displaced));
    }
    if (late) {
      stored = kept;
      if (!kept) shard.stale_sets.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (stored) WakeWaiters();
  return stored;
}

bool FragmentStore::KeepAsideLocked(Entry entry) {
  PruneAsideLocked();
  // Every open writer opened before now; with none, no page in flight
  // can want the entry.
  if (open_writers_.empty()) return false;
  // A key names one render's content, so a second entry for a key already
  // aside is the same bytes; Find returns either.
  aside_.push_back(Aside{std::move(entry), next_writer_.load()});
  if (aside_.size() > slots_.size()) aside_.pop_front();
  return true;
}

void FragmentStore::PruneAsideLocked() {
  // Writers open in id order: once the oldest open one is no older than
  // an entry's horizon, no page that could want the entry is in flight.
  while (!aside_.empty() &&
         (open_writers_.empty() ||
          *open_writers_.begin() >= aside_.front().horizon)) {
    aside_.pop_front();
  }
}

FragmentRef FragmentStore::Find(bem::DpcKey key, bool writers_locked) {
  if (slots_.empty()) return nullptr;
  {
    const bem::DpcKey slot_index = SlotOf(key);
    std::lock_guard<std::mutex> lock(ShardFor(slot_index).mu);
    const Entry& slot = slots_[slot_index];
    if (slot.content != nullptr && slot.key == key) return slot.content;
  }
  std::unique_lock<std::mutex> lock(writers_mu_, std::defer_lock);
  if (!writers_locked) lock.lock();
  for (const Aside& aside : aside_) {
    if (aside.entry.key == key) return aside.entry.content;
  }
  return nullptr;
}

Result<MicroTime> FragmentStore::AgeOf(bem::DpcKey key,
                                       MicroTime now_micros) {
  if (slots_.empty()) return Status::NotFound("store has no slots");
  auto age = [&](const Entry& entry) {
    return entry.pushed ? entry.base_age + (now_micros - entry.stored_at)
                        : MicroTime{0};
  };
  {
    const bem::DpcKey slot_index = SlotOf(key);
    std::lock_guard<std::mutex> lock(ShardFor(slot_index).mu);
    const Entry& slot = slots_[slot_index];
    if (slot.content != nullptr && slot.key == key) return age(slot);
  }
  std::lock_guard<std::mutex> lock(writers_mu_);
  for (const Aside& aside : aside_) {
    if (aside.entry.key == key) return age(aside.entry);
  }
  return Status::NotFound("no DPC slot holds key " + std::to_string(key));
}

Result<FragmentRef> FragmentStore::Get(bem::DpcKey key) {
  Shard& shard = ShardFor(slots_.empty() ? 0 : SlotOf(key));
  shard.gets.fetch_add(1, std::memory_order_relaxed);
  FragmentRef content = Find(key, /*writers_locked=*/false);
  if (content == nullptr) {
    shard.get_misses.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("no DPC slot holds key " + std::to_string(key));
  }
  return content;
}

Result<FragmentRef> FragmentStore::Await(
    bem::DpcKey key, const Writer& waiter,
    std::chrono::steady_clock::time_point deadline) {
  if (FragmentRef content = Find(key, /*writers_locked=*/false)) {
    return content;
  }
  auto writer_pending = [&] {
    // Writers are numbered in the order they opened; one that is waiting
    // too carries no SET until its own wait ends.
    for (auto it = open_writers_.begin();
         it != open_writers_.end() && *it < waiter.horizon_; ++it) {
      if (*it != waiter.id_ && awaiting_.count(*it) == 0) return true;
    }
    return false;
  };
  FragmentRef content;
  {
    std::optional<net::BlockingScope> blocking;  // Only once it waits.
    std::unique_lock<std::mutex> lock(writers_mu_);
    if (waiters_.fetch_add(1) > 0) writers_changed_.notify_all();
    awaiting_.insert(waiter.id_);
    for (;;) {
      content = Find(key, /*writers_locked=*/true);
      if (content != nullptr || !writer_pending()) break;
      if (!blocking.has_value()) {
        blocking.emplace();
        set_waits_.fetch_add(1, std::memory_order_relaxed);
      }
      if (writers_changed_.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        content = Find(key, /*writers_locked=*/true);
        break;
      }
    }
    awaiting_.erase(waiter.id_);
    waiters_.fetch_sub(1);
  }
  if (content != nullptr) return content;
  return Status::NotFound("no DPC slot holds key " + std::to_string(key));
}

void FragmentStore::Clear() {
  {
    std::lock_guard<std::mutex> lock(writers_mu_);
    aside_.clear();
  }
  // Take every shard so concurrent Sets can't interleave with the sweep.
  std::array<std::unique_lock<std::mutex>, kShards> locks;
  for (size_t i = 0; i < kShards; ++i) {
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  }
  for (Entry& slot : slots_) slot = Entry{};
  for (Shard& shard : shards_) {
    shard.occupied.store(0, std::memory_order_relaxed);
    shard.content_bytes.store(0, std::memory_order_relaxed);
    shard.pushed.store(0, std::memory_order_relaxed);
  }
}

size_t FragmentStore::occupied_slots() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.occupied.load(std::memory_order_relaxed);
  }
  return total;
}

size_t FragmentStore::pushed_slots() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.pushed.load(std::memory_order_relaxed);
  }
  return total;
}

size_t FragmentStore::shard_content_bytes(size_t shard) const {
  return shards_[shard].content_bytes.load(std::memory_order_relaxed);
}

size_t FragmentStore::content_bytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.content_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

StoreStats FragmentStore::stats() const {
  StoreStats snapshot;
  for (const Shard& shard : shards_) {
    snapshot.sets += shard.sets.load(std::memory_order_relaxed);
    snapshot.gets += shard.gets.load(std::memory_order_relaxed);
    snapshot.get_misses += shard.get_misses.load(std::memory_order_relaxed);
    snapshot.pushes += shard.pushes.load(std::memory_order_relaxed);
    snapshot.stale_sets += shard.stale_sets.load(std::memory_order_relaxed);
  }
  snapshot.set_waits = set_waits_.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace dynaprox::dpc
