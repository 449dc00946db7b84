#ifndef DYNAPROX_BEM_MONITOR_H_
#define DYNAPROX_BEM_MONITOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "bem/cache_directory.h"
#include "bem/tag_codec.h"
#include "bem/types.h"
#include "common/clock.h"
#include "common/result.h"
#include "storage/table.h"

namespace dynaprox::bem {

// Configuration of a Back End Monitor instance.
struct BemOptions {
  // Number of dpcKeys == number of DPC slots.
  DpcKey capacity = 4096;
  // Default fragment TTL when the tagging call doesn't specify one.
  // <= 0 means "no TTL".
  MicroTime default_ttl_micros = 0;
  // Victim selection when the key space is exhausted: lru|fifo|clock.
  std::string replacement_policy = "lru";
  // Time source for TTLs; defaults to SystemClock.
  const Clock* clock = nullptr;
};

// Observes directory traffic for policy layers built on top of the BEM —
// the push scheduler (bem/push_scheduler.h) scores fragments from these
// events. Callbacks run inline on the mutating thread, outside the
// directory's stripe locks: implementations must be internally
// synchronized, cheap, and must not call back into the monitor.
class FragmentEventObserver {
 public:
  virtual ~FragmentEventObserver() = default;
  // A tagging-API lookup resolved (`hit` = directory hit).
  virtual void OnLookup(const std::string& canonical, bool hit) {
    (void)canonical;
    (void)hit;
  }
  // A fragment was (re)registered under `key` — its body has just been
  // regenerated.
  virtual void OnInsert(const std::string& canonical, DpcKey key) {
    (void)canonical;
    (void)key;
  }
  // A fragment was invalidated by a data-source update or explicit call.
  // Refresh-protocol invalidations (RefreshKey) are NOT reported: they are
  // DPC pull recovery, not content updates, and would skew update-rate
  // scoring.
  virtual void OnInvalidate(const std::string& canonical) { (void)canonical; }
};

// The Back End Monitor (paper 4.3.3): owns the cache directory and all
// cache-management policy — TTL expiry, data-source invalidation, and
// replacement. Dynamic scripts call LookupFragment/InsertFragment through
// the tagging API (appserver::ScriptContext); the DPC is never contacted.
//
// Thread-safe without a monitor-level lock: the origin application server
// handles one request per thread, block generators run on a pool, and
// data-source updates arrive on writer threads. The directory is lock-
// striped internally (CacheDirectory::kStripes ways) and owns the
// dependency registry, so parallel block executions of one page proceed
// without serializing here. See docs/threading-model.md and
// concurrency_stats() for the contention evidence.
//
// Cross-structure ordering note: the directory publishes an entry together
// with its dependencies and drops them in the same step that invalidates
// it, under one stripe lock, so a data-source update either sees a
// fragment's current incarnation or finds it already invalid. A code
// block reads the data source before InsertFragment publishes its output,
// so an update can land in between, when there is no valid incarnation
// to invalidate. The tagging API closes that window with the update
// sequence: it reads update_sequence() before the block runs and passes
// it to InsertFragment, which invalidates the fresh entry at once if one
// of its dependencies was updated since (CacheDirectory::Insert).
class BackEndMonitor {
 public:
  // Builds a monitor; fails on an unknown replacement policy name.
  static Result<std::unique_ptr<BackEndMonitor>> Create(BemOptions options);

  // --- Tagging-API entry points (run-time operation, paper 4.3.2) ---

  // Directory lookup for a tagged code block.
  LookupResult LookupFragment(const FragmentId& id);

  // Miss path: registers the fragment with the repository tables/rows it
  // depends on (`deps`; future updates of them invalidate it) and returns
  // the dpcKey for the SET instruction. `ttl_micros` < 0 uses the
  // configured default.
  // `read_since` is update_sequence() as read before the block read the
  // data source (see CacheDirectory::Insert).
  Result<DpcKey> InsertFragment(
      const FragmentId& id, MicroTime ttl_micros = -1,
      const DependencyList& deps = {},
      uint64_t read_since = CacheDirectory::kNoReadSince);

  // Data-source updates this monitor has seen (see InsertFragment).
  uint64_t update_sequence() const { return directory_.update_sequence(); }

  // --- Invalidation-manager entry points ---

  // Explicit invalidation (e.g. operator action, DPC cold-start recovery).
  Status Invalidate(const FragmentId& id);
  Status InvalidateKey(DpcKey key);
  // Refresh-protocol invalidation (X-DPC-Refresh): like InvalidateKey, but
  // takes the slot's current occupant under any generation and pins the
  // slot for immediate reuse, so the re-rendered fragment lands in the
  // same slot under the slot's next key (CacheDirectory::InvalidateKey).
  // The DPC's streamed recovery has already committed `GET key` to the
  // client and fills that hole with the refreshed template's SET into
  // the same slot.
  // Returns the canonical fragment id the slot belonged to: the caller must
  // force the re-render to treat that fragment as a miss, because a
  // concurrent request can re-insert it between this invalidation and the
  // re-render's lookup — the lookup would then hit and emit GET for
  // content the DPC still does not have (see ScriptContext::ForceMiss).
  Result<std::string> RefreshKey(DpcKey key);
  size_t InvalidateAll();

  // Proactive TTL sweep; returns the number invalidated.
  size_t SweepExpired();

  // Subscribes to `repository`'s update bus so data-source mutations
  // invalidate dependent fragments automatically. The monitor must be
  // detached (or destroyed) before the repository.
  void AttachRepository(storage::ContentRepository* repository);
  void DetachRepository();

  // Handles one data-source event (also called by the bus subscription);
  // returns how many fragments were invalidated.
  size_t OnDataSourceUpdate(const storage::UpdateEvent& event);

  // Attaches (or clears, with nullptr) the single event observer. The
  // pointer is read with acquire semantics on every event, so attaching
  // before traffic starts is race-free; the observer must outlive the
  // monitor or be cleared first.
  void SetObserver(FragmentEventObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }

  // --- Introspection ---
  // Snapshot of the directory counters (safe under concurrency).
  DirectoryStats stats() const;
  // Snapshot of up to `limit` directory entries (safe under concurrency).
  std::vector<CacheDirectory::EntryView> SnapshotEntries(
      size_t limit = 0) const;
  // Lock/parallelism counters of the directory and its registry.
  using ConcurrencyStats = CacheDirectory::ConcurrencyStats;
  ConcurrencyStats concurrency_stats() const {
    return directory_.concurrency_stats();
  }
  // Direct views for tests/benches. Both structures are internally
  // synchronized; multi-step read sequences still race with writers.
  const CacheDirectory& directory() const { return directory_; }
  const DependencyRegistry& dependencies() const {
    return directory_.dependencies();
  }
  DpcKey capacity() const { return directory_.capacity(); }
  MicroTime default_ttl_micros() const { return default_ttl_micros_; }

  ~BackEndMonitor();
  BackEndMonitor(const BackEndMonitor&) = delete;
  BackEndMonitor& operator=(const BackEndMonitor&) = delete;

 private:
  BackEndMonitor(DpcKey capacity, const Clock* clock,
                 std::unique_ptr<ReplacementPolicy> policy,
                 MicroTime default_ttl_micros);

  FragmentEventObserver* observer() const {
    return observer_.load(std::memory_order_acquire);
  }

  CacheDirectory directory_;  // Internally striped; owns the dependencies.
  std::atomic<FragmentEventObserver*> observer_{nullptr};
  MicroTime default_ttl_micros_;
  // Guards only the repository attachment state below.
  mutable std::mutex attach_mu_;
  storage::ContentRepository* repository_ = nullptr;
  storage::UpdateBus::SubscriptionId subscription_ = 0;
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_MONITOR_H_
