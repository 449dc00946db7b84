#ifndef DYNAPROX_DPC_FRAGMENT_STORE_H_
#define DYNAPROX_DPC_FRAGMENT_STORE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bem/types.h"
#include "common/clock.h"
#include "common/result.h"

namespace dynaprox::dpc {

// Counters for the store; exposed for tests and benches.
struct StoreStats {
  uint64_t sets = 0;
  uint64_t gets = 0;
  uint64_t get_misses = 0;  // GET whose slot did not hold its exact key.
  uint64_t pushes = 0;      // slots populated via SetPushed (control channel).
  uint64_t stale_sets = 0;  // SETs and pushes dropped as older and unwanted.
  uint64_t set_waits = 0;   // Await calls that waited for a SET in flight.
};

// A cached fragment body. Shared ownership lets a concurrent Set replace a
// slot while readers still hold the old content.
using FragmentRef = std::shared_ptr<const std::string>;

// The DPC's fragment cache (paper 4.3.3): "an in-memory array of pointers
// to cached fragments, where the DpcKey serves as the array index". Here
// the index is the key's slot (bem::SlotOf), and each slot records the
// key of its occupant, generation included (bem::DpcKey). A GET is served
// only from a slot holding exactly its key, and a SET never replaces a
// newer key with an older one — two upstream responses in flight at once
// can deliver a slot's SETs in either order. Slots are never proactively
// cleared: invalidation is entirely the BEM's business; a stale slot
// simply stops being referenced until a SET reassigns it.
//
// Kept aside. A page rendered just before the BEM reassigned a slot may
// reach the store after the slot's next occupant. So an occupant that a
// newer key displaces, and a SET older than its slot's occupant, are kept
// aside (outside the slot array) for as long as a writer that was open
// when they were set aside is still open: any page that could want them
// is still in flight. They are found by their exact key like any
// occupant. At most `capacity` entries are kept aside, oldest dropped.
//
// SETs in flight. A GET whose key is nowhere in the store may have
// overtaken the SET a concurrent upstream response is still carrying.
// Every response that can carry SETs is a Writer, from before its request
// goes out until its template has been scanned or abandoned, and Await
// waits for the exact key — but only while some writer that was already
// open when the waiting response's head arrived is still open and not
// itself waiting in Await, and never past a deadline. With no such writer
// it does not wait at all; two responses that each miss while the other
// is open stop waiting as soon as both wait.
//
// Restarts. Keys grow with each reassignment only within one BEM
// incarnation: a restarted origin hands out its first generations again,
// lower than the keys the store still holds. A response opened after a
// slot's occupant was stored was rendered after it, so within one
// incarnation any SET it carries into that slot has a newer key. A lower
// key carried by such a response therefore comes from a restarted BEM,
// and it replaces the occupant as a newer key would. SETs no response
// carries (pushes, peer fills) follow key order alone.
//
// Thread-safe. The lock is striped by slot (kShards shards) so reader
// threads assembling different pages don't serialize on one global mutex;
// counters and gauges are relaxed atomics updated outside any critical
// section longer than the slot swap itself. Writers, waiters and the
// entries kept aside share one mutex, taken per upstream response, per
// displaced occupant and per GET miss, never per GET hit.
class FragmentStore {
 public:
  static constexpr size_t kShards = 16;

  // An upstream response that may still carry SETs into this store (see
  // the class comment). Movable; Close() or destruction ends it.
  class Writer {
   public:
    Writer() = default;
    Writer(Writer&& other) noexcept { *this = std::move(other); }
    Writer& operator=(Writer&& other) noexcept;
    ~Writer() { Close(); }

    // The response's head has arrived: the writers open at this moment
    // are the ones an Await on behalf of this response may wait for.
    void HeadArrived();
    // The response's SETs have all been executed, or never will be.
    void Close();

   private:
    friend class FragmentStore;
    FragmentStore* store_ = nullptr;
    uint64_t id_ = 0;
    // Writers with a smaller id were opened before the head arrived; 0
    // until HeadArrived.
    uint64_t horizon_ = 0;
  };

  explicit FragmentStore(bem::DpcKey capacity) : slots_(capacity) {}

  // Stores `content` as `key`'s slot occupant unless the slot holds a
  // newer key; then it is kept aside while a page in flight may want it,
  // and otherwise dropped and counted in stale_sets (still Ok).
  Status Set(bem::DpcKey key, std::string content);

  // Same, but takes an already-shared buffer. The zero-copy assembly path
  // uses this so the store and the page's BufferChain reference one
  // allocation instead of materializing the payload twice. `carrier` is
  // the upstream response the SET arrived in, if any: it decides whether
  // a lower key comes from a restarted BEM (see the class comment).
  Status Set(bem::DpcKey key, FragmentRef content,
             const Writer* carrier = nullptr);

  // Stores a control-channel push (docs/edge-tier.md), under the same
  // newer-key rule as Set. Unlike Set — whose bodies arrive inside a
  // response being assembled right now, so their age is effectively zero —
  // a pushed body was regenerated at the BEM some `base_age_micros` ago and
  // must keep aging from `now_micros` so Age accounting (RFC 9111) stays
  // honest across the control channel.
  Status SetPushed(bem::DpcKey key, FragmentRef content,
                   MicroTime base_age_micros, MicroTime now_micros);

  // Age of `key`'s content at `now_micros`: zero for SET-populated slots,
  // base_age + residency for pushed ones. NotFound unless the slot holds
  // exactly `key`.
  Result<MicroTime> AgeOf(bem::DpcKey key, MicroTime now_micros);

  // Returns the content stored under exactly `key`; NotFound if its slot
  // is empty (e.g. a cold DPC after restart) or holds another generation.
  // The returned ref stays valid even if the slot is overwritten
  // concurrently.
  Result<FragmentRef> Get(bem::DpcKey key);

  // Opens a writer for one upstream response.
  Writer OpenWriter();

  // Get that, while `key` is absent, waits inside a net::BlockingScope
  // until it lands, until every writer that was open when `waiter`'s head
  // arrived (`waiter` itself excepted) has closed or is waiting in Await
  // too, or until `deadline`.
  Result<FragmentRef> Await(bem::DpcKey key, const Writer& waiter,
                            std::chrono::steady_clock::time_point deadline);

  // Empties every slot (models a DPC restart).
  void Clear();

  // Slot count; equals the BEM's capacity.
  bem::DpcKey capacity() const {
    return static_cast<bem::DpcKey>(slots_.size());
  }
  size_t occupied_slots() const;
  // Slots whose current content arrived via SetPushed (not yet overwritten
  // by a plain Set), for the dynaprox_store_pushed_slots gauge.
  size_t pushed_slots() const;
  // Total bytes currently held across all slots.
  size_t content_bytes() const;
  // Bytes held by one shard's slots (`shard` < kShards), for the
  // per-shard dynaprox_dpc_fragment_bytes gauge.
  size_t shard_content_bytes(size_t shard) const;
  StoreStats stats() const;

 private:
  // Counters live with their shard, cache-line aligned, so 16 threads on
  // 16 shards never bounce a shared counter line between cores.
  struct alignas(64) Shard {
    std::mutex mu;
    std::atomic<size_t> occupied{0};
    std::atomic<size_t> content_bytes{0};
    std::atomic<uint64_t> sets{0};
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> get_misses{0};
    std::atomic<uint64_t> pushes{0};
    std::atomic<uint64_t> stale_sets{0};
    std::atomic<size_t> pushed{0};
  };

  // An occupant: its key and content, and the content's provenance. In
  // the slot array, guarded by the owning shard's mutex; empty while
  // `content` is null.
  struct Entry {
    bem::DpcKey key = bem::kInvalidDpcKey;
    FragmentRef content;
    // The next writer id when it was stored: writers from this id on
    // were opened after it was rendered.
    uint64_t stamp = 0;
    bool pushed = false;
    MicroTime base_age = 0;   // age already accrued at the BEM.
    MicroTime stored_at = 0;  // local receive time of the push.
  };

  // An entry kept aside, wanted while a writer older than `horizon` (the
  // next writer id when it was set aside) is open.
  struct Aside {
    Entry entry;
    uint64_t horizon;
  };

  bem::DpcKey SlotOf(bem::DpcKey key) const {
    return bem::SlotOf(key, capacity());
  }
  Shard& ShardFor(bem::DpcKey slot) { return shards_[slot % kShards]; }
  // Stores `fresh` per the rule on Set, `carrier` the id of the writer it
  // arrived in (0: none); returns false when it was dropped.
  Result<bool> Store(Entry fresh, uint64_t carrier);
  // The content stored under exactly `key`, in its slot or aside; null if
  // none. `writers_locked`: the caller holds writers_mu_.
  FragmentRef Find(bem::DpcKey key, bool writers_locked);
  // Keeps `entry` aside if an open writer may want it; false if none.
  // Caller holds writers_mu_.
  bool KeepAsideLocked(Entry entry);
  // Drops the aside entries no open writer can want. Caller holds
  // writers_mu_.
  void PruneAsideLocked();
  // Wakes every Await so it re-checks the store and the writers.
  void WakeWaiters();

  mutable std::array<Shard, kShards> shards_;
  std::vector<Entry> slots_;  // slots_[s] guarded by shards_[s % 16].mu.

  // Writers, waiters and the entries kept aside. `waiters_` is raised
  // before a waiter first looks for its key, so a Set that reads it as
  // zero stored before the look.
  std::mutex writers_mu_;
  // Set, Writer::Close, and a writer starting to wait.
  std::condition_variable writers_changed_;
  std::set<uint64_t> open_writers_;  // Guarded by writers_mu_.
  std::set<uint64_t> awaiting_;      // Writers in Await; writers_mu_.
  // The next writer id. Bumped under writers_mu_, read without it to
  // stamp entries.
  std::atomic<uint64_t> next_writer_{1};
  std::deque<Aside> aside_;  // Horizon order; guarded by writers_mu_.
  std::atomic<int> waiters_{0};
  std::atomic<uint64_t> set_waits_{0};
};

}  // namespace dynaprox::dpc

#endif  // DYNAPROX_DPC_FRAGMENT_STORE_H_
