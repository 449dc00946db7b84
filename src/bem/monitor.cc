#include "bem/monitor.h"

#include "common/logging.h"

namespace dynaprox::bem {

Result<std::unique_ptr<BackEndMonitor>> BackEndMonitor::Create(
    BemOptions options) {
  if (options.capacity == 0) {
    return Status::InvalidArgument("BEM capacity must be > 0");
  }
  std::unique_ptr<ReplacementPolicy> policy;
  DYNAPROX_ASSIGN_OR_RETURN(policy,
                            MakeReplacementPolicy(options.replacement_policy));
  const Clock* clock =
      options.clock != nullptr ? options.clock : SystemClock::Default();
  return std::unique_ptr<BackEndMonitor>(
      new BackEndMonitor(options.capacity, clock, std::move(policy),
                         options.default_ttl_micros));
}

BackEndMonitor::BackEndMonitor(DpcKey capacity, const Clock* clock,
                               std::unique_ptr<ReplacementPolicy> policy,
                               MicroTime default_ttl_micros)
    : directory_(capacity, clock, std::move(policy)),
      default_ttl_micros_(default_ttl_micros) {}

BackEndMonitor::~BackEndMonitor() { DetachRepository(); }

LookupResult BackEndMonitor::LookupFragment(const FragmentId& id) {
  LookupResult result = directory_.Lookup(id);
  if (FragmentEventObserver* obs = observer(); obs != nullptr) {
    obs->OnLookup(id.Canonical(), result.hit());
  }
  return result;
}

Result<DpcKey> BackEndMonitor::InsertFragment(const FragmentId& id,
                                              MicroTime ttl_micros,
                                              const DependencyList& deps,
                                              uint64_t read_since) {
  if (ttl_micros < 0) ttl_micros = default_ttl_micros_;
  Result<DpcKey> key = directory_.Insert(id, ttl_micros, deps, read_since);
  if (key.ok()) {
    if (FragmentEventObserver* obs = observer(); obs != nullptr) {
      obs->OnInsert(id.Canonical(), *key);
    }
  }
  return key;
}

Status BackEndMonitor::Invalidate(const FragmentId& id) {
  Status status = directory_.Invalidate(id);
  if (status.ok()) {
    if (FragmentEventObserver* obs = observer(); obs != nullptr) {
      obs->OnInvalidate(id.Canonical());
    }
  }
  return status;
}

Status BackEndMonitor::InvalidateKey(DpcKey key) {
  Result<std::string> owner = directory_.InvalidateKey(key);
  if (!owner.ok()) return owner.status();
  if (FragmentEventObserver* obs = observer(); obs != nullptr) {
    obs->OnInvalidate(*owner);
  }
  return Status::Ok();
}

Result<std::string> BackEndMonitor::RefreshKey(DpcKey key) {
  return directory_.InvalidateKey(key, /*pin_key=*/true);
}

size_t BackEndMonitor::InvalidateAll() { return directory_.InvalidateAll(); }

size_t BackEndMonitor::SweepExpired() { return directory_.SweepExpired(); }

DirectoryStats BackEndMonitor::stats() const { return directory_.stats(); }

std::vector<CacheDirectory::EntryView> BackEndMonitor::SnapshotEntries(
    size_t limit) const {
  return directory_.SnapshotEntries(limit);
}

void BackEndMonitor::AttachRepository(storage::ContentRepository* repository) {
  DetachRepository();
  std::lock_guard<std::mutex> lock(attach_mu_);
  repository_ = repository;
  subscription_ = repository_->bus().Subscribe(
      [this](const storage::UpdateEvent& event) { OnDataSourceUpdate(event); });
}

void BackEndMonitor::DetachRepository() {
  std::lock_guard<std::mutex> lock(attach_mu_);
  if (repository_ == nullptr) return;
  repository_->bus().Unsubscribe(subscription_);
  repository_ = nullptr;
  subscription_ = 0;
}

size_t BackEndMonitor::OnDataSourceUpdate(const storage::UpdateEvent& event) {
  // Recorded first: an insert that misses this record has published its
  // entry already, and Affected below finds it.
  directory_.NoteUpdate(event);
  size_t count = 0;
  // Affected releases the registry lock before any stripe lock is taken;
  // invalidating a fragment drops its dependencies under its stripe lock.
  for (const std::string& canonical : dependencies().Affected(event)) {
    Status status = directory_.InvalidateCanonical(canonical);
    if (status.ok()) {
      ++count;
      if (FragmentEventObserver* obs = observer(); obs != nullptr) {
        obs->OnInvalidate(canonical);
      }
      DYNAPROX_LOG(kDebug, "bem")
          << "data-source invalidation: " << canonical << " (table "
          << event.table << ")";
    }
  }
  return count;
}

}  // namespace dynaprox::bem
