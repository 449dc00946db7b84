#ifndef DYNAPROX_DPC_STATIC_CACHE_H_
#define DYNAPROX_DPC_STATIC_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/clock.h"
#include "http/cache_control.h"
#include "http/message.h"

namespace dynaprox::dpc {

struct StaticCacheOptions {
  size_t capacity = 1024;        // Entries; LRU beyond.
  const Clock* clock = nullptr;  // Defaults to SystemClock.
};

struct StaticCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stores = 0;
  uint64_t evictions = 0;
  uint64_t revalidations = 0;  // 304-driven freshness extensions.
  uint64_t stale_served = 0;   // Stale entries served on upstream error.
};

// HTTP-semantics static-content cache inside the DPC: the role ISA
// Server's ordinary proxy cache plays in the paper's testbed ("static
// content is cacheable in the ISA Server proxy cache ... will not impact
// bandwidth requirements between the Web server and the DPC"). Stores only
// responses whose Cache-Control permits shared caching, keyed by URL, for
// their freshness lifetime. Thread-safe.
class StaticCache {
 public:
  explicit StaticCache(StaticCacheOptions options);

  // Returns a fresh cached response for `url`, if any (an "Age" header is
  // added; hit bookkeeping applied). Stale entries are kept — entries with
  // an ETag for revalidation, the rest for serve-stale-on-error (RFC 9111
  // §4.2.4); capacity LRU bounds how long either lingers.
  std::optional<http::Response> Lookup(const std::string& url);

  // Serve-stale-on-error (RFC 9111 §4.2.4): returns the entry for `url`
  // regardless of freshness, with its Age header set. `max_stale_micros`
  // > 0 bounds that age (an older entry is not served, but stays for
  // revalidation). The caller marks the response (Warning: 110) and must
  // only use this when the origin failed or answered 5xx. Never evicts.
  std::optional<http::Response> LookupStale(const std::string& url,
                                            MicroTime max_stale_micros = 0);

  // Returns the ETag of a stale-but-revalidatable entry for `url`; the
  // proxy sends it upstream as If-None-Match.
  std::optional<std::string> StaleEtag(const std::string& url);

  // After an upstream 304: extends the entry's freshness (using the 304's
  // Cache-Control if present, else the original lifetime) and returns the
  // refreshed response. Fails if the entry vanished.
  std::optional<http::Response> Revalidate(
      const std::string& url, const http::Response& not_modified);

  // Stores `response` if its Cache-Control allows a shared cache to.
  // Returns true when stored.
  bool Store(const std::string& url, const http::Response& response);

  // Drops everything (restart).
  void Clear();

  StaticCacheStats stats() const;
  size_t size() const;

 private:
  struct Entry {
    http::Response response;
    MicroTime stored_at;
    MicroTime freshness_micros;
    std::string etag;  // Empty: not revalidatable.
    std::list<std::string>::iterator lru_position;
  };

  bool IsFresh(const Entry& entry) const;

  StaticCacheOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // Front = most recent.
  StaticCacheStats stats_;
};

}  // namespace dynaprox::dpc

#endif  // DYNAPROX_DPC_STATIC_CACHE_H_
