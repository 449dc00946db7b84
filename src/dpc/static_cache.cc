#include "dpc/static_cache.h"

namespace dynaprox::dpc {

StaticCache::StaticCache(StaticCacheOptions options) : options_(options) {
  if (options_.clock == nullptr) options_.clock = SystemClock::Default();
}

bool StaticCache::IsFresh(const Entry& entry) const {
  return options_.clock->NowMicros() - entry.stored_at <
         entry.freshness_micros;
}

std::optional<http::Response> StaticCache::Lookup(const std::string& url) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(url);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& entry = it->second;
  if (!IsFresh(entry)) {
    // Stale: not servable here, but retained — revalidatable entries wait
    // for a conditional GET, the rest remain available to LookupStale when
    // the origin fails (RFC 9111 §4.2.4). LRU capacity bounds them.
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.erase(entry.lru_position);
  lru_.push_front(url);
  entry.lru_position = lru_.begin();
  http::Response response = entry.response;
  MicroTime age = options_.clock->NowMicros() - entry.stored_at;
  response.headers.Set("Age", std::to_string(age / kMicrosPerSecond));
  return response;
}

std::optional<http::Response> StaticCache::LookupStale(
    const std::string& url, MicroTime max_stale_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(url);
  if (it == entries_.end()) return std::nullopt;
  Entry& entry = it->second;
  MicroTime age = options_.clock->NowMicros() - entry.stored_at;
  if (max_stale_micros > 0 && age > max_stale_micros) return std::nullopt;
  ++stats_.stale_served;
  lru_.erase(entry.lru_position);
  lru_.push_front(url);
  entry.lru_position = lru_.begin();
  http::Response response = entry.response;
  response.headers.Set("Age", std::to_string(age / kMicrosPerSecond));
  return response;
}

std::optional<std::string> StaticCache::StaleEtag(const std::string& url) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(url);
  if (it == entries_.end() || IsFresh(it->second) ||
      it->second.etag.empty()) {
    return std::nullopt;
  }
  return it->second.etag;
}

std::optional<http::Response> StaticCache::Revalidate(
    const std::string& url, const http::Response& not_modified) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(url);
  if (it == entries_.end()) return std::nullopt;
  Entry& entry = it->second;
  // A 304 may carry updated Cache-Control; otherwise keep the original
  // freshness lifetime.
  http::CacheControl control = http::ResponseCacheControl(not_modified);
  if (auto age = control.SharedMaxAgeSeconds();
      age.has_value() && *age > 0) {
    entry.freshness_micros = *age * kMicrosPerSecond;
  }
  entry.stored_at = options_.clock->NowMicros();
  ++stats_.revalidations;
  lru_.erase(entry.lru_position);
  lru_.push_front(url);
  entry.lru_position = lru_.begin();
  http::Response response = entry.response;
  response.headers.Set("Age", "0");
  return response;
}

bool StaticCache::Store(const std::string& url,
                        const http::Response& response) {
  if (response.status_code != 200) return false;
  http::CacheControl control = http::ResponseCacheControl(response);
  if (!control.StorableByProxy()) return false;
  MicroTime freshness = *control.SharedMaxAgeSeconds() * kMicrosPerSecond;
  std::string etag;
  if (auto header = response.headers.Get("ETag"); header.has_value()) {
    etag = std::string(*header);
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(url);
  if (it != entries_.end()) {
    lru_.erase(it->second.lru_position);
    entries_.erase(it);
  }
  lru_.push_front(url);
  Entry& entry = entries_[url] =
      Entry{response, options_.clock->NowMicros(), freshness,
            std::move(etag), lru_.begin()};
  // Retained entries must not pin shared assembly buffers: flatten once
  // on insert (no-op for the usual string-bodied passthrough response).
  entry.response.FlattenBody();
  ++stats_.stores;
  while (entries_.size() > options_.capacity && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

void StaticCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

StaticCacheStats StaticCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t StaticCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace dynaprox::dpc
