#include "net/circuit_breaker.h"

#include <algorithm>

#include "common/logging.h"

namespace dynaprox::net {

namespace {

Status Rejection() {
  return Status::FailedPrecondition(std::string(kBreakerOpenMessage) +
                                    ": upstream unavailable");
}

CircuitBreakerOptions Sanitize(CircuitBreakerOptions options) {
  options.window = std::max(options.window, 1);
  options.min_samples = std::clamp(options.min_samples, 1, options.window);
  options.half_open_probes = std::max(options.half_open_probes, 1);
  options.close_after = std::max(options.close_after, 1);
  if (options.cooldown.max_attempts < 1) options.cooldown.max_attempts = 1;
  return options;
}

MicroTime CapCooldown(const RetryOptions& cooldown) {
  MicroTime cap = cooldown.initial_backoff_micros;
  for (int i = 1; i < cooldown.max_attempts; ++i) cap *= 2;
  return cap;
}

}  // namespace

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(Sanitize(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Default()),
      max_cooldown_(CapCooldown(options_.cooldown)),
      outcomes_(static_cast<size_t>(options_.window), 0) {}

double CircuitBreaker::ErrorRateLocked() const {
  return samples_ == 0 ? 0.0
                       : static_cast<double>(errors_) /
                             static_cast<double>(samples_);
}

void CircuitBreaker::OpenLocked(MicroTime now) {
  state_ = BreakerState::kOpen;
  opened_at_ = now;
  cooldown_ = options_.cooldown.initial_backoff_micros;
  for (int i = 0; i < consecutive_opens_ && cooldown_ < max_cooldown_; ++i) {
    cooldown_ *= 2;
  }
  cooldown_ = std::min(cooldown_, max_cooldown_);
  ++consecutive_opens_;
  ++opens_;
  inflight_probes_ = 0;
  probe_successes_ = 0;
  DYNAPROX_LOG(kWarning, "breaker")
      << "opened (error rate " << ErrorRateLocked() << " over " << samples_
      << " samples), cooldown " << cooldown_ / kMicrosPerMilli << " ms";
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (clock_->NowMicros() - opened_at_ < cooldown_) {
        ++rejections_;
        return false;
      }
      // Cooldown over: admit the first probe.
      state_ = BreakerState::kHalfOpen;
      probe_successes_ = 0;
      inflight_probes_ = 1;
      ++probes_;
      return true;
    case BreakerState::kHalfOpen:
      if (inflight_probes_ >= options_.half_open_probes) {
        ++rejections_;
        return false;
      }
      ++inflight_probes_;
      ++probes_;
      return true;
  }
  return true;
}

void CircuitBreaker::Record(bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kOpen:
      // A straggler from before the trip; the window restarts on close.
      return;
    case BreakerState::kClosed: {
      uint8_t evicted = outcomes_[next_slot_];
      uint8_t fresh = success ? 0 : 1;
      outcomes_[next_slot_] = fresh;
      next_slot_ = (next_slot_ + 1) % outcomes_.size();
      if (samples_ < static_cast<int>(outcomes_.size())) {
        ++samples_;
        errors_ += fresh;
      } else {
        errors_ += fresh - evicted;
      }
      if (samples_ >= options_.min_samples &&
          ErrorRateLocked() >= options_.error_threshold) {
        OpenLocked(clock_->NowMicros());
      }
      return;
    }
    case BreakerState::kHalfOpen:
      if (inflight_probes_ > 0) --inflight_probes_;
      if (!success) {
        OpenLocked(clock_->NowMicros());
        return;
      }
      if (++probe_successes_ >= options_.close_after) {
        state_ = BreakerState::kClosed;
        consecutive_opens_ = 0;
        std::fill(outcomes_.begin(), outcomes_.end(), 0);
        next_slot_ = 0;
        samples_ = 0;
        errors_ = 0;
        ++closes_;
        DYNAPROX_LOG(kInfo, "breaker") << "closed after successful probes";
      }
      return;
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

CircuitBreakerStats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CircuitBreakerStats snapshot;
  snapshot.state = state_;
  snapshot.rejections = rejections_;
  snapshot.opens = opens_;
  snapshot.closes = closes_;
  snapshot.probes = probes_;
  snapshot.window_samples = samples_;
  snapshot.window_error_rate = ErrorRateLocked();
  return snapshot;
}

CircuitBreakerTransport::CircuitBreakerTransport(
    Transport* inner, CircuitBreakerTransportOptions options)
    : inner_(inner), options_(options), breaker_(options.breaker) {}

Result<StreamingResponse> CircuitBreakerTransport::RoundTripStreaming(
    const http::Request& request) {
  if (!breaker_.Allow()) return Rejection();
  Result<StreamingResponse> response = inner_->RoundTripStreaming(request);
  breaker_.Record(response.ok() && Healthy(response->head.status_code));
  return response;
}

bool CircuitBreakerTransport::Healthy(int status_code) const {
  return !options_.count_http_5xx || status_code < 500;
}

}  // namespace dynaprox::net
