#include "net/fault_injection.h"

#include <chrono>
#include <thread>

#include "bem/protocol.h"

namespace dynaprox::net {
namespace {

void SleepMicros(MicroTime micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

}  // namespace

FaultInjectingTransport::FaultInjectingTransport(
    Transport* inner, FaultInjectionOptions options)
    : inner_(inner), options_(options), rng_(options.seed) {}

FaultInjectingTransport::Fault FaultInjectingTransport::Draw() {
  // One uniform draw per round trip keeps the decision stream replayable
  // regardless of which probabilities are enabled.
  double roll = rng_.NextDouble();
  double edge = options_.error_probability;
  if (roll < edge) return Fault::kError;
  edge += options_.black_hole_probability;
  if (roll < edge) return Fault::kBlackHole;
  edge += options_.garbage_probability;
  if (roll < edge) return Fault::kGarbage;
  edge += options_.delay_probability;
  if (roll < edge) return Fault::kDelay;
  return Fault::kNone;
}

namespace {

// A template response no tag codec accepts: exercises the proxy's
// template-error path the way a corrupted origin stream would.
http::Response MakeGarbageResponse() {
  http::Response garbage =
      http::Response::MakeOk(std::string("\x02\x7f garbage \x03"));
  garbage.headers.Set(bem::kTemplateHeader, "1");
  return garbage;
}

}  // namespace

FaultInjectingTransport::Fault FaultInjectingTransport::DrawAndCount() {
  std::lock_guard<std::mutex> lock(mu_);
  Fault fault = Draw();
  switch (fault) {
    case Fault::kNone:
      ++stats_.passed;
      break;
    case Fault::kError:
      ++stats_.injected_errors;
      break;
    case Fault::kBlackHole:
      ++stats_.injected_black_holes;
      break;
    case Fault::kGarbage:
      ++stats_.injected_garbage;
      break;
    case Fault::kDelay:
      ++stats_.passed;
      ++stats_.injected_delays;
      break;
  }
  return fault;
}

Result<StreamingResponse> FaultInjectingTransport::RoundTripStreaming(
    const http::Request& request) {
  if (down()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.down_failures;
    }
    SleepMicros(options_.down_failure_delay_micros);
    return Status::IoError("fault injection: origin down");
  }
  switch (DrawAndCount()) {
    case Fault::kError:
      return Status::IoError("fault injection: connection reset");
    case Fault::kBlackHole:
      SleepMicros(options_.black_hole_micros);
      return Status::IoError("fault injection: timeout");
    case Fault::kGarbage:
      return StreamWhole(MakeGarbageResponse());
    case Fault::kDelay:
      SleepMicros(options_.delay_micros);
      return inner_->RoundTripStreaming(request);
    case Fault::kNone:
      return inner_->RoundTripStreaming(request);
  }
  return inner_->RoundTripStreaming(request);
}

FaultInjectionStats FaultInjectingTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dynaprox::net
