#ifndef DYNAPROX_WORKLOAD_TRACE_H_
#define DYNAPROX_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "http/message.h"

namespace dynaprox::workload {

// A recorded request: enough to replay a GET workload faithfully
// (method, target, optional session cookie).
struct TraceEntry {
  std::string method = "GET";
  std::string target;
  std::string session;  // "sid" cookie value, empty if anonymous.

  http::Request ToRequest() const;
  static TraceEntry FromRequest(const http::Request& request);
};

// Text trace format, one entry per line:
//   METHOD <sp> TARGET [<sp> sid=SESSION]
// Lines starting with '#' and blank lines are ignored on load.
Status SaveTrace(const std::string& path,
                 const std::vector<TraceEntry>& entries);
Result<std::vector<TraceEntry>> LoadTrace(const std::string& path);

// Replays a loaded trace in order; Next() wraps around when `loop` is set,
// otherwise fails with FailedPrecondition past the end.
class TraceStream {
 public:
  explicit TraceStream(std::vector<TraceEntry> entries, bool loop = false)
      : entries_(std::move(entries)), loop_(loop) {}

  Result<http::Request> Next();

  bool exhausted() const {
    return !loop_ && position_ >= entries_.size();
  }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<TraceEntry> entries_;
  bool loop_;
  size_t position_ = 0;
};

}  // namespace dynaprox::workload

#endif  // DYNAPROX_WORKLOAD_TRACE_H_
