// Helpers for the servers' fd-exhaustion tests (tcp_test.cc,
// epoll_server_test.cc).
#ifndef DYNAPROX_TESTS_NET_FD_EXHAUSTION_H_
#define DYNAPROX_TESTS_NET_FD_EXHAUSTION_H_

#include <fcntl.h>

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/logging.h"
#include "net/connection_pool.h"

namespace dynaprox::net {

// Fills the fd table (after clamping RLIMIT_NOFILE so this stays fast),
// returning the dummy fds that hold it full.
inline std::vector<int> FillFdTable() {
  std::vector<int> dummies;
  for (;;) {
    int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    dummies.push_back(fd);
  }
  return dummies;
}

// Makes, with descriptors to spare, one round trip to the server on
// `port` through the client an outage episode uses, and logs one line.
// UBSan's vptr check reads an object through a pipe the first time it
// meets the object's dynamic type; while the fd table is full the pipe
// cannot open, and the check reports a live object as having an invalid
// vptr. The checker caches the types it has checked, so after this call
// the episode's paths leave it nothing to read.
inline void CheckTypesBeforeFillingTheFdTable(uint16_t port) {
  PooledTransportOptions options;
  options.pool.io_timeout_micros = 300 * kMicrosPerMilli;
  PooledClientTransport client("127.0.0.1", port, options);
  http::Request request;
  ASSERT_TRUE(client.RoundTrip(request).ok());
  DYNAPROX_LOG(kWarning, "test") << "types checked before the fd table fills";
}

}  // namespace dynaprox::net

#endif  // DYNAPROX_TESTS_NET_FD_EXHAUSTION_H_
