#ifndef DYNAPROX_NET_SOCKET_UTIL_H_
#define DYNAPROX_NET_SOCKET_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/result.h"

namespace dynaprox::net {

// Status::IoError carrying `what` and the current errno text.
Status ErrnoStatus(const char* what);

// Writes all of `data` to `fd`, retrying on partial writes and EINTR.
// `*sent_out` (optional) receives the count of bytes handed to the kernel
// even on failure — retry decisions depend on whether any bytes may have
// reached the peer (see net/idempotency.h).
Status SendAll(int fd, std::string_view data, size_t* sent_out = nullptr);

// Opens a blocking TCP connection to host:port with TCP_NODELAY set and,
// when `io_timeout_micros` > 0, SO_RCVTIMEO/SO_SNDTIMEO applied. Returns
// the connected fd; the caller owns it.
Result<int> DialTcp(const std::string& host, uint16_t port,
                    MicroTime io_timeout_micros);

// Whether this kernel accepts SO_REUSEPORT on a TCP socket (probed once
// on a throwaway socket, cached). EpollServer shards its listeners
// across workers when true and falls back to one shared listener when
// not.
bool SoReusePortSupported();

struct ListenerOptions {
  bool nonblocking = false;  // SOCK_NONBLOCK on the listening socket.
  bool reuseport = false;    // Set SO_REUSEPORT before bind.
  int backlog = 64;
};

// Opens a TCP listener on 127.0.0.1:*port (0 = ephemeral; `*port` is
// updated to the bound port either way). SO_REUSEADDR is always set;
// with `reuseport` several listeners can bind the same port and the
// kernel shards accepts across them. Returns the listening fd; the
// caller owns it.
Result<int> OpenLoopbackListener(uint16_t* port,
                                 ListenerOptions options = {});

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_SOCKET_UTIL_H_
