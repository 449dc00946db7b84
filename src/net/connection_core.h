#ifndef DYNAPROX_NET_CONNECTION_CORE_H_
#define DYNAPROX_NET_CONNECTION_CORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "common/buffer_chain.h"
#include "common/clock.h"
#include "http/parser.h"
#include "net/server_limits.h"
#include "net/transport.h"

namespace dynaprox::net {

// The transport-agnostic connection lifecycle shared by TcpServer
// (blocking, thread-per-connection) and EpollServer (non-blocking event
// loops). One ConnectionCore per client connection: it accumulates
// request bytes, enforces the ServerLimits byte caps and deadlines,
// dispatches complete requests (pipelining supported) through the
// in-flight admission gate, queues responses in a BufferChain, and
// flushes them with vectored sendmsg resuming at the exact byte offset
// after partial writes. Streamed responses (Response::body_stream) are
// pumped chunk by chunk with a 256 KiB high-water mark in non-blocking
// mode.
//
// The core never owns the fd: it reads nothing and closes nothing. The
// shell feeds bytes in (OnBytes/OnPeerEof), asks the core to make
// progress (Service), and maps the verdict onto its transport — kClose
// closes the fd, kBlocked arms write-readiness (non-blocking shells
// only), kIdle waits for more input. Deadline policy lives here too
// (CheckDeadlines), so both shells reap slowloris, idle, and
// write-stalled connections under one set of rules.
//
// A core is never touched by two threads at once, and takes no locks:
// TcpServer gives each connection its own thread, and EpollServer hands a
// connection to one loop thread per event (one-shot registration) and
// keeps deadline sweeps and drain off it while that thread serves it. A
// handler the core calls may therefore block; if it does so inside a
// net::BlockingScope, the loop adds a thread (up to
// EpollServer::kMaxThreadsPerLoop) and serves its other connections
// meanwhile. A handler that never enters a scope — CPU-bound work such as
// the origin's page scripts — keeps its loop at one thread, serial.
//
// Mode differences are confined to Flush(): a blocking shell relies on
// SO_SNDTIMEO, so EAGAIN there means the write-stall deadline already
// expired (counted, connection doomed); a non-blocking shell gets
// kBlocked with the stall clock running and CheckDeadlines enforces the
// budget on later ticks.
class ConnectionCore {
 public:
  enum class Mode {
    kBlocking,     // Flush() completes or fails; EAGAIN = SO_SNDTIMEO expiry.
    kNonBlocking,  // Flush() may return kBlocked; shell arms write interest.
  };

  // Everything a connection needs from its server. `worker` is an
  // optional per-worker mirror: every counter the core bumps on
  // `counters` is bumped there too, so a multi-worker server's labeled
  // series sum to the shared totals by construction. `draining` is the
  // shell's drain flag, read *after* each handler return as well as
  // before dispatch — an in-flight request must notice a drain that
  // began while its handler ran, so its response still closes the
  // connection (and counts as drained).
  struct Env {
    const Handler* handler = nullptr;
    const ServerLimits* limits = nullptr;
    IngressCounters* counters = nullptr;
    IngressCounters* worker = nullptr;
    const std::atomic<bool>* draining = nullptr;
  };

  ConnectionCore(Mode mode, const Env& env);

  ConnectionCore(const ConnectionCore&) = delete;
  ConnectionCore& operator=(const ConnectionCore&) = delete;

  // Feeds received bytes. A connection already marked close-after-flush
  // (limit violation, Connection: close, peer EOF) answers nothing
  // further: the bytes are dropped so the dead reader's buffer cannot
  // grow. `now` stamps last-activity and starts the header-deadline
  // clock on a message's first byte.
  void OnBytes(std::string_view data, MicroTime now);

  // Peer half-closed its sending side. Buffered pipelined requests are
  // still served and pending output still flushes; the connection closes
  // once everything queued has gone out.
  void OnPeerEof();

  // Drain: close as soon as the queued response bytes (and any active
  // stream) finish flushing. Used for connections that already have a
  // response in flight when drain begins; an idle connection is simply
  // closed, and one mid-request closes after its response via the
  // `draining` flag on Service().
  void RequestCloseAfterFlush() { close_after_flush_ = true; }

  enum class ServiceResult {
    kIdle,     // All caught up; wait for more input.
    kBlocked,  // Output pending on a full socket (non-blocking mode only).
    kClose,    // Connection is done (or dead); shell must close the fd.
  };

  // Makes all possible progress: dispatches every complete buffered
  // request, pumps the active streamed response, and flushes queued
  // bytes to `fd`. While Env::draining reads true, a dispatched response
  // is the connection's last (answered with "Connection: close").
  ServiceResult Service(int fd);

  enum class Doom { kNone, kHeaderTimeout, kIdleTimeout, kWriteStall };

  // Deadline policy, identical for both shells: a started request must
  // complete within the header budget (slowloris), an idle keep-alive
  // connection with nothing pending is reaped at the idle deadline, and
  // pending output that makes no progress for the write-stall budget
  // (client stopped reading) dooms the connection. Counts the violation;
  // any verdict but kNone means the shell must close the fd.
  Doom CheckDeadlines(MicroTime now);

  // No request in progress, nothing queued, no active stream. Drain
  // closes idle connections immediately.
  bool idle() const {
    return read_start_ == 0 && !HasPendingOutput() && stream_ == nullptr &&
           reader_.buffered_bytes() == 0;
  }

  bool close_after_flush() const { return close_after_flush_; }
  bool has_pending_output() const { return HasPendingOutput(); }
  bool has_stream() const { return stream_ != nullptr; }

  // Counts this connection toward drained_connections if it completed a
  // request during drain. Call exactly once, when the shell closes the
  // connection.
  void AccountClose();

 private:
  enum class FlushResult { kFlushed, kBlocked, kError };

  void Bump(std::atomic<uint64_t> IngressCounters::*field);
  bool HasPendingOutput() const { return out_offset_ < out_.size(); }

  // Dispatches every complete buffered request until a streamed response
  // pauses the pipeline or the requests run out, then applies the
  // header-deadline reset rule (see the comment in the implementation).
  void DispatchBuffered(MicroTime now);

  // Flushes as much of out_ as `fd` accepts (vectored, offset-resumed).
  FlushResult Flush(int fd);

  // Advances an active streamed response: pulls body chunks and flushes
  // between pulls, so head bytes reach the socket while the tail is
  // still being produced. In non-blocking mode the pull pauses once the
  // unsent backlog passes kStreamHighWater until the socket drains. A
  // body-stream error is kError: the connection closes with a truncated
  // chunked body on the wire, never a complete-looking response.
  FlushResult PumpStream(int fd);

  const Mode mode_;
  const Env env_;
  http::RequestReader reader_;
  common::BufferChain out_;  // Slices pending write (shared buffers).
  size_t out_offset_ = 0;    // Bytes of out_ already sent.
  bool close_after_flush_ = false;
  bool served_during_drain_ = false;
  // Peer half-closed; promoted to close_after_flush_ after the next
  // dispatch pass so already-buffered pipelined requests still answer.
  bool peer_eof_ = false;
  // Active streamed response body; while set, the head is already in
  // out_ and further pipelined dispatch waits for the stream to end.
  std::shared_ptr<http::BodyStream> stream_;
  // 0 = no request in progress; otherwise when its first bytes arrived.
  MicroTime read_start_ = 0;
  MicroTime last_activity_ = 0;
  // 0 = nothing pending; otherwise when out_ started waiting (the
  // write-stall clock, non-blocking mode).
  MicroTime write_start_ = 0;
};

// Admission control shared by both shells' accept paths: accept-failure
// triage (EMFILE/ENFILE episode accounting included), the `net.accept`
// chaos fault point, the connection cap, TCP_NODELAY, and the accept
// gauges. One instance per server; both the blocking accept thread and
// every epoll worker drive the same gate.
class AcceptGate {
 public:
  struct Env {
    const ServerLimits* limits = nullptr;
    IngressCounters* counters = nullptr;
    // The server's private open-connection count. The cap is enforced
    // against this, never against the (possibly shared) IngressCounters
    // gauge — a shared gauge would count foreign connections toward our
    // cap.
    std::atomic<int64_t>* live = nullptr;
    // EMFILE/ENFILE episode latch: set once per sustained outage,
    // re-armed by the next successful accept that leaves a descriptor
    // to spare.
    std::atomic<bool>* fd_exhausted = nullptr;
    const char* log_tag = "net";
  };

  explicit AcceptGate(const Env& env) : env_(env) {}

  enum class FailureAction {
    kRetry,      // Transient (EINTR/ECONNABORTED): accept again now.
    kNoneReady,  // EAGAIN/EWOULDBLOCK: backlog drained (non-blocking).
    kBackoff,    // EMFILE/ENFILE episode: pause before retrying.
    kFatal,      // Listener is gone (Stop/drain) or unrecoverable.
  };

  // Triage for a failed accept(); counts/logs fd-exhaustion episodes.
  FailureAction OnAcceptFailure(int err);

  // Admission for a freshly accepted fd: evaluates the `net.accept`
  // fault point (error drops the connection, delay-ms stalls the accept
  // path), enforces the connection cap, sets TCP_NODELAY, and bumps the
  // accept gauges (mirrored into `worker` when set). Returns false when
  // the connection was rejected — the fd is already closed.
  bool Admit(int fd, IngressCounters* worker);

  // Reverses Admit's gauges when a connection ends.
  void OnConnectionClosed(IngressCounters* worker);

 private:
  const Env env_;
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_CONNECTION_CORE_H_
