#include "net/connection_core.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/fault_point.h"
#include "common/logging.h"
#include "common/strings.h"

namespace dynaprox::net {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// Unsent bytes queued while pumping a stream beyond which the pump
// pauses until the socket drains the backlog: a client reading slowly
// must not make the server buffer the whole streamed page after all.
// Non-blocking mode only — a blocking shell flushes fully between pulls.
constexpr size_t kStreamHighWater = 256 * 1024;

// True if the process can open one more descriptor: `fd` dups into a
// free slot, and the dup is closed again at once.
bool HasSpareDescriptor(int fd) {
  int probe = ::dup(fd);
  if (probe < 0) return false;
  ::close(probe);
  return true;
}

}  // namespace

ConnectionCore::ConnectionCore(Mode mode, const Env& env)
    : mode_(mode), env_(env) {
  reader_.set_limits(
      {env_.limits->max_header_bytes, env_.limits->max_body_bytes});
  // The idle deadline measures from accept until the first byte arrives,
  // then from the last activity.
  last_activity_ = SystemClock::Default()->NowMicros();
}

void ConnectionCore::Bump(std::atomic<uint64_t> IngressCounters::*field) {
  (env_.counters->*field).fetch_add(1, kRelaxed);
  if (env_.worker != nullptr) (env_.worker->*field).fetch_add(1, kRelaxed);
}

void ConnectionCore::OnBytes(std::string_view data, MicroTime now) {
  // A connection already marked close-after-flush (limit violation or
  // Connection: close) answers nothing further: drop the bytes so the
  // dead reader's buffer cannot grow.
  if (close_after_flush_) return;
  reader_.Feed(data);
  last_activity_ = now;
  if (read_start_ == 0) read_start_ = now;
}

void ConnectionCore::OnPeerEof() { peer_eof_ = true; }

ConnectionCore::ServiceResult ConnectionCore::Service(int fd) {
  const MicroTime now = SystemClock::Default()->NowMicros();
  for (;;) {
    if (stream_ == nullptr) DispatchBuffered(now);
    if (stream_ != nullptr) {
      FlushResult r = PumpStream(fd);
      if (r == FlushResult::kError) return ServiceResult::kClose;
      if (stream_ != nullptr || r == FlushResult::kBlocked) {
        // Paused on backpressure; write readiness resumes the pump.
        return ServiceResult::kBlocked;
      }
      continue;  // Stream done; pipelined requests may be parked behind.
    }
    FlushResult r = Flush(fd);
    if (r == FlushResult::kError) return ServiceResult::kClose;
    if (r == FlushResult::kBlocked) return ServiceResult::kBlocked;
    return close_after_flush_ ? ServiceResult::kClose : ServiceResult::kIdle;
  }
}

void ConnectionCore::DispatchBuffered(MicroTime now) {
  // Once close_after_flush_ is set nothing more may be dispatched — in
  // particular a failed reader must not be polled again, or every later
  // packet would re-count the same limit violation and queue a duplicate
  // error response.
  bool completed_request = false;
  while (!close_after_flush_ && stream_ == nullptr) {
    auto next = reader_.Next();
    if (!next.has_value()) break;
    if (!next->ok()) {
      http::Response bad =
          ResponseForReaderError(reader_.limit_violation(), next->status(),
                                 *env_.counters, env_.worker);
      out_.Append(bad.SerializeToChain());
      close_after_flush_ = true;
      break;
    }
    const http::Request& request = next->value();
    completed_request = true;
    http::Response response = DispatchAdmitted(
        *env_.handler, request, *env_.limits, *env_.counters, env_.worker);
    // Read the drain flag *after* the handler: a drain that began while
    // the handler ran still closes this connection with its response.
    if (env_.draining != nullptr &&
        env_.draining->load(std::memory_order_relaxed)) {
      // Finish this response, then close: new work goes elsewhere.
      close_after_flush_ = true;
      served_during_drain_ = true;
    }
    if (auto connection = request.headers.Get("Connection");
        connection.has_value() && EqualsIgnoreCase(*connection, "close")) {
      close_after_flush_ = true;
    }
    if (close_after_flush_) response.headers.Set("Connection", "close");
    if (response.body_stream != nullptr) {
      // Streamed response: queue the chunked head now; body chunks are
      // pumped by PumpStream. Later pipelined requests stay buffered
      // until the stream ends (responses must not interleave).
      out_.Append(
          common::MakeBuffer(http::SerializeStreamingHead(response)));
      stream_ = std::move(response.body_stream);
      continue;
    }
    out_.Append(response.SerializeToChain());
  }
  // Peer EOF closes the connection once everything dispatched above has
  // flushed — applied after the dispatch pass so requests buffered
  // before the EOF are still answered (half-close semantics).
  if (peer_eof_) close_after_flush_ = true;
  // The header deadline bounds total time from a message's first byte
  // to its completion, so a partial message must keep its original
  // read_start — restarting the clock per packet would let a slowloris
  // drip one byte per tick forever. The clock resets only on a clean
  // boundary, or restarts when leftover bytes begin a new pipelined
  // message.
  if (reader_.buffered_bytes() == 0) {
    read_start_ = 0;
  } else if (completed_request) {
    read_start_ = now;
  }
}

ConnectionCore::FlushResult ConnectionCore::Flush(int fd) {
  constexpr size_t kMaxIovecs = 64;  // Under any sane IOV_MAX.
  struct iovec iov[kMaxIovecs];
  while (out_offset_ < out_.size()) {
    size_t n_iov = out_.FillIovecs(out_offset_, iov, kMaxIovecs);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      out_offset_ += static_cast<size_t>(n);
      write_start_ = 0;  // Progress: restart the stall clock.
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (mode_ == Mode::kBlocking) {
        // Blocking shells bound each send with SO_SNDTIMEO; EAGAIN here
        // means the write-stall budget elapsed with no progress.
        Bump(&IngressCounters::write_stall_closes);
        return FlushResult::kError;
      }
      if (write_start_ == 0) {
        write_start_ = SystemClock::Default()->NowMicros();
      }
      return FlushResult::kBlocked;
    }
    return FlushResult::kError;
  }
  // Fully flushed: drop the slices (and their buffer references).
  out_.Clear();
  out_offset_ = 0;
  write_start_ = 0;
  return FlushResult::kFlushed;
}

ConnectionCore::FlushResult ConnectionCore::PumpStream(int fd) {
  for (;;) {
    FlushResult r = Flush(fd);
    if (r == FlushResult::kError) return r;
    if (stream_ == nullptr) return r;  // Final frame queued/flushed.
    if (r == FlushResult::kBlocked &&
        out_.size() - out_offset_ >= kStreamHighWater) {
      return FlushResult::kBlocked;  // Backpressure pauses the pull.
    }
    Result<common::BufferChain> chunk = stream_->Next();
    if (!chunk.ok()) {
      // Mid-body failure: abort so the client sees a truncated chunked
      // body, never a complete-looking response.
      return FlushResult::kError;
    }
    if (chunk->empty()) {
      http::AppendFinalChunkFrame(out_);
      stream_.reset();
      continue;  // Flush the final frame.
    }
    http::AppendChunkFrame(out_, std::move(*chunk));
  }
}

ConnectionCore::Doom ConnectionCore::CheckDeadlines(MicroTime now) {
  const ServerLimits& limits = *env_.limits;
  if (read_start_ != 0 && limits.header_timeout_micros > 0 &&
      now - read_start_ >= limits.header_timeout_micros) {
    // Slowloris: started a request, never finished it.
    Bump(&IngressCounters::header_timeouts);
    return Doom::kHeaderTimeout;
  }
  if (read_start_ == 0 && limits.idle_timeout_micros > 0 &&
      !HasPendingOutput() && stream_ == nullptr &&
      now - last_activity_ >= limits.idle_timeout_micros) {
    Bump(&IngressCounters::idle_timeouts);
    return Doom::kIdleTimeout;
  }
  if (write_start_ != 0 && limits.write_stall_micros > 0 &&
      now - write_start_ >= limits.write_stall_micros) {
    Bump(&IngressCounters::write_stall_closes);
    return Doom::kWriteStall;
  }
  return Doom::kNone;
}

void ConnectionCore::AccountClose() {
  if (served_during_drain_) Bump(&IngressCounters::drained_connections);
}

AcceptGate::FailureAction AcceptGate::OnAcceptFailure(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:  // Peer gave up; next one.
      return FailureAction::kRetry;
    case EAGAIN:
#if EAGAIN != EWOULDBLOCK
    case EWOULDBLOCK:
#endif
      return FailureAction::kNoneReady;
    case EMFILE:
    case ENFILE:
      // Fd exhaustion is an episode, not a fatal listener error: keep
      // the accept path alive, log/count once per *episode* — the latch
      // re-arms once an accept succeeds with a descriptor to spare (see
      // Admit), so a later outage is reported again rather than silenced
      // for the server's life.
      if (!env_.fd_exhausted->exchange(true)) {
        env_.counters->accept_fd_exhaustion_episodes.fetch_add(1, kRelaxed);
        DYNAPROX_LOG(kError, env_.log_tag)
            << "accept: " << std::strerror(err)
            << " (fd limit reached; dropping new connections)";
      }
      return FailureAction::kBackoff;
    default:
      return FailureAction::kFatal;
  }
}

bool AcceptGate::Admit(int fd, IngressCounters* worker) {
  // Accept works again: re-arm per-episode exhaustion reporting, but only
  // once a spare descriptor exists. The accept that ends an outage may
  // take the last free slot, and the accept after it then fails with
  // EMFILE even on an empty backlog — re-arming here would count that as
  // a second episode. A one-dup probe tells the two apart. The load
  // screens out the common case so the hot path stays write-free; the
  // exchange makes sure only one accepting thread logs the recovery.
  if (env_.fd_exhausted->load(kRelaxed) && HasSpareDescriptor(fd) &&
      env_.fd_exhausted->exchange(false)) {
    DYNAPROX_LOG(kInfo, env_.log_tag) << "accept: fd exhaustion cleared";
  }
  if (chaos::FaultDecision fault =
          chaos::ApplyDelay(DYNAPROX_FAULT_POINT("net.accept")->Evaluate())) {
    if (fault.action != chaos::FaultAction::kDelayMs) {
      // Injected accept failure: drop the connection before any
      // admission accounting, as if the kernel never delivered it.
      ::close(fd);
      return false;
    }
  }
  // Enforce the cap against this server's own count, not the exported
  // gauge: ServerLimits::counters may be shared across servers, and a
  // shared gauge would count foreign connections toward our cap.
  if (env_.limits->max_connections > 0 &&
      env_.live->load(kRelaxed) >= env_.limits->max_connections) {
    env_.counters->connection_limit_rejections.fetch_add(1, kRelaxed);
    if (worker != nullptr) {
      worker->connection_limit_rejections.fetch_add(1, kRelaxed);
    }
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  env_.counters->accepted_total.fetch_add(1, kRelaxed);
  env_.counters->open_connections.fetch_add(1, kRelaxed);
  if (worker != nullptr) {
    worker->accepted_total.fetch_add(1, kRelaxed);
    worker->open_connections.fetch_add(1, kRelaxed);
  }
  env_.live->fetch_add(1, kRelaxed);
  return true;
}

void AcceptGate::OnConnectionClosed(IngressCounters* worker) {
  env_.counters->open_connections.fetch_sub(1, kRelaxed);
  if (worker != nullptr) worker->open_connections.fetch_sub(1, kRelaxed);
  env_.live->fetch_sub(1, kRelaxed);
}

}  // namespace dynaprox::net
