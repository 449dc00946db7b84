#include "net/connection_pool.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string_view>
#include <thread>

#include "common/fault_point.h"
#include "common/strings.h"
#include "http/parser.h"
#include "net/blocking_scope.h"
#include "net/idempotency.h"
#include "net/socket_util.h"

namespace dynaprox::net {
namespace {

std::vector<double> WaitMicrosBounds() {
  std::vector<double> bounds =
      metrics::LatencyHistogram::DefaultLatencySecondsBounds();
  for (double& bound : bounds) bound *= kMicrosPerSecond;
  return bounds;
}

// True if the idle keep-alive connection is still usable: the peek sees
// no EOF and no unsolicited bytes (either would leave the HTTP framing
// state unknown).
bool IsConnectionLive(int fd) {
  char byte;
  ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n >= 0) return false;  // 0: EOF. >0: stray bytes from the server.
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

// One receive from `fd` into `reader`, behind the net.read fault point:
// the read step of both the head read and the body stream. Returns the
// byte count, 0 at end of stream. The wait for the peer is a
// BlockingScope, so an event loop running this handler can serve its
// other connections meanwhile.
Result<size_t> Receive(int fd, http::StreamingResponseReader& reader) {
  DYNAPROX_RETURN_IF_ERROR(
      chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.read")));
  char buf[16 * 1024];
  ssize_t n;
  {
    BlockingScope blocking;
    do {
      n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
  }
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    // SO_RCVTIMEO elapsed: fail fast, don't retry into another stall.
    return Status::IoError("receive timeout");
  }
  if (n < 0) return ErrnoStatus("recv");
  reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
  return static_cast<size_t>(n);
}

}  // namespace

ConnectionPool::ConnectionPool(std::string host, uint16_t port,
                               ConnectionPoolOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()),
      wait_micros_(WaitMicrosBounds()) {}

ConnectionPool::~ConnectionPool() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const IdleConn& conn : idle_) ::close(conn.fd);
  idle_.clear();
}

Result<int> ConnectionPool::Dial() {
  MicroTime backoff = options_.connect_retry.initial_backoff_micros;
  int attempts = options_.connect_retry.max_attempts < 1
                     ? 1
                     : options_.connect_retry.max_attempts;
  Status last = Status::Internal("unreachable");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      backoff *= 2;
    }
    if (Status injected =
            chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.connect"));
        !injected.ok()) {
      last = injected;  // Injected dial failure consumes a retry attempt.
      continue;
    }
    Result<int> fd = DialTcp(host_, port_, options_.io_timeout_micros);
    if (fd.ok()) return fd;
    last = fd.status();
  }
  return last;
}

int ConnectionPool::ReapIdleLocked(MicroTime now) {
  if (options_.idle_timeout_micros <= 0) return 0;
  int reaped = 0;
  // Oldest checkins sit at the front of the LIFO free list.
  while (!idle_.empty() &&
         idle_.front().idle_since + options_.idle_timeout_micros <= now) {
    ::close(idle_.front().fd);
    idle_.erase(idle_.begin());
    --open_;
    ++counters_.idle_reaped;
    ++reaped;
  }
  return reaped;
}

int ConnectionPool::ReapIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  return ReapIdleLocked(clock_->NowMicros());
}

Result<ConnectionPool::Connection> ConnectionPool::Checkout() {
  if (Status injected =
          chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.pool.checkout"));
      !injected.ok()) {
    return injected;
  }
  std::unique_lock<std::mutex> lock(mu_);
  const MicroTime wait_start = clock_->NowMicros();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(options_.checkout_timeout_micros);
  bool queued = false;
  bool waited = false;
  auto finish = [&](Connection conn) {
    if (queued) --waiters_;
    ++counters_.checkouts;
    if (waited) {
      wait_micros_.Observe(
          static_cast<double>(clock_->NowMicros() - wait_start));
    }
    return conn;
  };
  for (;;) {
    ReapIdleLocked(clock_->NowMicros());
    bool replaced_stale = false;
    while (!idle_.empty()) {
      IdleConn conn = idle_.back();
      idle_.pop_back();
      if (IsConnectionLive(conn.fd)) {
        return finish(Connection{conn.fd, /*fresh=*/false});
      }
      ::close(conn.fd);
      --open_;
      ++counters_.stale_closed;
      replaced_stale = true;
    }
    if (open_ < options_.max_connections) {
      ++open_;  // Reserve the slot while dialing outside the lock.
      lock.unlock();
      Result<int> fd = Dial();
      lock.lock();
      if (!fd.ok()) {
        --open_;
        ++counters_.connect_failures;
        if (queued) --waiters_;
        // The slot just freed may unblock another waiter.
        available_.notify_one();
        return fd.status();
      }
      ++counters_.connects;
      if (replaced_stale) ++counters_.reconnects;
      return finish(Connection{*fd, /*fresh=*/true});
    }
    // Saturated: join the bounded waiter queue.
    if (!queued) {
      if (waiters_ >= options_.max_waiters) {
        ++counters_.waiter_rejections;
        return Status::IoError("connection pool waiter queue full");
      }
      ++waiters_;
      queued = true;
    }
    waited = true;
    std::cv_status waited_out;
    {
      BlockingScope blocking;
      waited_out = available_.wait_until(lock, deadline);
    }
    if (waited_out == std::cv_status::timeout) {
      --waiters_;
      ++counters_.waiter_timeouts;
      wait_micros_.Observe(
          static_cast<double>(clock_->NowMicros() - wait_start));
      return Status::IoError("timed out waiting for an upstream connection");
    }
  }
}

void ConnectionPool::Checkin(Connection conn, bool reusable) {
  if (conn.fd < 0) return;
  if (reusable &&
      static_cast<bool>(chaos::ApplyDelay(
          DYNAPROX_FAULT_POINT("net.close")->Evaluate()))) {
    reusable = false;  // Injected close: the keep-alive connection dies.
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (reusable) {
    idle_.push_back({conn.fd, clock_->NowMicros()});
  } else {
    ::close(conn.fd);
    --open_;
  }
  available_.notify_one();
}

PoolStats ConnectionPool::stats() const {
  PoolStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = counters_;
    snapshot.open_connections = open_;
    snapshot.idle_connections = static_cast<int>(idle_.size());
    snapshot.wait_queue_depth = waiters_;
  }
  snapshot.wait_micros = wait_micros_.snapshot();  // Lock-free.
  return snapshot;
}

PooledClientTransport::PooledClientTransport(std::string host, uint16_t port,
                                             PooledTransportOptions options)
    : options_(std::move(options)),
      pool_(std::move(host), port, options_.pool) {}

// Body stream over one checked-out pooled connection. Draining to
// end-of-body checks the connection back in reusable (unless the server
// announced "Connection: close" or sent bytes past the body); a read
// error or early destruction checks it in non-reusable, which closes it.
class PooledClientTransport::StreamingBody : public http::BodyStream {
 public:
  StreamingBody(ConnectionPool* pool, ConnectionPool::Connection conn,
                http::StreamingResponseReader reader, bool reusable)
      : pool_(pool),
        conn_(conn),
        reader_(std::move(reader)),
        reusable_(reusable) {}

  ~StreamingBody() override {
    if (!finished_) pool_->Checkin(conn_, /*reusable=*/false);
  }

  Result<common::BufferChain> Next() override {
    if (finished_) return common::BufferChain();
    for (;;) {
      std::string bytes = reader_.TakeBody();
      if (!bytes.empty()) {
        if (reader_.body_complete()) Finish();
        common::BufferChain out;
        out.Append(common::MakeBuffer(std::move(bytes)));
        return out;
      }
      if (reader_.body_complete()) {
        Finish();
        return common::BufferChain();
      }
      Result<size_t> received = Receive(conn_.fd, reader_);
      if (!received.ok()) return Abort(received.status());
      if (*received == 0) {
        return Abort(Status::IoError("connection closed mid-response"));
      }
      if (reader_.failed()) return Abort(reader_.status());
    }
  }

 private:
  void Finish() {
    finished_ = true;
    pool_->Checkin(conn_, reusable_ && reader_.excess_bytes() == 0);
  }

  Status Abort(Status status) {
    finished_ = true;
    pool_->Checkin(conn_, /*reusable=*/false);
    return status;
  }

  ConnectionPool* pool_;
  ConnectionPool::Connection conn_;
  http::StreamingResponseReader reader_;
  bool reusable_;
  bool finished_ = false;
};

Result<StreamingResponse> PooledClientTransport::RoundTripStreaming(
    const http::Request& request) {
  const std::string wire = request.Serialize();
  for (int attempt = 0; attempt < 2; ++attempt) {
    Result<ConnectionPool::Connection> conn = pool_.Checkout();
    if (!conn.ok()) return conn.status();
    // Only a reused keep-alive connection failing before the response
    // starts is evidence of staleness; a fresh one failing is a hard
    // error.
    const bool stale_retry = !conn->fresh && attempt == 0;

    size_t sent = 0;
    Status write_status =
        chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.write"));
    if (write_status.ok()) write_status = SendAll(conn->fd, wire, &sent);
    if (!write_status.ok()) {
      pool_.Checkin(*conn, /*reusable=*/false);
      if (stale_retry &&
          SafeToRetry(request, sent, options_.non_idempotent_headers)) {
        continue;  // Stale keep-alive connection: one fresh retry.
      }
      return write_status;
    }

    http::StreamingResponseReader reader;
    for (;;) {
      if (auto head = reader.NextHead()) {
        if (!head->ok()) {
          pool_.Checkin(*conn, /*reusable=*/false);
          return head->status();
        }
        bool reusable = true;
        if (auto connection = head->value().headers.Get("Connection");
            connection.has_value() &&
            EqualsIgnoreCase(*connection, "close")) {
          reusable = false;
        }
        StreamingResponse streaming;
        streaming.head = std::move(head->value());
        streaming.body = std::make_unique<StreamingBody>(
            &pool_, *conn, std::move(reader), reusable);
        return streaming;
      }
      Result<size_t> received = Receive(conn->fd, reader);
      if (received.ok() && *received > 0) continue;
      pool_.Checkin(*conn, /*reusable=*/false);
      if (!received.ok()) return received.status();
      if (reader.buffered_bytes() != 0 || !stale_retry ||
          !SafeToRetry(request, wire.size(),
                       options_.non_idempotent_headers)) {
        return Status::IoError("connection closed mid-response");
      }
      break;  // Keep-alive closed before the head: retry once.
    }
  }
  return Status::IoError("could not complete round trip");
}

}  // namespace dynaprox::net
