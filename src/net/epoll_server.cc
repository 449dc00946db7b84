// Non-blocking epoll shell over net::ConnectionCore. All connection
// lifecycle policy (limits, deadlines, dispatch, flush, drain
// transitions) lives in the core; the workers here own sockets, epoll
// interest sets, their threads, and the listener-sharding / drain
// choreography.
#include "net/epoll_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <system_error>
#include <vector>

#include "common/logging.h"
#include "net/blocking_scope.h"
#include "net/socket_util.h"

namespace dynaprox::net {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// epoll_wait timeout used when any deadline limit is configured (or a
// drain is in progress); otherwise the loop blocks indefinitely as before.
constexpr int kDeadlineTickMs = 25;

// Events one thread takes per epoll_wait.
constexpr int kMaxEvents = 64;

// Listener setup lives in socket_util (shared with TcpServer); only the
// backlog and flags differ per shell.
Result<int> OpenListener(bool reuseport, uint16_t* port) {
  ListenerOptions options;
  options.nonblocking = true;
  options.reuseport = reuseport;
  options.backlog = 256;
  return OpenLoopbackListener(port, options);
}

// The epoll data of an event: the connection's serial in the high half,
// its descriptor in the low half, so an event still queued for a closed
// connection is never applied to a later one that reuses the descriptor.
// The listener, stop and drain descriptors carry serial 0.
uint64_t EventTag(int fd, uint32_t serial) {
  return (uint64_t{serial} << 32) | static_cast<uint32_t>(fd);
}
int TagFd(uint64_t tag) { return static_cast<int>(tag & 0xffffffffu); }
uint32_t TagSerial(uint64_t tag) { return static_cast<uint32_t>(tag >> 32); }

}  // namespace

// One event loop: owns an epoll instance, every connection accepted on
// it, and (when listener sharding is active) its own SO_REUSEPORT
// listening socket. It starts with one thread and adds one, up to
// kMaxThreadsPerLoop, only when every thread it has is inside a
// BlockingScope. Connections are registered one-shot, so each event
// hands its connection to exactly one thread, which re-arms it when done.
// A thread claims the connections of its whole epoll batch at once; a
// claimed connection is `owned` until the thread has served its event or
// handed it back, and deadline sweeps and drain leave it to that thread.
// `mu_` guards the connection map and the thread list.
class EpollServer::Worker : public BlockingScope::Listener {
 public:
  Worker(EpollServer* server, int listen_fd, bool owns_listener,
         IngressCounters* mirror)
      : server_(server),
        listen_fd_(listen_fd),
        owns_listener_(owns_listener),
        mirror_(mirror) {}

  ~Worker() override {
    for (auto& [fd, conn] : connections_) {
      server_->gate_.OnConnectionClosed(mirror_);
      ::close(fd);
    }
    if (owns_listener_ && listen_fd_ >= 0) ::close(listen_fd_);
    if (drain_fd_ >= 0) ::close(drain_fd_);
    if (stop_fd_ >= 0) ::close(stop_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Status Init() {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
    stop_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (stop_fd_ < 0) return ErrnoStatus("eventfd");
    drain_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (drain_fd_ < 0) return ErrnoStatus("eventfd");

    // The listener, stop and drain fds stay level-triggered: every thread
    // of the loop sees them while they are ready. An owned SO_REUSEPORT
    // listener has exactly one loop, so EPOLLEXCLUSIVE only matters for
    // the shared-listener fallback (without it every worker would wake
    // per connection).
    epoll_event listen_event{};
    listen_event.events =
        owns_listener_ ? EPOLLIN : (EPOLLIN | EPOLLEXCLUSIVE);
    listen_event.data.u64 = EventTag(listen_fd_, 0);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) <
        0) {
      return ErrnoStatus("epoll_ctl(listen)");
    }
    epoll_event stop_event{};
    stop_event.events = EPOLLIN;
    stop_event.data.u64 = EventTag(stop_fd_, 0);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &stop_event) < 0) {
      return ErrnoStatus("epoll_ctl(stop)");
    }
    epoll_event drain_event{};
    drain_event.events = EPOLLIN;
    drain_event.data.u64 = EventTag(drain_fd_, 0);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, drain_fd_, &drain_event) < 0) {
      return ErrnoStatus("epoll_ctl(drain)");
    }
    return Status::Ok();
  }

  // Starts the loop's first thread; false if the system refused it.
  bool Start() {
    std::lock_guard<std::mutex> lock(mu_);
    return AddThreadLocked();
  }

  void RequestStop() {
    uint64_t one = 1;
    ssize_t n = ::write(stop_fd_, &one, sizeof(one));
    (void)n;
  }

  void RequestDrain() {
    uint64_t one = 1;
    ssize_t n = ::write(drain_fd_, &one, sizeof(one));
    (void)n;
  }

  // Joins every thread the loop ever ran, added ones included; a thread
  // still inside a handler is joined when the handler returns. Call after
  // RequestStop.
  void Join() {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      threads.swap(threads_);
    }
    for (std::thread& thread : threads) thread.join();
  }

  int thread_count() const { return thread_count_.load(); }

  // BlockingScope::Listener, on a thread of this loop. The thread hands
  // back the events it has not handled (re-arming them, so another thread
  // takes them) and, if every thread is now blocked, the loop grows.
  void OnBlock() override {
    const int blocked = blocked_.fetch_add(1) + 1;
    Batch* batch = thread_batch_;
    const bool handback = batch != nullptr && batch->next < batch->count;
    if (!handback && blocked < thread_count_.load()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (handback) {
      for (int i = batch->next; i < batch->count; ++i) {
        if (Connection* conn = batch->claimed[i]; conn != nullptr) {
          conn->owned = false;
          RearmLocked(TagFd(batch->events[i].data.u64));
        }
      }
      batch->count = batch->next;
    }
    if (blocked_.load() >= thread_count_.load() &&
        thread_count_.load() < kMaxThreadsPerLoop && !stopping_) {
      AddThreadLocked();
    }
  }

  void OnUnblock() override { blocked_.fetch_sub(1); }

 private:
  struct Connection {
    explicit Connection(const ConnectionCore::Env& env)
        : core(ConnectionCore::Mode::kNonBlocking, env) {}
    ConnectionCore core;
    uint32_t interest = EPOLLIN;  // Interest re-armed after each event.
    uint32_t serial = 0;          // Its events' EventTag serial.
    bool peer_eof = false;
    bool owned = false;  // Claimed by a thread (its event is disarmed).
  };
  // The events a loop thread took from its last epoll_wait and has not
  // handled yet, with the connection each one claimed (null for a stale
  // event and for the listener, stop and drain descriptors). A handler
  // that blocks hands the rest back (OnBlock).
  struct Batch {
    epoll_event events[kMaxEvents];
    Connection* claimed[kMaxEvents];
    int next = 0;
    int count = 0;
  };
  static inline thread_local Batch* thread_batch_ = nullptr;
  using ConnectionMap = std::map<int, Connection>;
  // Closed connections, destroyed only after mu_ is released: destroying
  // a core can run handler code (a streamed body's destructor), which
  // must never run under the loop's lock. Declare before the lock guard.
  using Graveyard = std::vector<ConnectionMap::node_type>;

  // False when the system refuses another thread: the loop then keeps
  // the threads it has, and a handler in a scope still just waits.
  bool AddThreadLocked() {
    thread_count_.fetch_add(1);
    try {
      threads_.emplace_back([this] { Run(); });
    } catch (const std::system_error& error) {
      thread_count_.fetch_sub(1);
      DYNAPROX_LOG(kWarning, "epoll")
          << "could not add a loop thread: " << error.what();
      return false;
    }
    return true;
  }

  void Run() {
    BlockingScope::SetThreadListener(this);
    Batch batch;
    thread_batch_ = &batch;
    const ServerLimits& limits = server_->limits_;
    const bool timed = limits.header_timeout_micros > 0 ||
                       limits.idle_timeout_micros > 0 ||
                       limits.write_stall_micros > 0;
    for (;;) {
      int timeout_ms = (timed || draining_.load()) ? kDeadlineTickMs : -1;
      int n = ::epoll_wait(epoll_fd_, batch.events, kMaxEvents, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      // The drain event is deferred to the end of the batch: accepts and
      // reads fetched in the same epoll_wait round represent work that
      // arrived before the drain, so it is served rather than refused.
      bool drain_requested = false;
      batch.count = n;
      ClaimBatch(batch);
      for (batch.next = 0; batch.next < batch.count;) {
        const int i = batch.next++;
        const uint64_t tag = batch.events[i].data.u64;
        const int fd = TagFd(tag);
        if (Connection* conn = batch.claimed[i]; conn != nullptr) {
          OnConnectionEvent(fd, *conn, batch.events[i].events);
        } else if (TagSerial(tag) != 0) {
          // A stale event: another thread serves or closed its connection.
        } else if (fd == stop_fd_) {
          thread_batch_ = nullptr;
          return;
        } else if (fd == drain_fd_) {
          drain_requested = true;
        } else if (fd == listen_fd_) {
          AcceptReady();
        }
      }
      if (drain_requested) BeginDrain();
      if (timed) SweepDeadlines();
      if (draining_.load()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (connections_.empty()) break;
      }
    }
    thread_batch_ = nullptr;
  }

  // Claims, under one lock, the connection of each event in `batch` that
  // is still the one the event was queued for and that no other thread
  // owns, so no other thread's sweep or drain can close a connection
  // whose event this batch still holds.
  void ClaimBatch(Batch& batch) {
    bool any = false;
    for (int i = 0; i < batch.count; ++i) {
      batch.claimed[i] = nullptr;
      any = any || TagSerial(batch.events[i].data.u64) != 0;
    }
    if (!any) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < batch.count; ++i) {
      const uint64_t tag = batch.events[i].data.u64;
      if (TagSerial(tag) == 0) continue;
      auto it = connections_.find(TagFd(tag));
      if (it == connections_.end() || it->second.serial != TagSerial(tag) ||
          it->second.owned) {
        continue;
      }
      it->second.owned = true;
      batch.claimed[i] = &it->second;
    }
  }

  void AcceptReady() {
    for (;;) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        switch (server_->gate_.OnAcceptFailure(errno)) {
          case AcceptGate::FailureAction::kRetry:
            continue;
          case AcceptGate::FailureAction::kNoneReady:
            return;  // Backlog drained.
          case AcceptGate::FailureAction::kBackoff:
            // Episode counted by the gate; the level-triggered listener
            // re-notifies once fds free up.
            return;
          case AcceptGate::FailureAction::kFatal:
            // A drain on another thread may have just shut the listener.
            if (!draining_.load()) {
              DYNAPROX_LOG(kWarning, "epoll")
                  << "accept4: " << std::strerror(errno);
            }
            return;
        }
      }
      if (!server_->gate_.Admit(fd, mirror_)) continue;
      std::lock_guard<std::mutex> lock(mu_);
      // Registered under the lock, after the map entry exists, so the
      // thread that takes its first event finds the connection.
      auto [it, inserted] = connections_.try_emplace(
          fd,
          ConnectionCore::Env{&server_->handler_, &server_->limits_,
                              server_->counters_, mirror_,
                              &server_->draining_});
      (void)inserted;
      if (++next_serial_ == 0) next_serial_ = 1;  // 0 tags the loop's fds.
      it->second.serial = next_serial_;
      epoll_event event{};
      event.events = EPOLLIN | EPOLLONESHOT;
      event.data.u64 = EventTag(fd, it->second.serial);
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
        connections_.erase(it);
        server_->gate_.OnConnectionClosed(mirror_);
        ::close(fd);
        continue;
      }
      server_->accepted_.fetch_add(1, kRelaxed);
    }
  }

  // Closes an unowned (or just released) connection and moves it to
  // `dead`. Caller holds mu_.
  void CloseLocked(ConnectionMap::iterator it, Graveyard& dead) {
    const int fd = it->first;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    it->second.core.AccountClose();
    dead.push_back(connections_.extract(it));
    server_->gate_.OnConnectionClosed(mirror_);
  }

  // Re-arms `fd`'s one-shot event with its current interest, unless it is
  // no connection of this loop (listener, stop, drain: level-triggered,
  // still pending) or another thread owns it (that thread re-arms it).
  // Caller holds mu_.
  void RearmLocked(int fd) {
    auto it = connections_.find(fd);
    if (it == connections_.end() || it->second.owned) return;
    epoll_event event{};
    event.events = it->second.interest | EPOLLONESHOT;
    event.data.u64 = EventTag(fd, it->second.serial);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
  }

  // The drain rule for one connection nobody is serving: an idle one
  // closes now, one with a response queued or streaming closes once it
  // flushes. Returns true when it was closed. Caller holds mu_.
  bool DrainLocked(ConnectionMap::iterator it, Graveyard& dead) {
    Connection& conn = it->second;
    if (conn.core.idle()) {
      // A connection can look idle while request bytes sit unread in
      // the socket buffer (its EPOLLIN event races the drain event).
      // Those bytes are a request in flight: leave the connection, the
      // still-armed EPOLLIN serves it, and the drain flag closes it
      // with its response.
      int pending = 0;
      if (::ioctl(it->first, FIONREAD, &pending) == 0 && pending > 0) {
        return false;
      }
      CloseLocked(it, dead);
      return true;
    }
    if (conn.core.has_pending_output() || conn.core.has_stream()) {
      // A connection mid-request instead closes after its response is
      // dispatched (the draining flag on Service).
      conn.core.RequestCloseAfterFlush();
    }
    return false;
  }

  // Drain: stop accepting on this loop, reap idle keep-alive connections,
  // and let busy ones run to completion (their next response closes them).
  // A connection another thread is serving gets the same rule when that
  // thread releases it.
  void BeginDrain() {
    uint64_t value = 0;
    ssize_t n = ::read(drain_fd_, &value, sizeof(value));
    (void)n;
    Graveyard dead;
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.exchange(true)) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    if (owns_listener_) {
      // Leaving the listening state takes this worker out of the
      // kernel's SO_REUSEPORT shard set, so no connection can rot in its
      // private accept queue while the drain runs. The fd stays open
      // until the worker is destroyed, so another thread still in
      // AcceptReady cannot accept on a reused descriptor number.
      ::shutdown(listen_fd_, SHUT_RD);
    }
    // The shared fallback listener stays open (other workers are
    // deregistering it too); the server closes it in Stop().
    for (auto it = connections_.begin(); it != connections_.end();) {
      auto next = std::next(it);
      if (!it->second.owned) DrainLocked(it, dead);
      it = next;
    }
  }

  // Enforces the header, idle, and write-stall deadlines across this
  // loop's unowned connections (policy in ConnectionCore::CheckDeadlines).
  // Runs after each batch, so at least every kDeadlineTickMs.
  void SweepDeadlines() {
    const MicroTime now = SystemClock::Default()->NowMicros();
    Graveyard dead;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      auto next = std::next(it);
      if (!it->second.owned &&
          it->second.core.CheckDeadlines(now) != ConnectionCore::Doom::kNone) {
        CloseLocked(it, dead);
      }
      it = next;
    }
  }

  // Runs the core and maps its verdict onto the interest to re-arm.
  // Returns false when the connection must close.
  bool Drive(int fd, Connection& conn) {
    switch (conn.core.Service(fd)) {
      case ConnectionCore::ServiceResult::kClose:
        return false;
      case ConnectionCore::ServiceResult::kBlocked:
        // After peer EOF the fd stays readable forever (level-
        // triggered), so watch only EPOLLOUT until the flush finishes.
        conn.interest = conn.peer_eof ? EPOLLOUT : (EPOLLIN | EPOLLOUT);
        return true;
      case ConnectionCore::ServiceResult::kIdle:
        conn.interest = EPOLLIN;
        return true;
    }
    return true;
  }

  // Serves one event on a connection this thread owns. Returns false
  // when the connection must close.
  bool Serve(int fd, Connection& conn, uint32_t events) {
    if (events & (EPOLLHUP | EPOLLERR)) return false;
    if (events & EPOLLOUT) {
      // Backlog drained: flush, and let a paused stream (plus pipelined
      // requests parked behind it) resume.
      if (!Drive(fd, conn)) return false;
    }
    if ((events & EPOLLIN) == 0) return true;

    const MicroTime now = SystemClock::Default()->NowMicros();
    char buf[16 * 1024];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.core.OnBytes(std::string_view(buf, static_cast<size_t>(n)),
                          now);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) {
        // Half-close: the client is done sending but may still be
        // reading. Buffered pipelined requests are served and pending
        // output flushes before the close (core handles the ordering).
        conn.peer_eof = true;
        conn.core.OnPeerEof();
        break;
      }
      return false;  // Hard error.
    }
    return Drive(fd, conn);
  }

  // Serves one event of a connection this thread claimed (ClaimBatch),
  // then releases it.
  void OnConnectionEvent(int fd, Connection& conn, uint32_t events) {
    // Map nodes are stable, and nobody else erases an owned connection.
    const bool keep = Serve(fd, conn, events);
    Graveyard dead;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = connections_.find(fd);
    conn.owned = false;
    if (!keep) {
      CloseLocked(it, dead);
      return;
    }
    if (draining_.load() && DrainLocked(it, dead)) return;
    RearmLocked(fd);
  }

  EpollServer* server_;
  const int listen_fd_;
  const bool owns_listener_;
  IngressCounters* const mirror_;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;
  int drain_fd_ = -1;
  // Loop-local drain state (listener released, idle conns reaped). The
  // flag the cores read is the server-level EpollServer::draining_.
  std::atomic<bool> draining_{false};
  // Threads inside a BlockingScope, and threads started.
  std::atomic<int> blocked_{0};
  std::atomic<int> thread_count_{0};
  mutable std::mutex mu_;
  ConnectionMap connections_;              // Guarded by mu_.
  std::vector<std::thread> threads_;       // Guarded by mu_.
  bool stopping_ = false;                  // Guarded by mu_.
  uint32_t next_serial_ = 0;               // Guarded by mu_.
};

EpollServer::EpollServer(Handler handler, uint16_t port, int num_workers,
                         ServerLimits limits)
    : handler_(std::move(handler)),
      port_(port),
      requested_workers_(num_workers < 1 ? 1 : num_workers),
      limits_(limits),
      counters_(limits.counters != nullptr ? limits.counters
                                           : &own_counters_),
      gate_({&limits_, counters_, &live_connections_, &accept_fd_exhausted_,
             "epoll"}) {
  if (limits_.worker_counters != nullptr &&
      limits_.worker_counter_count >= requested_workers_) {
    worker_counters_ = limits_.worker_counters;
  } else {
    own_worker_counters_ =
        std::make_unique<IngressCounters[]>(requested_workers_);
    worker_counters_ = own_worker_counters_.get();
  }
}

EpollServer::~EpollServer() { Stop(); }

Status EpollServer::Start() {
  // Listener sharding: with several workers and SO_REUSEPORT available,
  // every worker gets its own listener on the shared port and the kernel
  // distributes accepts. Otherwise (single worker, or kernels/sandboxes
  // without the option) all workers share one listener armed with
  // EPOLLEXCLUSIVE — same worker count, one accept queue.
  reuseport_ = requested_workers_ > 1 && SoReusePortSupported();
  if (requested_workers_ > 1 && !reuseport_) {
    DYNAPROX_LOG(kWarning, "epoll")
        << "SO_REUSEPORT unavailable; " << requested_workers_
        << " workers fall back to one shared listener (EPOLLEXCLUSIVE)";
  }
  std::vector<int> listeners;
  if (reuseport_) {
    for (int i = 0; i < requested_workers_; ++i) {
      // The first bind resolves an ephemeral port; the rest join it.
      Result<int> fd = OpenListener(/*reuseport=*/true, &port_);
      if (!fd.ok()) {
        for (int open : listeners) ::close(open);
        return fd.status();
      }
      listeners.push_back(*fd);
    }
  } else {
    Result<int> fd = OpenListener(/*reuseport=*/false, &port_);
    if (!fd.ok()) return fd.status();
    listen_fd_ = *fd;
  }

  running_.store(true);
  for (int i = 0; i < requested_workers_; ++i) {
    const int lfd = reuseport_ ? listeners[i] : listen_fd_;
    workers_.push_back(std::make_unique<Worker>(this, lfd, reuseport_,
                                                &worker_counters_[i]));
    Status init = workers_.back()->Init();
    if (!init.ok()) {
      // Workers own their listeners (closed by their destructors); only
      // the ones not yet handed over need closing here.
      for (int j = i + 1; j < static_cast<int>(listeners.size()); ++j) {
        ::close(listeners[j]);
      }
      workers_.clear();
      running_.store(false);
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      return init;
    }
  }
  for (auto& worker : workers_) {
    if (!worker->Start()) {
      Stop();
      return Status::Internal("could not start an event loop thread");
    }
  }
  return Status::Ok();
}

void EpollServer::Stop(MicroTime drain_timeout_micros) {
  if (drain_timeout_micros <= 0) {
    Stop();
    return;
  }
  if (!running_.load()) return;
  // Visible to every ConnectionCore immediately: a handler already
  // running when the drain begins still closes its connection with the
  // response it returns.
  draining_.store(true);
  for (auto& worker : workers_) worker->RequestDrain();
  const Clock& clock = *SystemClock::Default();
  const MicroTime deadline = clock.NowMicros() + drain_timeout_micros;
  while (clock.NowMicros() < deadline &&
         live_connections_.load(kRelaxed) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
}

int EpollServer::thread_count() const {
  int threads = 0;
  for (const auto& worker : workers_) threads += worker->thread_count();
  return threads;
}

void EpollServer::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& worker : workers_) worker->RequestStop();
  for (auto& worker : workers_) worker->Join();
  workers_.clear();  // Destructors close owned (sharded) listeners.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace dynaprox::net
