// Blocking thread-per-connection shell over net::ConnectionCore. All
// connection lifecycle policy (limits, deadlines, dispatch, flush,
// drain) lives in the core; this file only owns sockets and threads.
#include "net/tcp.h"

#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "net/connection_core.h"
#include "net/socket_util.h"

namespace dynaprox::net {
namespace {

// Deadline-check granularity for connections with timing limits. Coarse on
// purpose: deadlines are hundreds of milliseconds and the tick only runs
// while a connection is quiet.
constexpr int kDeadlineTickMs = 25;

// Poll granularity when no timing limits apply. A connection thread still
// has to notice Stop(drain) while parked on a quiet socket, so the wait
// can never be unbounded; a coarse tick keeps the idle wakeup cost noise.
constexpr int kIdleTickMs = 100;

}  // namespace

TcpServer::TcpServer(Handler handler, uint16_t port, ServerLimits limits)
    : handler_(std::move(handler)),
      port_(port),
      limits_(limits),
      counters_(limits.counters != nullptr ? limits.counters
                                           : &own_counters_),
      gate_({&limits_, counters_, &live_connections_, &fd_exhausted_,
             "tcp"}) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  Result<int> fd = OpenLoopbackListener(&port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  running_.store(true);
  accept_thread_ = std::thread(&TcpServer::AcceptLoop, this);
  return Status::Ok();
}

void TcpServer::Stop(MicroTime drain_timeout_micros) {
  if (drain_timeout_micros <= 0) {
    Stop();
    return;
  }
  if (!running_.load()) return;
  draining_.store(true);
  // Stop accepting: shutting the listener down unblocks accept() with an
  // error, which ends AcceptLoop without flipping running_ — connection
  // threads keep serving what they already have.
  ::shutdown(listen_fd_, SHUT_RDWR);
  const Clock& clock = *SystemClock::Default();
  const MicroTime deadline = clock.NowMicros() + drain_timeout_micros;
  while (clock.NowMicros() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_fds_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  // Shut the listening socket down to unblock accept(). The fd variable
  // itself is only reset after the accept thread joins — AcceptLoop still
  // reads it until then.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  std::map<std::thread::id, std::thread> live;
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.swap(connection_threads_);
    finished.swap(finished_threads_);
    // Unblock connection threads parked in recv() on live keep-alive
    // connections; they observe EOF and exit.
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& [id, t] : live) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
  active_fds_.clear();
}

size_t TcpServer::connection_thread_handles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connection_threads_.size() + finished_threads_.size();
}

void TcpServer::ReapFinishedThreads() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_threads_);
  }
  // Joins are near-instant: each thread parked its handle as its last
  // locked action before returning.
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

void TcpServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      switch (gate_.OnAcceptFailure(errno)) {
        case AcceptGate::FailureAction::kRetry:
          continue;
        case AcceptGate::FailureAction::kNoneReady:
          continue;  // Not reachable on a blocking listener.
        case AcceptGate::FailureAction::kBackoff:
          // Back off so a sustained fd outage doesn't spin the thread.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        case AcceptGate::FailureAction::kFatal:
          break;  // Listener closed by Stop().
      }
      break;
    }
    // Join connection threads that finished since the last accept; handles
    // must not pile up for the lifetime of the server.
    ReapFinishedThreads();
    if (!gate_.Admit(fd, nullptr)) continue;
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load()) {
      gate_.OnConnectionClosed(nullptr);
      ::close(fd);
      break;
    }
    active_fds_.push_back(fd);
    // The new thread deregisters itself under mu_ (held here), so the
    // handle is always in the map before the thread can try to remove it.
    std::thread thread(&TcpServer::ServeConnection, this, fd);
    std::thread::id id = thread.get_id();
    connection_threads_.emplace(id, std::move(thread));
  }
}

void TcpServer::ServeConnection(int fd) {
  ConnectionCore core(ConnectionCore::Mode::kBlocking,
                      {&handler_, &limits_, counters_, nullptr, &draining_});
  if (limits_.write_stall_micros > 0) {
    // A client that stops reading its response stalls send(); bound it so
    // the thread (and its response buffer) cannot be held hostage. The
    // core maps the resulting EAGAIN to a write-stall close.
    timeval tv{};
    tv.tv_sec = limits_.write_stall_micros / kMicrosPerSecond;
    tv.tv_usec = limits_.write_stall_micros % kMicrosPerSecond;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  const Clock& clock = *SystemClock::Default();
  const bool timed = limits_.header_timeout_micros > 0 ||
                     limits_.idle_timeout_micros > 0;
  char buf[16 * 1024];
  while (running_.load()) {
    const bool draining = draining_.load();
    if (draining && core.idle()) {
      // Drain with no request in progress — unless request bytes are
      // already sitting unread in the socket buffer; those are a request
      // in flight, served below (and answered with Connection: close).
      int pending = 0;
      if (::ioctl(fd, FIONREAD, &pending) != 0 || pending == 0) break;
    }
    pollfd pfd{fd, POLLIN, 0};
    int ready =
        ::poll(&pfd, 1, (timed || draining) ? kDeadlineTickMs : kIdleTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const MicroTime now = clock.NowMicros();
    if (ready == 0) {
      if (core.CheckDeadlines(now) != ConnectionCore::Doom::kNone) break;
      continue;
    }
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      // Half-close: answer what is already buffered, then close.
      core.OnPeerEof();
      core.Service(fd);
      break;
    }
    core.OnBytes(std::string_view(buf, static_cast<size_t>(n)), now);
    if (core.Service(fd) != ConnectionCore::ServiceResult::kIdle) {
      // kClose: responses flushed (or the connection died); kBlocked is
      // impossible in blocking mode.
      break;
    }
  }
  core.AccountClose();
  {
    // Deregister before closing so Stop() never shuts down a reused fd.
    std::lock_guard<std::mutex> lock(mu_);
    active_fds_.erase(
        std::remove(active_fds_.begin(), active_fds_.end(), fd),
        active_fds_.end());
    // Park this thread's own handle for the accept loop (or Stop) to
    // join; keeping it in the live map would leak one dead handle per
    // connection ever served.
    auto self = connection_threads_.find(std::this_thread::get_id());
    if (self != connection_threads_.end()) {
      finished_threads_.push_back(std::move(self->second));
      connection_threads_.erase(self);
    }
  }
  gate_.OnConnectionClosed(nullptr);
  ::close(fd);
}

}  // namespace dynaprox::net
