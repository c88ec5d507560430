#include "net/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <sstream>

#include "util/error.hpp"

namespace qulrb::net {

namespace {

// Written by the handler, read by every server thread: a lock-free atomic
// is both async-signal-safe and a cross-thread synchronisation point.
std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void on_signal(int signum) {
  g_signal.store(signum, std::memory_order_relaxed);
}

void set_timeout(int fd, int option, double ms) {
  const auto us = static_cast<long>(ms * 1000.0);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(us / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(us % 1000000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// Every socket the serving tier connects, binds or accepts goes through
/// here. TCP_NODELAY: a small line held back until the peer's delayed ACK
/// costs tens of ms per request. The timeouts bound blocking reads and sends.
void set_options(int fd, double recv_timeout_ms, double send_timeout_ms) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_timeout(fd, SO_RCVTIMEO, recv_timeout_ms);
  set_timeout(fd, SO_SNDTIMEO, send_timeout_ms);
}

}  // namespace

std::vector<BackendAddress> parse_backend_list(const std::string& csv) {
  std::vector<BackendAddress> out;
  std::istringstream in(csv);
  for (std::string item; std::getline(in, item, ',');) {
    if (item.empty()) continue;
    BackendAddress addr;
    const std::size_t colon = item.rfind(':');
    try {
      if (colon != std::string::npos) addr.host = item.substr(0, colon);
      addr.port = std::stoi(colon == std::string::npos ? item
                                                       : item.substr(colon + 1));
    } catch (const std::exception&) {
      throw util::InvalidArgument("bad backend '" + item +
                                  "' (want PORT or HOST:PORT)");
    }
    util::require(addr.port > 0 && addr.port < 65536,
                  "bad backend port in '" + item + "'");
    out.push_back(std::move(addr));
  }
  util::require(!out.empty(), "backend list is empty");
  return out;
}

LineReader::Status LineReader::next(std::string& line) {
  while (true) {
    const std::size_t nl = buffer_.find('\n', start_ + scan_);
    if (nl != std::string::npos) {
      if (nl - start_ > max_line_) return Status::kTooLong;
      const std::size_t end =
          nl > start_ && buffer_[nl - 1] == '\r' ? nl - 1 : nl;
      line.assign(buffer_, start_, end - start_);
      start_ = nl + 1;
      scan_ = 0;
      if (line.empty()) continue;
      return Status::kLine;
    }
    scan_ = buffer_.size() - start_;
    if (scan_ > max_line_) return Status::kTooLong;
    buffer_.erase(0, start_);
    start_ = 0;

    if (poll_ms_ > 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, poll_ms_);
      if (ready == 0 || (ready < 0 && errno == EINTR)) return Status::kTimeout;
      if (ready < 0) return Status::kEof;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR
                 ? Status::kTimeout
                 : Status::kEof;
    }
    if (n == 0) return Status::kEof;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

LineReader::Status serve_lines(
    LineReader& reader, const std::atomic<bool>& stop,
    const std::function<bool(const std::string&)>& on_line) {
  std::string line;
  while (!stop.load(std::memory_order_relaxed) && !signalled()) {
    const LineReader::Status status = reader.next(line);
    if (status == LineReader::Status::kTimeout) continue;
    if (status != LineReader::Status::kLine) return status;
    if (!on_line(line)) break;
  }
  return LineReader::Status::kLine;
}

bool send_line(int fd, std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line).push_back('\n');
  for (std::size_t sent = 0; sent < framed.size();) {
    const ssize_t n =
        ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // a signal must not tear a line
    if (n <= 0) return false;  // EPIPE, timeout (EAGAIN), EBADF, ...
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int connect_tcp(const BackendAddress& addr, double recv_timeout_ms,
                double send_timeout_ms) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(addr.port));
  if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_options(fd, recv_timeout_ms, send_timeout_ms);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TcpServer::TcpServer(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  util::require(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // The receive timeout wakes accept() every kRecvPollMs, so serve() sees a
  // shutdown without a watcher thread closing the socket under it.
  set_options(listen_fd_, kRecvPollMs, kAcceptedSendTimeoutMs);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t len = sizeof(addr);
  auto* sa = reinterpret_cast<sockaddr*>(&addr);
  if (::bind(listen_fd_, sa, len) != 0 || ::listen(listen_fd_, 128) != 0 ||
      ::getsockname(listen_fd_, sa, &len) != 0) {
    ::close(listen_fd_);
    throw util::InvalidArgument("cannot listen on 127.0.0.1:" +
                                std::to_string(port) + " (port in use?)");
  }
  port_ = ntohs(addr.sin_port);
}

TcpServer::~TcpServer() {
  reap(/*all=*/true);
  ::close(listen_fd_);
}

void TcpServer::serve(std::atomic<bool>& shutdown,
                      const std::function<void(int fd)>& on_connection) {
  while (!shutdown.load(std::memory_order_relaxed) && !signalled()) {
    reap(/*all=*/false);
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    set_options(fd, kRecvPollMs, kAcceptedSendTimeoutMs);
    std::lock_guard<std::mutex> lock(mutex_);
    Connection& conn = connections_.emplace_back();
    conn.thread = std::thread([this, fd, &conn, &on_connection] {
      on_connection(fd);
      ::close(fd);
      std::lock_guard<std::mutex> done_lock(mutex_);
      conn.done = true;
    });
  }
  shutdown.store(true, std::memory_order_relaxed);
  reap(/*all=*/true);
}

std::size_t TcpServer::live_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connections_.size();
}

void TcpServer::reap(bool all) {
  std::list<Connection> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      const auto next = std::next(it);
      if (all || it->done) finished.splice(finished.end(), connections_, it);
      it = next;
    }
  }
  // Splicing keeps node addresses, so a running thread's `conn` stays valid.
  for (Connection& conn : finished) conn.thread.join();
}

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: blocking reads must EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

bool signalled() noexcept {
  return g_signal.load(std::memory_order_relaxed) != 0;
}

}  // namespace qulrb::net
