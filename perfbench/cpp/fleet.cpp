#include "fleet.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "io/json_value.hpp"
#include "service/protocol.hpp"

namespace perfbench {

ChildProcess::ChildProcess(const std::vector<std::string>& argv, const std::string& log_path) {
  // Everything the child touches is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    if (log_fd >= 0) ::close(log_fd);
    throw std::runtime_error("fork failed for " + argv.front());
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);
}

ChildProcess::~ChildProcess() { stop(); }

void ChildProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const double deadline = now_ms() + 5000.0;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ms() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

LineConn::LineConn(int port) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return;
    }
    ::close(fd_);
    fd_ = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineConn::send_line(const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t done = 0;
  while (done < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + done, framed.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineConn::read_line(std::string& line, double timeout_ms) {
  const double deadline = now_ms() + timeout_ms;
  while (true) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const double left = deadline - now_ms();
    if (left <= 0.0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string ask(int port, const std::string& line, double timeout_ms) {
  LineConn conn(port);
  std::string reply;
  if (!conn.send_line(line) || !conn.read_line(reply, timeout_ms)) {
    throw std::runtime_error("no reply to " + line);
  }
  return reply;
}

namespace {

int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot find a free loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

std::uint64_t response_id(const std::string& line) {
  const auto pos = line.find("\"id\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + 5, nullptr, 10);
}

}  // namespace

namespace {

/// Poll `op` on `port` until `ready` accepts the reply's "stats" object.
template <class Ready>
void wait_until(int port, const char* what, Ready ready) {
  const double deadline = now_ms() + 20000.0;
  while (true) {
    try {
      const auto reply = qulrb::io::JsonValue::parse(ask(port, "{\"op\":\"health\"}", 1000.0));
      const auto* stats = reply.find("stats");
      if (stats != nullptr && ready(*stats)) return;
    } catch (const std::exception&) {
      // Not listening yet.
    }
    if (now_ms() > deadline) throw std::runtime_error(std::string(what) + " never became ready");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

Fleet::Fleet(const std::string& bin_dir, const std::string& log_dir) {
  // Backends first, each answering health, so the router's first connect
  // finds them listening (otherwise it waits out its reconnect delay).
  std::string backend_list;
  for (int b = 0; b < 2; ++b) {
    const int port = free_port();
    backends_.push_back(std::make_unique<ChildProcess>(
        std::vector<std::string>{bin_dir + "/qulrb_serve", "--port", std::to_string(port),
                                 "--workers", "1", "--quiet"},
        log_dir + "/serve" + std::to_string(b) + ".log"));
    wait_until(port, "qulrb_serve", [](const qulrb::io::JsonValue&) { return true; });
    backend_list += (b > 0 ? "," : "") + std::to_string(port);
  }
  port_ = free_port();
  router_ = std::make_unique<ChildProcess>(
      std::vector<std::string>{bin_dir + "/qulrb_router", "--port", std::to_string(port_),
                               "--backends", backend_list, "--policy", "cache-affinity",
                               "--quiet"},
      log_dir + "/router.log");
  wait_until(port_, "qulrb_router with 2 healthy backends",
             [](const qulrb::io::JsonValue& stats) { return stats.int_or("healthy", 0) == 2; });
}

Fleet::~Fleet() {
  if (router_) router_->stop();
  for (auto& b : backends_) b->stop();
}

std::string solve_line(const qulrb::service::RebalanceRequest& request, std::uint64_t index) {
  return qulrb::service::encode_solve_request(request, index + 1, /*include_plan=*/true);
}

Phase run_open_loop(int port, const RequestMaker& make, std::uint64_t first, std::size_t count,
                    double rate_per_s) {
  Phase phase;
  phase.connections = 1;
  phase.threads = 2;
  phase.exchanges.resize(count);
  std::vector<std::string> lines(count);
  for (std::size_t i = 0; i < count; ++i) {
    phase.exchanges[i].index = first + i;
    lines[i] = solve_line(make(first + i), first + i);
  }
  // The sender only writes and the reader only reads the connection (and
  // its line buffer), so the two threads share it safely.
  LineConn conn(port);
  std::atomic<std::size_t> received{0};
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::string line;
    while (!stop.load()) {
      if (!conn.read_line(line, 50.0)) continue;
      const double t = now_ms();
      const std::uint64_t id = response_id(line);
      if (id < first + 1 || id - first - 1 >= count) continue;
      Exchange& ex = phase.exchanges[id - first - 1];
      ex.recv_ms = t;
      ex.response = std::move(line);
      received.fetch_add(1);
    }
  });

  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  phase.start_ms = now_ms();
  const double interval_ms = 1000.0 / rate_per_s;
  for (std::size_t i = 0; i < count; ++i) {
    const double offset_ms = interval_ms * static_cast<double>(i);
    std::this_thread::sleep_until(t0 + std::chrono::duration_cast<clock::duration>(
                                           std::chrono::duration<double, std::milli>(offset_ms)));
    Exchange& ex = phase.exchanges[i];
    ex.due_ms = phase.start_ms + offset_ms;
    ex.sent_ms = now_ms();
    conn.send_line(lines[i]);
  }
  phase.end_ms = now_ms();
  const double drain_deadline = phase.end_ms + 10000.0;
  while (received.load() < count && now_ms() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  reader.join();
  return phase;
}

Phase run_closed_loop(int port, const RequestMaker& make, std::uint64_t first,
                      double duration_ms, std::size_t connections) {
  Phase phase;
  phase.connections = connections;
  phase.threads = connections;
  std::vector<std::unique_ptr<LineConn>> conns;
  for (std::size_t c = 0; c < connections; ++c) conns.push_back(std::make_unique<LineConn>(port));
  std::atomic<std::uint64_t> next{first};
  std::vector<std::vector<Exchange>> per_thread(connections);
  phase.start_ms = now_ms();
  phase.end_ms = phase.start_ms + duration_ms;
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      while (now_ms() < phase.end_ms) {
        Exchange ex;
        ex.index = next.fetch_add(1);
        const std::string line = solve_line(make(ex.index), ex.index);
        ex.sent_ms = ex.due_ms = now_ms();
        if (conns[c]->send_line(line) && conns[c]->read_line(ex.response, 30000.0)) {
          ex.recv_ms = now_ms();
        }
        const bool lost = ex.recv_ms < 0.0;
        per_thread[c].push_back(std::move(ex));
        if (lost) break;  // the connection is unusable; its loss is counted
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (auto& list : per_thread) {
    for (Exchange& ex : list) phase.exchanges.push_back(std::move(ex));
  }
  return phase;
}

}  // namespace perfbench
