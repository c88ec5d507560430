#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

/// The one JSON-lines connection layer under qulrb_serve, qulrb_router, the
/// router's BackendPool and qulrb_loadgen (DESIGN.md §8).
namespace qulrb::net {

/// Data-port request lines longer than this are answered with
/// {"error":"line too long"} and the connection closes. Solve requests are a
/// few KB; backend responses (flight/profile dumps) are read uncapped.
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// Blocking reads wake this often so their loops re-check shutdown flags.
inline constexpr int kRecvPollMs = 200;
/// Send bound on accepted sockets: a client that stops reading must not park
/// a worker callback in send() forever.
inline constexpr int kAcceptedSendTimeoutMs = 2000;

struct BackendAddress {
  std::string host = "127.0.0.1";
  int port = 0;

  std::string label() const { return host + ":" + std::to_string(port); }
};

/// Parse "7471,7472" or "host:7471,host:7472" (forms may mix).
std::vector<BackendAddress> parse_backend_list(const std::string& csv);

/// Splits an fd's bytes into lines: '\n' ends a line, a trailing '\r' is
/// stripped, blank lines are skipped. Reads through read(), so it frames
/// sockets and stdin alike.
class LineReader {
 public:
  enum class Status { kLine, kTimeout, kEof, kTooLong };

  /// `poll_ms` > 0 waits that long for input before each read, for fds
  /// without SO_RCVTIMEO such as stdin.
  explicit LineReader(int fd,
                      std::size_t max_line = std::numeric_limits<std::size_t>::max(),
                      int poll_ms = 0)
      : fd_(fd), max_line_(max_line), poll_ms_(poll_ms) {}

  /// kTimeout: the wait timed out or a signal interrupted it. kEof: the peer
  /// closed or the read failed. kTooLong: the pending line is over max_line.
  Status next(std::string& line);

 private:
  int fd_;
  std::size_t max_line_;
  int poll_ms_;
  std::string buffer_;
  std::size_t start_ = 0;  ///< first unconsumed byte of buffer_
  std::size_t scan_ = 0;   ///< bytes from start_ known to hold no '\n'
};

/// Hand each line to `on_line` until it returns false, the peer closes,
/// `stop` is set or a SIGINT/SIGTERM arrives. Returns the reader status that
/// ended the loop (kLine when `on_line` or a flag did), so the caller can
/// answer a kTooLong before closing.
LineReader::Status serve_lines(
    LineReader& reader, const std::atomic<bool>& stop,
    const std::function<bool(const std::string&)>& on_line);

/// Write `line` plus '\n' to a socket; retries EINTR, never raises SIGPIPE.
/// False when the peer is gone or the send timed out.
bool send_line(int fd, std::string_view line);

/// Connect with TCP_NODELAY and the given SO_RCVTIMEO/SO_SNDTIMEO (0 =
/// block). Returns the fd, or -1 on a bad address or refused connection.
int connect_tcp(const BackendAddress& addr, double recv_timeout_ms,
                double send_timeout_ms);

/// Loopback listener, one thread per connection. Every accepted socket gets
/// TCP_NODELAY, a kRecvPollMs receive and a kAcceptedSendTimeoutMs send
/// timeout. Threads are joined as their connections end, so a long-lived
/// server holds one per open connection, not one per connection ever made.
class TcpServer {
 public:
  /// Bind 127.0.0.1:port (0 = any free port) and listen; throws
  /// util::InvalidArgument when the port is taken.
  explicit TcpServer(int port);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  int port() const noexcept { return port_; }

  /// Accept until `shutdown` is set or a SIGINT/SIGTERM arrives, running
  /// on_connection(fd) on its own thread and closing fd after it returns.
  /// On the way out sets `shutdown`, so connection loops polling it end, and
  /// joins every connection thread.
  void serve(std::atomic<bool>& shutdown,
             const std::function<void(int fd)>& on_connection);

  /// Connection threads not yet joined.
  std::size_t live_connections() const;

 private:
  struct Connection {
    std::thread thread;
    bool done = false;  ///< guarded by mutex_
  };

  void reap(bool all);

  int listen_fd_ = -1;
  int port_ = 0;
  mutable std::mutex mutex_;
  std::list<Connection> connections_;
};

/// SIGINT/SIGTERM set the flag signalled() reads, without SA_RESTART so
/// blocked reads return EINTR; SIGPIPE is ignored so a dead peer surfaces as
/// EPIPE, not process death.
void install_signal_handlers();
bool signalled() noexcept;

}  // namespace qulrb::net
