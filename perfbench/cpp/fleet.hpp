#pragma once

// The serving fleet under test (two qulrb_serve backends behind one
// qulrb_router) and the open- and closed-loop load generators that drive it
// over loopback TCP.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/request.hpp"

namespace perfbench {

/// A child process started with fork/exec. The kernel kills it if the
/// benchmark dies first; otherwise stop() (also run by the destructor) sends
/// SIGTERM, waits, escalates to SIGKILL after a grace period, and reaps it.
class ChildProcess {
 public:
  /// `argv[0]` is the executable path; stdout and stderr go to `log_path`.
  ChildProcess(const std::vector<std::string>& argv, const std::string& log_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  void stop();

 private:
  pid_t pid_ = -1;
};

/// Blocking JSON-lines client connection to 127.0.0.1:`port`.
class LineConn {
 public:
  explicit LineConn(int port);
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  /// Send `line` plus a newline; false when the connection failed.
  bool send_line(const std::string& line);
  /// Next line without its newline; false on EOF, error or after
  /// `timeout_ms` without a complete line.
  bool read_line(std::string& line, double timeout_ms);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One request/response round trip on a fresh connection.
std::string ask(int port, const std::string& line, double timeout_ms = 5000.0);

/// Two `qulrb_serve --workers 1` backends behind
/// `qulrb_router --policy cache-affinity`, each on a free loopback port.
class Fleet {
 public:
  /// Spawns the processes from `bin_dir`, then polls the router's health op
  /// until it reports both backends healthy. Throws on timeout.
  Fleet(const std::string& bin_dir, const std::string& log_dir);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int port() const noexcept { return port_; }

 private:
  int port_ = 0;
  std::vector<std::unique_ptr<ChildProcess>> backends_;
  std::unique_ptr<ChildProcess> router_;
};

/// One request of a load-generation phase.
struct Exchange {
  std::uint64_t index = 0;  ///< generator index (the request is make(index))
  double due_ms = 0.0;      ///< when it was due (closed loop: when it was sent)
  double sent_ms = -1.0;
  double recv_ms = -1.0;    ///< -1 = no response
  std::string response;
};

struct Phase {
  std::vector<Exchange> exchanges;
  double start_ms = 0.0;
  double end_ms = 0.0;          ///< end of the measured window
  std::size_t connections = 0;
  std::size_t threads = 0;      ///< generator threads the phase ran
};

using RequestMaker = std::function<qulrb::service::RebalanceRequest(std::uint64_t)>;

/// Open loop over one pipelined connection: request `first + i` is due at
/// start + i / rate_per_s, is sent as soon as it is due, and is timed from
/// its due time. One sender and one reader thread. Returns once every
/// response arrived or 10 s passed after the last send.
Phase run_open_loop(int port, const RequestMaker& make, std::uint64_t first, std::size_t count,
                    double rate_per_s);

/// Closed loop: `connections` threads, each with its own connection, send
/// their next request as soon as the previous response arrives, until
/// `duration_ms` has passed.
Phase run_closed_loop(int port, const RequestMaker& make, std::uint64_t first,
                      double duration_ms, std::size_t connections);

/// The wire line the generators send for request `index`.
std::string solve_line(const qulrb::service::RebalanceRequest& request, std::uint64_t index);

}  // namespace perfbench
