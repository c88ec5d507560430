#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "net/net.hpp"
#include "util/error.hpp"

namespace qulrb::net {
namespace {

using Status = LineReader::Status;

// ------------------------------------------------------------ addresses ----

TEST(BackendList, ParsesPortsAndHostPortsMixed) {
  const auto list = parse_backend_list("7471,localhost:7472,10.0.0.5:80");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].host, "127.0.0.1");
  EXPECT_EQ(list[0].port, 7471);
  EXPECT_EQ(list[1].host, "localhost");
  EXPECT_EQ(list[1].port, 7472);
  EXPECT_EQ(list[2].label(), "10.0.0.5:80");
}

TEST(BackendList, RejectsGarbage) {
  EXPECT_THROW(parse_backend_list(""), util::InvalidArgument);
  EXPECT_THROW(parse_backend_list("host:"), util::InvalidArgument);
  EXPECT_THROW(parse_backend_list("banana"), util::InvalidArgument);
  EXPECT_THROW(parse_backend_list("70000"), util::InvalidArgument);
}

// ----------------------------------------------------------- LineReader ----

/// A pipe whose read end a LineReader polls briefly, so the test can feed
/// the stream piece by piece from one thread and see each read's outcome.
struct Pipe {
  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
  void write(const std::string& bytes) const {
    ASSERT_EQ(::write(write_fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_writer() {
    ::close(write_fd);
    write_fd = -1;
  }

  int read_fd = -1;
  int write_fd = -1;
};

TEST(Net, LineReaderSplitsAcrossChunkBoundaries) {
  Pipe pipe;
  LineReader reader(pipe.read_fd, /*max_line=*/1 << 20, /*poll_ms=*/10);
  std::string line;

  pipe.write("hel");
  EXPECT_EQ(reader.next(line), Status::kTimeout);  // no newline yet
  pipe.write("lo\r\nwor");
  ASSERT_EQ(reader.next(line), Status::kLine);
  EXPECT_EQ(line, "hello");  // '\r' stripped
  EXPECT_EQ(reader.next(line), Status::kTimeout);
  pipe.write("ld\n\n\r\nnext\n");
  ASSERT_EQ(reader.next(line), Status::kLine);
  EXPECT_EQ(line, "world");
  ASSERT_EQ(reader.next(line), Status::kLine);  // blank lines skipped
  EXPECT_EQ(line, "next");

  // A line longer than one read() chunk arrives whole.
  const std::string big(10000, 'x');
  pipe.write(big + "\ntail");
  ASSERT_EQ(reader.next(line), Status::kLine);
  EXPECT_EQ(line, big);

  pipe.close_writer();
  EXPECT_EQ(reader.next(line), Status::kEof);  // unterminated "tail" dropped
}

TEST(Net, LineReaderReportsTooLong) {
  {
    Pipe pipe;
    LineReader reader(pipe.read_fd, /*max_line=*/8, /*poll_ms=*/10);
    std::string line;
    pipe.write("12345678\n123456789\n");
    ASSERT_EQ(reader.next(line), Status::kLine);
    EXPECT_EQ(line, "12345678");  // exactly at the cap
    EXPECT_EQ(reader.next(line), Status::kTooLong);
  }
  {
    // No newline ever arrives: the cap bounds the buffer all the same.
    Pipe pipe;
    LineReader reader(pipe.read_fd, /*max_line=*/8, /*poll_ms=*/10);
    std::string line;
    pipe.write(std::string(64, 'y'));
    EXPECT_EQ(reader.next(line), Status::kTooLong);
  }
}

TEST(Net, SendLineFramesAndReportsADeadPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(send_line(fds[0], R"({"op":"stats"})"));
  LineReader reader(fds[1]);
  std::string line;
  ASSERT_EQ(reader.next(line), Status::kLine);
  EXPECT_EQ(line, R"({"op":"stats"})");
  ::close(fds[1]);
  // EPIPE, not SIGPIPE: the test process must survive the write.
  EXPECT_FALSE(send_line(fds[0], "to nobody"));
  ::close(fds[0]);
}

// ------------------------------------------------------------ TcpServer ----

/// A TcpServer on an ephemeral port whose connections answer nothing and
/// end when the client closes; serve() runs on its own thread for the fixture's
/// lifetime.
class SilentServer {
 public:
  explicit SilentServer(std::function<void(int)> on_accept = {})
      : on_accept_(std::move(on_accept)) {
    thread_ = std::thread([this] {
      server_.serve(shutdown_, [this](int fd) {
        if (on_accept_) on_accept_(fd);
        LineReader reader(fd, kMaxRequestLine);
        serve_lines(reader, shutdown_, [](const std::string&) { return true; });
        handlers_returned_.fetch_add(1);
      });
    });
  }
  ~SilentServer() {
    shutdown_.store(true);
    thread_.join();
  }

  TcpServer& server() { return server_; }
  BackendAddress address() const { return {"127.0.0.1", server_.port()}; }
  /// Connection handlers that have run to completion.
  std::size_t handlers_returned() const { return handlers_returned_.load(); }

 private:
  TcpServer server_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> handlers_returned_{0};
  std::function<void(int)> on_accept_;
  std::thread thread_;
};

int nodelay(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len);
  return value;
}

double timeout_ms(int fd, int option) {
  timeval tv{};
  socklen_t len = sizeof(tv);
  ::getsockopt(fd, SOL_SOCKET, option, &tv, &len);
  return static_cast<double>(tv.tv_sec) * 1000.0 +
         static_cast<double>(tv.tv_usec) / 1000.0;
}

TEST(Net, AcceptedAndConnectedSocketsSetNoDelay) {
  // Without TCP_NODELAY on the accepted side, a small response line waits
  // for the client's delayed ACK: tens of ms on every routed request.
  std::atomic<int> accepted_nodelay{-1};
  std::atomic<double> accepted_recv_ms{-1.0};
  std::atomic<double> accepted_send_ms{-1.0};
  SilentServer server([&](int fd) {
    accepted_recv_ms = timeout_ms(fd, SO_RCVTIMEO);
    accepted_send_ms = timeout_ms(fd, SO_SNDTIMEO);
    accepted_nodelay = nodelay(fd);
  });

  const int fd = connect_tcp(server.address(), 100.0, 1500.0);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(nodelay(fd), 1);
  // The kernel keeps timeouts in jiffies; allow one tick of rounding.
  EXPECT_NEAR(timeout_ms(fd, SO_RCVTIMEO), 100.0, 10.0);
  EXPECT_NEAR(timeout_ms(fd, SO_SNDTIMEO), 1500.0, 10.0);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (accepted_nodelay.load() < 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(accepted_nodelay.load(), 1);
  EXPECT_NEAR(accepted_recv_ms.load(), kRecvPollMs, 10.0);
  EXPECT_NEAR(accepted_send_ms.load(), kAcceptedSendTimeoutMs, 10.0);
  ::close(fd);
}

TEST(Net, FinishedConnectionThreadsAreReaped) {
  SilentServer server;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const int fd = connect_tcp(server.address(), 0.0, 0.0);
    ASSERT_GE(fd, 0);
    ::close(fd);
    // Wait for this connection's handler before opening the next, so the
    // number of finished-but-unjoined threads depends on reaping alone, not
    // on how far the server's threads lag behind the client under load.
    const auto handler_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.handlers_returned() <= i &&
           std::chrono::steady_clock::now() < handler_deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_GT(server.handlers_returned(), i);
    peak = std::max(peak, server.server().live_connections());
  }
  // Every client has gone; within a few accept polls every thread that
  // served one is joined. Without reaping, all 200 would still be held.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.server().live_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.server().live_connections(), 0u);
  EXPECT_LT(peak, 50u);
}

TEST(Net, ConnectToAClosedPortFails) {
  std::uint16_t port = 0;
  {
    TcpServer probe(0);  // grab a free port, then release it
    port = static_cast<std::uint16_t>(probe.port());
  }
  EXPECT_EQ(connect_tcp({"127.0.0.1", port}, 0.0, 0.0), -1);
  EXPECT_EQ(connect_tcp({"not-an-ip", port}, 0.0, 0.0), -1);
}

}  // namespace
}  // namespace qulrb::net
