// The unix-socket layer of `dyngossip serve`: batched row writes deliver
// exactly the lines the sweep emits, and a long-running server keeps no
// thread or stack per finished connection.
#include "serve/serve_cli.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace dyngossip {
namespace {

SweepRequest small_request(std::size_t trials, std::uint64_t seed_base) {
  SweepRequest req;
  req.adversary = "churn:rate=0.5";
  req.n = 24;
  req.k = 4;
  req.sources = 1;
  req.trials = trials;
  req.seed_base = seed_base;
  return req;
}

/// The lines run_sweep emits for `req` on a fresh cache-free service, each
/// '\n'-terminated.
std::string emitted_bytes(const SweepRequest& req) {
  ThreadPool pool(2);
  SweepService service(pool, nullptr);
  std::string bytes;
  service.run_sweep(req, [&bytes](const std::string& line) {
    bytes += line;
    bytes += '\n';
  });
  return bytes;
}

/// Sends `request` + '\n' on fd and reads until the peer closes.
std::string exchange(int fd, const std::string& request) {
  const std::string framed = request + "\n";
  if (::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(framed.size())) {
    throw std::runtime_error("short send");
  }
  std::string got;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got.append(chunk, static_cast<std::size_t>(n));
  }
  return got;
}

/// What serve_connection sends back for `request` over a socketpair.
std::string served_bytes(const std::string& request) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  ThreadPool pool(2);
  SweepService service(pool, nullptr);
  std::thread server([&service, fd = fds[0]] { serve_connection(service, fd); });
  const std::string got = exchange(fds[1], request);
  server.join();
  ::close(fds[1]);
  return got;
}

TEST(ServeConnection, ClientReceivesTheEmittedLinesInOrder) {
  // 500 rows are ~90 KB: more than one 64 KiB batch.
  const SweepRequest req = small_request(500, 100);
  const std::string expected = emitted_bytes(req);
  ASSERT_GT(expected.size(), 64u * 1024u);
  EXPECT_EQ(served_bytes(encode_sweep_request(req)), expected);
}

TEST(ServeConnection, ErrorLinesReachTheClient) {
  // An error from the sweep itself (unknown adversary family)...
  SweepRequest bad = small_request(1, 0);
  bad.adversary = "no_such_family:x=1";
  const std::string expected = emitted_bytes(bad);
  ASSERT_NE(expected.find("\"type\":\"error\""), std::string::npos);
  EXPECT_EQ(served_bytes(encode_sweep_request(bad)), expected);

  // ...and one from decoding the request line.
  std::string message;
  try {
    (void)decode_sweep_request("{not json");
  } catch (const std::exception& e) {
    message = e.what();
  }
  ASSERT_FALSE(message.empty());
  EXPECT_EQ(served_bytes("{not json"), encode_error(message) + "\n");
}

std::size_t count_entries(const char* dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator(dir)) ++n;
  return n;
}

std::size_t count_lines(const char* path) {
  std::ifstream in(path);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) ++n;
  return n;
}

/// Connects to `path`, retrying while the server is still starting.
int connect_with_retry(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 5000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("server did not come up");
}

TEST(ServeMain, SequentialConnectionsLeaveNoThreadsOrStacksBehind) {
  constexpr int kWarmup = 8;
  constexpr int kConnections = 72;
  const std::string socket_path = ::testing::TempDir() + "dg_serve_cli_" +
                                  std::to_string(::getpid()) + ".sock";
  ASSERT_LT(socket_path.size(), sizeof(sockaddr_un::sun_path));
  const std::string socket_flag = "--socket=" + socket_path;
  // One connection more than measured: the server joins every session when
  // it reaches --max-requests, so the counts are read before the last one.
  const std::string max_flag = "--max-requests=" + std::to_string(kConnections + 1);
  const char* argv[] = {"dyngossip", "serve", socket_flag.c_str(), "--threads=1",
                        max_flag.c_str()};
  int exit_code = -1;
  std::thread server([&] { exit_code = serve_main(5, argv); });

  const std::string request = encode_sweep_request(small_request(1, 7));
  std::size_t threads_warm = 0;
  std::size_t maps_warm = 0;
  std::size_t threads_end = 0;
  std::size_t maps_end = 0;
  for (int i = 0; i <= kConnections; ++i) {
    const int fd = connect_with_retry(socket_path);
    const std::string got = exchange(fd, request);
    ::close(fd);
    EXPECT_NE(got.find("\"type\":\"done\""), std::string::npos) << got;
    if (i + 1 == kWarmup) {
      threads_warm = count_entries("/proc/self/task");
      maps_warm = count_lines("/proc/self/maps");
    } else if (i + 1 == kConnections) {
      threads_end = count_entries("/proc/self/task");
      maps_end = count_lines("/proc/self/maps");
    }
  }
  // An unjoined finished session keeps its thread's stack and guard page
  // mapped until shutdown: +2 mappings per connection.  The slack covers a
  // session or two that finished after the last accept reaped.
  EXPECT_LE(threads_end, threads_warm + 2);
  EXPECT_LE(maps_end, maps_warm + 6) << "stacks of finished sessions leaked";

  server.join();
  EXPECT_EQ(exit_code, 0);
}

}  // namespace
}  // namespace dyngossip
