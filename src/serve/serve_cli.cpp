#include "serve/serve_cli.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "common/cli.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace dyngossip {

namespace {

constexpr const char* kServeUsage =
    "usage: dyngossip serve --socket=PATH [--threads=N] [--cache=DIR]\n"
    "                       [--max-requests=N]\n"
    "\n"
    "Long-running sweep service on a unix-domain socket.  Each client sends\n"
    "one single-line JSON sweep request and receives a line stream of\n"
    "result rows (see `dyngossip request`).  Concurrent clients are\n"
    "scheduled fairly (round-robin per trial) over one shared thread pool,\n"
    "and identical in-flight trials are computed once.  --cache=DIR shares\n"
    "the content-addressed result cache with `dyngossip run --cache=DIR`.\n"
    "--max-requests=N exits after serving N connections (0: run forever).\n";

/// serve_connection sends a batch once it holds this many bytes.
constexpr std::size_t kSendBatchBytes = 64 * 1024;

constexpr const char* kRequestUsage =
    "usage: dyngossip request --socket=PATH --adversary=SPEC --n=N --k=K\n"
    "                         [--algo=SPEC] [--fault=SPEC] [--sources=S]\n"
    "                         [--cap=C] [--trials=T] [--seed-base=B]\n"
    "\n"
    "Submits one sweep to a running `dyngossip serve` and prints the\n"
    "streamed protocol lines (accepted / row per trial / done) to stdout.\n"
    "Exit 0 on done, 1 on a server error line or connection failure.\n";

/// Writes all of `bytes` to fd, absorbing partial writes.  Returns false
/// when the peer is gone.
bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
#ifdef MSG_NOSIGNAL
    const ssize_t wrote =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
#else
    const ssize_t wrote = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
#endif
    if (wrote <= 0) {
      if (wrote < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(wrote);
  }
  return true;
}

bool write_line(int fd, const std::string& line) {
  return send_all(fd, line + "\n");
}

/// Reads one '\n'-terminated line (the terminator is stripped).  Returns
/// false on EOF/error before any terminator.  `buffer` carries bytes read
/// past the previous line.
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t at = buffer.find('\n');
    if (at != std::string::npos) {
      line = buffer.substr(0, at);
      buffer.erase(0, at + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(got));
    if (buffer.size() > (1u << 20)) return false;  // runaway peer
  }
}

[[nodiscard]] int connect_unix(const std::string& path, bool listening,
                               int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return -1;
  }
  if (listening) {
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(fd, backlog) < 0) {
      std::perror(path.c_str());
      ::close(fd);
      return -1;
    }
  } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    std::perror(path.c_str());
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

void serve_connection(SweepService& service, int fd) {
  std::string buffer;
  std::string line;
  if (!read_line(fd, buffer, line)) {
    ::close(fd);
    return;
  }
  SweepRequest req;
  try {
    req = decode_sweep_request(line);
  } catch (const std::exception& e) {
    (void)write_line(fd, encode_error(e.what()));
    ::close(fd);
    return;
  }
  // Lines are batched: one send per flush point of the sweep, at the end,
  // and whenever the batch passes kSendBatchBytes.
  std::string out;
  bool alive = true;
  const auto flush = [fd, &out, &alive] {
    // A vanished client must not kill the sweep mid-flight (its trials may
    // be deduped onto by other sessions); keep draining, stop writing.
    if (alive && !out.empty()) alive = send_all(fd, out);
    out.clear();
  };
  service.run_sweep(
      req,
      [&out, &flush](const std::string& emitted) {
        out += emitted;
        out += '\n';
        if (out.size() >= kSendBatchBytes) flush();
      },
      flush);
  flush();
  ::close(fd);
}

namespace {

int cmd_serve(const CliArgs& args) {
  args.allow_only({"socket", "threads", "cache", "max-requests"}, kServeUsage);
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "serve requires --socket=PATH\n");
    return 2;
  }
  const std::int64_t threads_raw = args.get_int("threads", 0);
  const std::int64_t max_requests = args.get_int("max-requests", 0);
  if (threads_raw < 0 || threads_raw > 4096 || max_requests < 0) {
    std::fprintf(stderr,
                 "--threads in [0, 4096] and --max-requests >= 0 required\n");
    return 2;
  }
  std::unique_ptr<ResultCache> cache;
  if (args.has("cache")) {
    try {
      cache = std::make_unique<ResultCache>(args.get_string("cache", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  const int listen_fd = connect_unix(socket_path, /*listening=*/true, 16);
  if (listen_fd < 0) return 1;

  ThreadPool pool(static_cast<std::size_t>(threads_raw));
  SweepService service(pool, cache.get());
  std::fprintf(stderr, "[dyngossip] serve: listening on %s (%zu threads%s)\n",
               socket_path.c_str(), pool.size(),
               cache != nullptr ? (", cache " + cache->dir()).c_str() : "");

  // One thread per live connection.  Finished ones are joined at the next
  // accept, so a long-running server holds no thread (or stack) per past
  // connection.
  struct Session {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };
  std::vector<Session> sessions;
  std::int64_t served = 0;
  while (max_requests == 0 || served < max_requests) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::perror("accept");
      break;
    }
    ++served;
    for (auto it = sessions.begin(); it != sessions.end();) {
      if (it->done->load()) {
        it->thread.join();
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
    auto done = std::make_unique<std::atomic<bool>>(false);
    std::thread thread([&service, fd, flag = done.get()] {
      serve_connection(service, fd);
      flag->store(true);
    });
    sessions.push_back({std::move(thread), std::move(done)});
  }
  for (Session& s : sessions) s.thread.join();
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  std::fprintf(stderr, "[dyngossip] serve: %lld request(s) served, exiting\n",
               static_cast<long long>(served));
  return 0;
}

int cmd_request(const CliArgs& args) {
  args.allow_only({"socket", "algo", "adversary", "fault", "n", "k", "sources",
                   "cap", "trials", "seed-base"},
                  kRequestUsage);
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "request requires --socket=PATH\n");
    return 2;
  }
  SweepRequest req;
  req.algo = args.get_string("algo", req.algo);
  req.adversary = args.get_string("adversary", "");
  req.fault = args.get_string("fault", req.fault);
  req.n = static_cast<std::size_t>(args.get_int("n", 0));
  req.k = static_cast<std::uint32_t>(args.get_int("k", 0));
  req.sources = static_cast<std::size_t>(args.get_int("sources", 4));
  req.cap = static_cast<Round>(args.get_int("cap", 0));
  req.trials = static_cast<std::size_t>(args.get_int("trials", 1));
  req.seed_base = static_cast<std::uint64_t>(args.get_int("seed-base", 0));
  if (req.adversary.empty() || req.n == 0 || req.k == 0) {
    std::fprintf(stderr, "request requires --adversary=SPEC --n=N --k=K\n%s",
                 kRequestUsage);
    return 2;
  }

  const int fd = connect_unix(socket_path, /*listening=*/false, 0);
  if (fd < 0) return 1;
  if (!write_line(fd, encode_sweep_request(req))) {
    std::fprintf(stderr, "connection lost while sending the request\n");
    ::close(fd);
    return 1;
  }
  std::string buffer;
  std::string line;
  int exit_code = 1;  // flipped to 0 by a terminal "done" line
  while (read_line(fd, buffer, line)) {
    std::printf("%s\n", line.c_str());
    try {
      const JsonValue doc = JsonValue::parse(line);
      const JsonValue* type = doc.find("type");
      if (type != nullptr && type->type() == JsonValue::Type::kString) {
        if (type->as_string() == "done") {
          exit_code = 0;
          break;
        }
        if (type->as_string() == "error") break;
      }
    } catch (const std::exception&) {
      break;  // garbled stream: keep exit_code = 1
    }
  }
  ::close(fd);
  if (exit_code != 0) {
    std::fprintf(stderr, "request did not complete cleanly\n");
  }
  return exit_code;
}

}  // namespace

int serve_main(int argc, const char* const* argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  std::vector<const char*> rest = {argv[0]};
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  const CliArgs args(static_cast<int>(rest.size()), rest.data());
  if (command == "serve") return cmd_serve(args);
  if (command == "request") return cmd_request(args);
  std::fputs(kServeUsage, stderr);
  return 2;
}

}  // namespace dyngossip
