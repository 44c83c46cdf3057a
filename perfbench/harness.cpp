// perfbench_harness — in-process drivers for the dyngossip benchmark.
//
// Each subcommand calls the library's public entry points directly, times
// those calls from outside, and prints one JSON document on stdout.
// perfbench/run.py generates every input (schedule seeds, trace files,
// request scripts) from the workload seed and turns these documents into
// metrics.  Nothing here changes what the library computes: the adversary
// decorator forwards every round unchanged, and timelines only record.
//
//   frontier  --n --k --seeds=a,b,.. [--setup-reps=R] [--timeline-dir=DIR]
//             Algorithm 1 against a live churn schedule (8n edges, n/8
//             churn), one trial per seed; R extra passes over the seeds
//             time each trial's set-up up to the return of its first
//             adversary call.
//   async     --k --traces=T1,T2,.. --seeds=a,b,.. [--timeline-dir=DIR]
//             async push-pull replaying trace i for seed i.
//   probe     times three host-speed probe points (see host_probe_s).
//   graph     --n --seed --rounds
//             replays the frontier churn schedule through the engines'
//             graph layer.
//   serve-load --socket=PATH --requests=FILE [--spans] [--probe-every=M]
//             one closed-loop line-JSON client against `dyngossip serve`,
//             timing a host-speed probe point before every M-th request.
//   serve-check --script=FILE --lookup-dir=DIR --store-dir=DIR
//             re-runs every served row directly and times the result cache.
//
// frontier and async time a host-speed probe point before every trial and
// after the last (`host_s`).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/memo_sweep.hpp"
#include "cache/result_cache.hpp"
#include "common/cli.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"
#include "graph/round_view.hpp"
#include "serve/protocol.hpp"
#include "sim/runner/json.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/timeline.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_adversary.hpp"
#include "trace/trace_format.hpp"

namespace dg = dyngossip;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

dg::JsonValue num(double v) { return dg::JsonValue::number(v); }

/// SplitMix64, the probe kernel's fixed random stream.
struct ProbeRng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Wall time of one run of the host-speed probe kernel: fixed work that no
/// dyngossip code runs but that is of the same kind.  It plays 32 rounds of
/// push gossip of 256 tokens among 512 nodes over a churning random graph
/// (edge churn, an adjacency rebuild, token-set merges and popcounts), then
/// updates a hash map and sorts short strings.  A tight arithmetic loop
/// tracked the simulations' speed far worse: on a shared 4-vCPU virtual
/// machine a slow phase of its host slowed the simulations by 1.6-2x and
/// such a loop by 1.4x.
double probe_kernel_once_s() {
  constexpr std::uint32_t kNodes = 512;
  constexpr std::uint32_t kEdges = 8 * kNodes;
  constexpr int kWords = 4;  // 256 tokens
  const Clock::time_point begin = Clock::now();
  ProbeRng rng{12345};
  std::vector<std::array<std::uint64_t, kWords>> have(kNodes);
  std::vector<std::array<std::uint64_t, kWords>> next(kNodes);
  for (std::uint32_t t = 0; t < 64 * kWords; ++t) have[t % kNodes][t / 64] |= 1ULL << (t % 64);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges(kEdges);
  for (auto& e : edges) {
    e = {static_cast<std::uint32_t>(rng.next() % kNodes),
         static_cast<std::uint32_t>(rng.next() % kNodes)};
  }
  std::vector<std::uint32_t> offset(kNodes + 1);
  std::vector<std::uint32_t> fill(kNodes);
  std::vector<std::uint32_t> adjacent(2 * kEdges);
  std::uint64_t known = 0;
  for (int round = 0; round < 32; ++round) {
    for (std::uint32_t c = 0; c < kNodes / 8; ++c) {
      edges[rng.next() % kEdges] = {static_cast<std::uint32_t>(rng.next() % kNodes),
                                    static_cast<std::uint32_t>(rng.next() % kNodes)};
    }
    std::fill(offset.begin(), offset.end(), 0);
    for (const auto& [a, b] : edges) {
      ++offset[a + 1];
      ++offset[b + 1];
    }
    for (std::uint32_t v = 0; v < kNodes; ++v) offset[v + 1] += offset[v];
    std::copy(offset.begin(), offset.end() - 1, fill.begin());
    for (const auto& [a, b] : edges) {
      adjacent[fill[a]++] = b;
      adjacent[fill[b]++] = a;
    }
    next = have;
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      const std::uint32_t degree = offset[v + 1] - offset[v];
      if (degree == 0) continue;
      const std::uint32_t to = adjacent[offset[v] + rng.next() % degree];
      for (int w = 0; w < kWords; ++w) next[to][w] |= have[v][w];
    }
    have.swap(next);
    for (const auto& tokens : have) {
      for (const std::uint64_t word : tokens) known += static_cast<std::uint64_t>(std::popcount(word));
    }
  }
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (int i = 0; i < 5000; ++i) counts[rng.next() % 12000] += known;
  std::vector<std::string> names;
  for (int i = 0; i < 1500; ++i) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(rng.next()));
    names.emplace_back(buf);
  }
  std::sort(names.begin(), names.end());
  const double seconds = seconds_between(begin, Clock::now());
  if (names.front().size() + counts.size() == 0) std::abort();  // keeps the work
  return seconds;
}

/// Median of five runs of the probe kernel on the calling thread, so that
/// one preempted run does not move it.
double probe_kernel_s() {
  std::array<double, 5> runs{};
  for (double& run : runs) run = probe_kernel_once_s();
  std::nth_element(runs.begin(), runs.begin() + 2, runs.end());
  return runs[2];
}

/// One host-speed probe point.  Each vCPU of a virtual machine on a shared
/// host can change speed on its own, by tens of percent within seconds and
/// up to twofold between hours.  run.py pins each workload to the CPUs it uses; a
/// point runs the probe kernel on each CPU the calling thread may use
/// (concurrently, one pinned thread per CPU) and returns the mean, and
/// run.py scales each end-to-end timing of a run by the kernel's reference
/// time over the run's median point.
double host_probe_s() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() <= 1) return probe_kernel_s();
  std::vector<double> times(cpus.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads.emplace_back([&times, &cpus, i] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        times[i] = probe_kernel_s();
      });
    }
  }
  double sum = 0.0;
  for (const double t : times) sum += t;
  return sum / static_cast<double>(times.size());
}

dg::JsonValue num_array(const std::vector<double>& values) {
  dg::JsonValue out = dg::JsonValue::array();
  for (const double v : values) out.push(num(v));
  return out;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

/// An integer flag the caller must give.
std::int64_t required_int(const dg::CliArgs& args, const std::string& name) {
  if (!args.has(name)) throw std::runtime_error("--" + name + " is required");
  return args.get_int(name, 0);
}

std::vector<std::uint64_t> split_u64(const std::string& text) {
  std::vector<std::uint64_t> out;
  for (const std::string& p : split(text, ',')) out.push_back(std::stoull(p));
  return out;
}

/// Thrown by a set-up probe when the first adversary call returns:
/// everything the run constructed unwinds, and no round has been played.
struct SetupReached {};

/// Timing decorator around a registry-built adversary.  Records when each
/// round call starts (so successive starts delimit one engine round or one
/// async schedule window), the time spent inside the wrapped call, and the
/// time of the first call (the end of the trial's set-up).  A probe
/// decorator forwards the first call, notes when it returned, and throws
/// SetupReached instead of returning its graph.
class TimedAdversary final : public dg::Adversary {
 public:
  explicit TimedAdversary(dg::Adversary& inner, bool probe = false)
      : inner_(inner), probe_(probe) {}

  [[nodiscard]] std::size_t num_nodes() const override { return inner_.num_nodes(); }

  [[nodiscard]] const dg::Graph& broadcast_round(
      const dg::BroadcastRoundView& view) override {
    const Clock::time_point begin = mark();
    return close(begin, inner_.broadcast_round(view));
  }

  [[nodiscard]] const dg::Graph& unicast_round(
      const dg::UnicastRoundView& view) override {
    const Clock::time_point begin = mark();
    return close(begin, inner_.unicast_round(view));
  }

  /// Closes the last round at `end` (the run's return).
  void finish(Clock::time_point end) {
    if (calls_ > 0) round_s_.push_back(seconds_between(last_, end));
  }

  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }
  [[nodiscard]] Clock::time_point first_call() const noexcept { return first_; }
  [[nodiscard]] Clock::time_point first_return() const noexcept { return first_return_; }
  [[nodiscard]] double inside_s() const noexcept { return inside_s_; }
  [[nodiscard]] const std::vector<double>& round_s() const noexcept { return round_s_; }

 private:
  Clock::time_point mark() {
    const Clock::time_point now = Clock::now();
    if (calls_++ == 0) {
      first_ = now;
    } else {
      round_s_.push_back(seconds_between(last_, now));
    }
    last_ = now;
    return now;
  }

  const dg::Graph& close(Clock::time_point begin, const dg::Graph& g) {
    const Clock::time_point end = Clock::now();
    inside_s_ += seconds_between(begin, end);
    if (probe_) {
      first_return_ = end;
      throw SetupReached{};
    }
    return g;
  }

  dg::Adversary& inner_;
  bool probe_;
  std::size_t calls_ = 0;
  Clock::time_point first_;
  Clock::time_point first_return_;
  Clock::time_point last_;
  double inside_s_ = 0.0;
  std::vector<double> round_s_;
};

/// The frontier schedule: churn over 8n edges, n/8 of them replaced per round.
std::string frontier_churn(std::size_t n) {
  return "churn:churn=" + std::to_string(n / 8) + ",edges=" + std::to_string(8 * n);
}

/// One timed run_algo trial: builds the adversary, wraps it, runs, and
/// reports counts, the payload checksum and the decorator's timings.
dg::JsonValue timed_trial(const dg::AlgoSpec& algo, const std::string& adversary,
                          std::size_t n, std::uint32_t k, std::uint64_t seed,
                          const std::string& timeline_path) {
  dg::TimelineRecorder recorder;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  dg::AdversaryBuildContext bctx;
  bctx.n = n;
  bctx.seed = seed;
  const std::unique_ptr<dg::Adversary> built =
      dg::AdversaryRegistry::global().build(adversary, bctx);
  TimedAdversary timed(*built);
  dg::AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.seed = seed;
  if (!timeline_path.empty()) ctx.telemetry.timeline = &recorder;
  const dg::RunResult res = dg::run_algo(algo, ctx, timed);
  const Clock::time_point t1 = Clock::now();
  timed.finish(t1);
  const double cpu1 = cpu_seconds();

  bool exhausted = false;
  if (const auto* trace = dynamic_cast<const dg::TraceAdversary*>(built.get())) {
    exhausted = trace->exhausted();
  }
  if (!timeline_path.empty()) {
    const std::string error = recorder.write_file(timeline_path);
    if (!error.empty()) throw std::runtime_error("timeline: " + error);
  }

  const double setup_s =
      timed.calls() > 0 ? seconds_between(t0, timed.first_call()) : 0.0;
  const dg::RunMetrics& m = res.metrics;
  dg::JsonValue doc = dg::JsonValue::object();
  doc.set("seed", num(static_cast<double>(seed)));
  doc.set("status", dg::JsonValue::str(dg::run_status_name(m.status)));
  doc.set("checksum", dg::JsonValue::str(dg::checksum_hex(
                          dg::run_payload_checksum(n, ctx.k_realized, res))));
  doc.set("rounds", num(static_cast<double>(m.rounds)));
  doc.set("messages", num(static_cast<double>(m.total_messages())));
  doc.set("activations", num(static_cast<double>(m.virtual_steps)));
  doc.set("tc", num(static_cast<double>(m.tc)));
  doc.set("adversary_calls", num(static_cast<double>(timed.calls())));
  doc.set("schedule_exhausted", dg::JsonValue::boolean(exhausted));
  doc.set("setup_s", num(setup_s));
  doc.set("run_s", num(seconds_between(t0, t1) - setup_s));
  doc.set("cpu_s", num(cpu1 - cpu0));
  doc.set("adversary_s", num(timed.inside_s()));
  doc.set("round_s", num_array(timed.round_s()));
  return doc;
}

/// Time from the start of adversary construction to the return of the
/// first adversary call: building the schedule, the algorithm's nodes, the
/// engine and the first round's graph.
double setup_probe(const dg::AlgoSpec& algo, const std::string& adversary,
                   std::size_t n, std::uint32_t k, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  dg::AdversaryBuildContext bctx;
  bctx.n = n;
  bctx.seed = seed;
  const std::unique_ptr<dg::Adversary> built =
      dg::AdversaryRegistry::global().build(adversary, bctx);
  TimedAdversary probe(*built, /*probe=*/true);
  dg::AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.seed = seed;
  try {
    (void)dg::run_algo(algo, ctx, probe);
  } catch (const SetupReached&) {
    return seconds_between(t0, probe.first_return());
  }
  throw std::runtime_error("set-up probe: the run never called its adversary");
}

std::string timeline_file(const dg::CliArgs& args, std::size_t trial) {
  const std::string dir = args.get_string("timeline-dir", "");
  return dir.empty() ? "" : dir + "/trial" + std::to_string(trial) + ".json";
}

int cmd_frontier(const dg::CliArgs& args) {
  args.allow_only({"n", "k", "seeds", "setup-reps", "timeline-dir"},
                  "frontier --n --k --seeds [--setup-reps] [--timeline-dir]");
  const auto n = static_cast<std::size_t>(required_int(args, "n"));
  const auto k = static_cast<std::uint32_t>(required_int(args, "k"));
  const std::string adversary = frontier_churn(n);
  const dg::AlgoSpec algo = dg::AlgoSpec::parse("single_source");
  const std::vector<std::uint64_t> seeds = split_u64(args.get_string("seeds", ""));
  if (seeds.empty()) throw std::runtime_error("--seeds names no seed");
  std::vector<double> setup_s;
  const auto reps = static_cast<std::size_t>(args.get_int("setup-reps", 0));
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const std::uint64_t seed : seeds) {
      setup_s.push_back(setup_probe(algo, adversary, n, k, seed));
    }
  }
  dg::JsonValue trials = dg::JsonValue::array();
  std::vector<double> host_s{host_probe_s()};
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    trials.push(timed_trial(algo, adversary, n, k, seeds[i], timeline_file(args, i)));
    host_s.push_back(host_probe_s());
  }
  dg::JsonValue doc = dg::JsonValue::object();
  doc.set("adversary", dg::JsonValue::str(adversary));
  doc.set("setup_probe_s", num_array(setup_s));
  doc.set("host_s", num_array(host_s));
  doc.set("trials", std::move(trials));
  doc.set("peak_rss_mb", num(peak_rss_mb()));
  std::cout << doc.dump() << "\n";
  return 0;
}

int cmd_async(const dg::CliArgs& args) {
  args.allow_only({"k", "traces", "seeds", "timeline-dir"},
                  "async --k --traces --seeds [--timeline-dir]");
  const auto k = static_cast<std::uint32_t>(required_int(args, "k"));
  const dg::AlgoSpec algo = dg::AlgoSpec::parse("async_push_pull");
  const std::vector<std::string> traces = split(args.get_string("traces", ""), ',');
  const std::vector<std::uint64_t> seeds = split_u64(args.get_string("seeds", ""));
  if (traces.size() != seeds.size()) throw std::runtime_error("one seed per trace");
  dg::JsonValue trials = dg::JsonValue::array();
  std::vector<double> host_s{host_probe_s()};
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::size_t n = dg::open_trace_source(traces[i])->header().n;
    trials.push(timed_trial(algo, "trace:file=" + traces[i], n, k, seeds[i],
                            timeline_file(args, i)));
    host_s.push_back(host_probe_s());
  }
  dg::JsonValue doc = dg::JsonValue::object();
  doc.set("algo", dg::JsonValue::str(algo.to_string()));
  doc.set("host_s", num_array(host_s));
  doc.set("trials", std::move(trials));
  doc.set("peak_rss_mb", num(peak_rss_mb()));
  std::cout << doc.dump() << "\n";
  return 0;
}

/// Replays rounds 1..R of the frontier churn schedule through the three
/// graph-layer calls every sync-engine round makes, timing each call.
int cmd_graph(const dg::CliArgs& args) {
  args.allow_only({"n", "seed", "rounds"}, "graph --n --seed --rounds");
  const auto n = static_cast<std::size_t>(required_int(args, "n"));
  const auto rounds = static_cast<dg::Round>(required_int(args, "rounds"));
  dg::AdversaryBuildContext bctx;
  bctx.n = n;
  bctx.seed = static_cast<std::uint64_t>(required_int(args, "seed"));
  const std::unique_ptr<dg::Adversary> adversary =
      dg::AdversaryRegistry::global().build(frontier_churn(n), bctx);
  dg::RoundGraphView view;
  dg::ConnectivityChecker checker;
  dg::DynamicGraphTracker tracker(n);
  std::vector<double> rebuild_s;
  std::vector<double> connectivity_s;
  std::vector<double> advance_s;
  bool connected = true;
  for (dg::Round r = 1; r <= rounds; ++r) {
    dg::UnicastRoundView round_view;
    round_view.round = r;
    const dg::Graph& g = adversary->unicast_round(round_view);
    const Clock::time_point a = Clock::now();
    view.rebuild(g);
    const Clock::time_point b = Clock::now();
    connected = checker.is_connected(view) && connected;
    const Clock::time_point c = Clock::now();
    (void)tracker.advance(view, r);
    const Clock::time_point d = Clock::now();
    rebuild_s.push_back(seconds_between(a, b));
    connectivity_s.push_back(seconds_between(b, c));
    advance_s.push_back(seconds_between(c, d));
  }
  dg::JsonValue doc = dg::JsonValue::object();
  doc.set("connected", dg::JsonValue::boolean(connected));
  doc.set("tc", num(static_cast<double>(tracker.topological_changes())));
  doc.set("rebuild_s", num_array(rebuild_s));
  doc.set("connectivity_s", num_array(connectivity_s));
  doc.set("advance_s", num_array(advance_s));
  std::cout << doc.dump() << "\n";
  return 0;
}

/// One served request as the client saw it.  Times are seconds from the
/// request's connect, except end_s (from the start of the load);
/// accepted/first-row are recorded only with --spans.
struct ServedRequest {
  double latency_s = 0.0;
  double end_s = 0.0;
  double accepted_s = -1.0;
  double first_row_s = -1.0;
  std::vector<std::string> rows;  ///< raw row lines, parsed after the run
  std::string done;               ///< the terminal line ("" if none)
  std::string error;              ///< client-side failure
};

/// Owns one connected unix-socket descriptor.
class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("cannot open a socket for '" + path + "'");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("connect '" + path + "': " + std::strerror(errno));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t wrote = ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) throw std::runtime_error("connection lost while sending");
      off += static_cast<std::size_t>(wrote);
    }
  }

  /// Next '\n'-terminated line; false at end of stream.
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t at = buffer_.find('\n');
      if (at != std::string::npos) {
        line.assign(buffer_, 0, at);
        buffer_.erase(0, at + 1);
        return true;
      }
      char chunk[16384];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

ServedRequest serve_one(const std::string& socket_path, const std::string& request,
                        bool spans) {
  ServedRequest out;
  const Clock::time_point start = Clock::now();
  try {
    Connection conn(socket_path);
    conn.send_line(request);
    std::string line;
    while (conn.read_line(line)) {
      if (line.rfind("{\"type\":\"row\"", 0) == 0) {
        if (spans && out.rows.empty()) out.first_row_s = seconds_between(start, Clock::now());
        out.rows.push_back(std::move(line));
      } else if (line.rfind("{\"type\":\"accepted\"", 0) == 0) {
        if (spans) out.accepted_s = seconds_between(start, Clock::now());
      } else {
        out.done = std::move(line);
        break;
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.latency_s = seconds_between(start, Clock::now());
  return out;
}

/// Sends the request lines of --requests one at a time, each when the
/// previous one is done (one closed-loop client).  Prints per-request
/// latencies, the rows' checksums and cached flags, and the terminal line.
int cmd_serve_load(const dg::CliArgs& args) {
  args.allow_only({"socket", "requests", "spans", "probe-every"},
                  "serve-load --socket --requests [--spans] [--probe-every]");
  const std::string socket_path = args.get_string("socket", "");
  const bool spans = args.get_bool("spans", false);
  const auto probe_every = static_cast<std::size_t>(args.get_int("probe-every", 0));
  std::ifstream in(args.get_string("requests", ""));
  if (!in) throw std::runtime_error("cannot read --requests");
  std::vector<std::string> requests;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) requests.push_back(line);
  }
  std::vector<ServedRequest> served;
  served.reserve(requests.size());
  // Probe points sit between requests, while the service is idle; their
  // time is kept out of end_s and wall_s.
  std::vector<double> host_s;
  double probing_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i <= requests.size(); ++i) {
    if (probe_every > 0 && i % probe_every == 0) {
      const Clock::time_point before = Clock::now();
      host_s.push_back(host_probe_s());
      probing_s += seconds_between(before, Clock::now());
    }
    if (i == requests.size()) break;
    served.push_back(serve_one(socket_path, requests[i], spans));
    served.back().end_s = seconds_between(start, Clock::now()) - probing_s;
  }
  const double wall_s = seconds_between(start, Clock::now()) - probing_s;

  dg::JsonValue list = dg::JsonValue::array();
  for (const ServedRequest& r : served) {
    dg::JsonValue doc = dg::JsonValue::object();
    doc.set("latency_s", num(r.latency_s));
    doc.set("end_s", num(r.end_s));
    if (spans) {
      doc.set("accepted_s", num(r.accepted_s));
      doc.set("first_row_s", num(r.first_row_s));
    }
    dg::JsonValue checksums = dg::JsonValue::array();
    std::size_t cached = 0;
    bool completed = true;
    for (const std::string& line : r.rows) {
      const dg::JsonValue row = dg::JsonValue::parse(line);
      checksums.push(*row.find("checksum"));
      cached += row.find("cached")->as_bool() ? 1 : 0;
      completed = completed && row.find("status")->as_string() == "completed";
    }
    doc.set("checksums", std::move(checksums));
    doc.set("cached", num(static_cast<double>(cached)));
    doc.set("completed", dg::JsonValue::boolean(completed));
    doc.set("done", dg::JsonValue::str(r.error.empty() ? r.done : "client: " + r.error));
    list.push(std::move(doc));
  }
  dg::JsonValue doc = dg::JsonValue::object();
  doc.set("wall_s", num(wall_s));
  doc.set("host_s", num_array(host_s));
  doc.set("requests", std::move(list));
  std::cout << doc.dump() << "\n";
  return 0;
}

dg::RunKey key_of(const dg::SweepRequest& req, std::uint64_t seed) {
  return dg::make_run_key(dg::AlgoSpec::parse(req.algo).to_string(),
                          dg::AdversarySpec::parse(req.adversary).to_string(),
                          dg::FaultSpec::parse(req.fault).to_string(), req.n,
                          req.k, req.sources, req.cap, seed);
}

/// The row the service would compute for (req, seed), run directly.
dg::CachedResult direct_row(const dg::SweepRequest& req, std::uint64_t seed) {
  dg::AdversaryBuildContext bctx;
  bctx.n = req.n;
  bctx.seed = seed;
  const std::unique_ptr<dg::Adversary> adversary =
      dg::AdversaryRegistry::global().build(req.adversary, bctx);
  dg::FaultPlan plan(dg::FaultSpec::parse(req.fault), req.n, seed);
  dg::AlgoBuildContext ctx;
  ctx.n = req.n;
  ctx.k = req.k;
  ctx.sources = req.sources;
  ctx.cap = req.cap;
  ctx.seed = seed;
  ctx.faults = &plan;
  const dg::RunResult res = dg::run_algo(dg::AlgoSpec::parse(req.algo), ctx, *adversary);
  return dg::make_cached_result(req.n, ctx.k_realized, res);
}

/// Script lines are {"class": "hit"|"miss", "request": <wire request>}.
/// Prints, per script line, the direct rows' checksums, plus per-call
/// ResultCache::lookup timings for the hit keys (against --lookup-dir, a
/// copy of the service's store) and ResultCache::store timings for the
/// miss rows (into the empty --store-dir).  The direct runs are spread over
/// a 4-thread pool; the cache calls are timed one at a time afterwards.
int cmd_serve_check(const dg::CliArgs& args) {
  args.allow_only({"script", "lookup-dir", "store-dir"},
                  "serve-check --script --lookup-dir --store-dir");
  std::ifstream in(args.get_string("script", ""));
  if (!in) throw std::runtime_error("cannot read --script");
  struct Row {
    dg::SweepRequest req;
    std::uint64_t seed = 0;
    bool hit = false;
    dg::CachedResult result;
  };
  std::vector<Row> rows;
  std::vector<std::size_t> rows_per_line;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const dg::JsonValue entry = dg::JsonValue::parse(line);
    const bool hit = entry.find("class")->as_string() == "hit";
    const dg::SweepRequest req = dg::decode_sweep_request(entry.find("request")->dump());
    for (std::size_t i = 0; i < req.trials; ++i) {
      rows.push_back({req, req.seed_base + i, hit, {}});
    }
    rows_per_line.push_back(req.trials);
  }
  {
    dg::ThreadPool pool(4);
    dg::parallel_for(pool, rows.size(), [&rows](std::size_t i) {
      rows[i].result = direct_row(rows[i].req, rows[i].seed);
    });
  }

  dg::ResultCache lookup_cache(args.get_string("lookup-dir", ""));
  dg::ResultCache store_cache(args.get_string("store-dir", ""));
  std::vector<double> lookup_s;
  std::vector<double> store_s;
  std::size_t lookup_misses = 0;
  for (const Row& row : rows) {
    const dg::RunKey key = key_of(row.req, row.seed);
    const Clock::time_point a = Clock::now();
    if (row.hit) {
      const std::optional<dg::CachedResult> got = lookup_cache.lookup(key);
      lookup_s.push_back(seconds_between(a, Clock::now()));
      if (!got || got->checksum != row.result.checksum) ++lookup_misses;
    } else {
      store_cache.store(key, row.result);
      store_s.push_back(seconds_between(a, Clock::now()));
    }
  }

  dg::JsonValue checksums = dg::JsonValue::array();
  std::size_t at = 0;
  for (const std::size_t count : rows_per_line) {
    dg::JsonValue line = dg::JsonValue::array();
    for (std::size_t i = 0; i < count; ++i, ++at) {
      line.push(dg::JsonValue::str(dg::checksum_hex(rows[at].result.checksum)));
    }
    checksums.push(std::move(line));
  }
  dg::JsonValue doc = dg::JsonValue::object();
  doc.set("checksums", std::move(checksums));
  doc.set("lookup_s", num_array(lookup_s));
  doc.set("lookup_misses", num(static_cast<double>(lookup_misses)));
  doc.set("store_s", num_array(store_s));
  std::cout << doc.dump() << "\n";
  return 0;
}

int cmd_probe(const dg::CliArgs& args) {
  args.allow_only({}, "probe");
  dg::JsonValue doc = dg::JsonValue::object();
  doc.set("host_s", num_array({host_probe_s(), host_probe_s(), host_probe_s()}));
  std::cout << doc.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness <frontier|async|probe|graph|serve-load|serve-check> [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  const dg::CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "frontier") return cmd_frontier(args);
    if (command == "async") return cmd_async(args);
    if (command == "probe") return cmd_probe(args);
    if (command == "graph") return cmd_graph(args);
    if (command == "serve-load") return cmd_serve_load(args);
    if (command == "serve-check") return cmd_serve_check(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
