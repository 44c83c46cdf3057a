// The sweep service behind `dyngossip serve`: schedules requested trials
// across the shared ThreadPool with round-robin fairness between concurrent
// client sessions, shares the content-addressed result cache, and
// deduplicates identical in-flight trials so overlapping requests compute
// each key at most once.
//
// Transport-free by design: run_sweep emits protocol lines through a
// callback, so the unix-socket layer (serve_cli) and the in-process tests
// drive the exact same code.  A flush callback marks where the sweep is
// about to wait, so the socket layer can batch the lines before it.
//
// Scheduling: every admitted trial becomes one "ticket" job on the pool; a
// ticket, when it runs, asks the FairScheduler for the next trial in
// round-robin session order.  A client that enqueues 100 trials therefore
// cannot starve one that enqueues 2 — tickets drain FIFO, but each ticket
// executes whichever session is next in the rotation.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "serve/protocol.hpp"
#include "sim/runner/thread_pool.hpp"

namespace dyngossip {

/// Round-robin trial queue across concurrent sessions (see file comment).
class FairScheduler {
 public:
  /// Opens a session queue; returns its id.
  [[nodiscard]] std::uint64_t open_session();

  /// Removes a session's (empty) queue from the rotation.
  void close_session(std::uint64_t session);

  /// Appends one trial to `session`'s queue.  The caller must submit one
  /// pool ticket per enqueued trial.
  void enqueue(std::uint64_t session, std::function<void()> trial);

  /// Pops the next trial in round-robin session order (empty function when
  /// every queue is drained — a benign race with tickets is impossible
  /// because tickets never outnumber enqueued trials).
  [[nodiscard]] std::function<void()> next();

 private:
  std::mutex mu_;
  std::uint64_t next_id_ = 1;
  /// Insertion-ordered rotation: (session id, queue).
  std::vector<std::pair<std::uint64_t, std::deque<std::function<void()>>>>
      queues_;
  /// Sessions closed while their queue still held work; next() retires
  /// their queues once drained (queued trials may be deduped onto by other
  /// sessions, so they are never dropped).
  std::set<std::uint64_t> closing_;
  std::size_t rr_ = 0;
};

/// Executes sweep requests against the pool + cache (see file comment).
/// Thread-safe: one instance serves every concurrent session.
class SweepService {
 public:
  /// `cache` may be null (no persistence; in-flight dedup still applies).
  SweepService(ThreadPool& pool, ResultCache* cache)
      : pool_(pool), cache_(cache) {}

  /// Runs one sweep, emitting protocol lines (without trailing newline)
  /// through `emit` in order: accepted, rows in trial order, done — or a
  /// terminal error line at any point.  Blocks until the sweep finishes.
  /// `flush`, when given, is called before the sweep blocks on a trial that
  /// is still running, so a transport that buffers the emitted lines can
  /// send the rows that are ready.
  void run_sweep(const SweepRequest& req,
                 const std::function<void(const std::string&)>& emit,
                 const std::function<void()>& flush = {});

 private:
  /// One in-flight (or finished) trial computation, shared by every session
  /// waiting on the same key.
  struct Pending {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    std::string error;
    CachedResult row;
    std::string key_text;  ///< collision guard for the digest-keyed map
  };

  ThreadPool& pool_;
  ResultCache* cache_;
  FairScheduler scheduler_;
  std::mutex inflight_mu_;
  std::map<std::uint64_t, std::shared_ptr<Pending>> inflight_;
};

}  // namespace dyngossip
