#include "serve/server.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/memo_sweep.hpp"
#include "fault/fault_spec.hpp"

namespace dyngossip {

std::uint64_t FairScheduler::open_session() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  queues_.emplace_back(id, std::deque<std::function<void()>>());
  return id;
}

void FairScheduler::close_session(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i].first != session) continue;
    if (!queues_[i].second.empty()) {
      // Still-queued trials may be deduped onto by other sessions; keep the
      // queue in the rotation until its tickets drain it, then let next()
      // retire it.
      closing_.insert(session);
      return;
    }
    queues_.erase(queues_.begin() + static_cast<std::ptrdiff_t>(i));
    if (rr_ > i) --rr_;
    if (!queues_.empty()) rr_ %= queues_.size();
    return;
  }
}

void FairScheduler::enqueue(std::uint64_t session,
                            std::function<void()> trial) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, queue] : queues_) {
    if (id == session) {
      queue.push_back(std::move(trial));
      return;
    }
  }
}

std::function<void()> FairScheduler::next() {
  std::lock_guard<std::mutex> lock(mu_);
  // Retire queues whose session closed after they drained.
  for (std::size_t i = 0; i < queues_.size();) {
    if (queues_[i].second.empty() && closing_.count(queues_[i].first) != 0) {
      closing_.erase(queues_[i].first);
      queues_.erase(queues_.begin() + static_cast<std::ptrdiff_t>(i));
      if (rr_ > i) --rr_;
    } else {
      ++i;
    }
  }
  if (queues_.empty()) return {};
  rr_ %= queues_.size();
  // One full rotation starting at the cursor: the first session with work
  // wins, and the cursor moves past it so its siblings go first next time.
  for (std::size_t step = 0; step < queues_.size(); ++step) {
    const std::size_t at = (rr_ + step) % queues_.size();
    if (queues_[at].second.empty()) continue;
    std::function<void()> trial = std::move(queues_[at].second.front());
    queues_[at].second.pop_front();
    rr_ = (at + 1) % queues_.size();
    return trial;
  }
  return {};
}

namespace {

/// Validates + canonicalizes the request's spec strings so cache keys match
/// the `dyngossip run` tables byte-for-byte.  Throws with a client-facing
/// message.
struct ResolvedSweep {
  std::string adversary_family;
  std::string algo_text;
  std::string adversary_text;
  std::string fault_text;
};

[[nodiscard]] ResolvedSweep resolve_sweep(const SweepRequest& req) {
  const AlgoSpec algo = AlgoSpec::parse(req.algo);
  AlgoRegistry::global().validate(algo);
  const AdversarySpec adversary = AdversarySpec::parse(req.adversary);
  AdversaryRegistry::global().validate(adversary);
  const std::string fault_text = FaultSpec::parse(req.fault).to_string();
  std::string why;
  if (!algo_schedule_compatible(*AlgoRegistry::global().find(algo.family),
                                adversary, &why)) {
    throw AlgoSpecError(why);
  }
  return {adversary.family, algo.to_string(), adversary.to_string(), fault_text};
}

}  // namespace

void SweepService::run_sweep(
    const SweepRequest& req,
    const std::function<void(const std::string&)>& emit,
    const std::function<void()>& flush) {
  ResolvedSweep sweep;
  try {
    sweep = resolve_sweep(req);
  } catch (const std::exception& e) {
    emit(encode_error(e.what()));
    return;
  }
  const bool cacheable = cacheable_adversary_family(sweep.adversary_family);

  // One slot per trial, resolved in admission order.  `pending` is null for
  // rows served straight from the cache.
  struct Slot {
    std::uint64_t seed = 0;
    bool cached = false;
    std::shared_ptr<Pending> pending;
    CachedResult row;
  };
  std::vector<Slot> slots(req.trials);
  std::size_t hits = 0;
  std::size_t misses = 0;
  const std::uint64_t session = scheduler_.open_session();

  for (std::size_t i = 0; i < req.trials; ++i) {
    Slot& slot = slots[i];
    slot.seed = req.seed_base + i;
    const RunKey key =
        make_run_key(sweep.algo_text, sweep.adversary_text, sweep.fault_text,
                     req.n, req.k, req.sources, req.cap, slot.seed);

    if (cacheable && cache_ != nullptr) {
      if (std::optional<CachedResult> hit = cache_->lookup(key)) {
        slot.row = *hit;
        slot.cached = true;
        ++hits;
        continue;
      }
    }

    slot.pending = std::make_shared<Pending>();
    slot.pending->key_text = key.canonical_text();
    if (cacheable) {
      // In-flight dedup: a second session requesting a key another session
      // is already computing just waits on the same Pending — its row
      // counts as a hit (it never re-ran).
      std::lock_guard<std::mutex> lock(inflight_mu_);
      const auto it = inflight_.find(key.digest());
      if (it != inflight_.end() &&
          it->second->key_text == key.canonical_text()) {
        slot.pending = it->second;
        slot.cached = true;
        ++hits;
        continue;
      }
      // An owner stores its row before it erases its inflight_ entry under
      // this lock, so a key that finished between the lookup above and
      // here is in the cache now: look again rather than recompute it.
      if (cache_ != nullptr) {
        if (std::optional<CachedResult> hit = cache_->lookup(key)) {
          slot.pending = nullptr;
          slot.row = *hit;
          slot.cached = true;
          ++hits;
          continue;
        }
      }
      inflight_[key.digest()] = slot.pending;
    }
    ++misses;

    const std::shared_ptr<Pending> pending = slot.pending;
    // The trial body (engines stay serial: the pool's workers are busy
    // running tickets, so intra-round sharding would nest the pool).
    scheduler_.enqueue(session, [this, pending, key, cacheable] {
      CachedResult row;
      std::string error;
      try {
        row = run_keyed(key, RunOptions{});
        if (cacheable && cache_ != nullptr &&
            cache_should_store(row.metrics.status)) {
          cache_->store(key, row);
        }
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (cacheable) {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        const auto it = inflight_.find(key.digest());
        if (it != inflight_.end() && it->second == pending) {
          inflight_.erase(it);
        }
      }
      std::lock_guard<std::mutex> lock(pending->mu);
      pending->done = true;
      pending->failed = !error.empty();
      pending->error = error;
      pending->row = row;
      pending->cv.notify_all();
    });
    pool_.submit([this] {
      if (std::function<void()> trial = scheduler_.next()) trial();
    });
  }

  emit(encode_accepted(req));
  for (std::size_t i = 0; i < req.trials; ++i) {
    Slot& slot = slots[i];
    if (slot.pending != nullptr) {
      std::unique_lock<std::mutex> lock(slot.pending->mu);
      if (!slot.pending->done && flush) {
        lock.unlock();  // a slow client must not hold up the trial's owner
        flush();
        lock.lock();
      }
      slot.pending->cv.wait(lock, [&] { return slot.pending->done; });
      if (slot.pending->failed) {
        scheduler_.close_session(session);
        emit(encode_error("trial " + std::to_string(i) + ": " +
                          slot.pending->error));
        return;
      }
      slot.row = slot.pending->row;
    }
    emit(encode_row(i, slot.seed, slot.cached, slot.row));
  }
  scheduler_.close_session(session);
  if (cacheable && cache_ != nullptr && misses > 0) cache_->write_index();
  emit(encode_done(hits, misses));
}

}  // namespace dyngossip
