// Substrate microbenchmarks (google-benchmark): the per-round primitives
// that dominate simulation cost — bitset algebra, union-find, graph
// generation, free-edge analysis, the CSR round-snapshot path, and full
// engine rounds.
//
// The *Legacy benches reproduce the pre-CSR per-round idiom (per-node
// allocate-and-sort, hash-map classifier state) so the snapshot refactor's
// win stays measurable: compare BM_RoundSnapshotLegacy vs BM_RoundSnapshotCsr
// and BM_ClassifierRoundLegacyMap vs BM_ClassifierRound at the same size.
//
// Two further paired families guard the frontier work (docs/PERFORMANCE.md):
//   BM_BitsetSparse* vs BM_KnowledgeSetSparse*  — dense bitset vs the hybrid
//     KnowledgeSet on the xlarge regime's sparse sets (universe 10⁵, a few
//     hundred members), where whole-word scans dominate the bitset.
//   BM_*EngineRoundFrontier vs *FrontierSharded — one engine round at
//     n up to 10⁵ serial vs sharded across a worker pool (the sharded case
//     only wins on multi-core hosts; on one core it measures fork/join
//     overhead, which is the other number worth tracking).
//   BM_ChurnRound, BM_TrackerAdvance, BM_ComponentsCsr, BM_ComponentsGraph
//     — the adversary step, the full-path topology diff, and the
//     connectivity BFS of a churn round over the engine's CSR snapshot and
//     over the adversary's working Graph, at 8n and a sparse 3n edges.  The
//     BFS is the one walk every round still pays, though it scans only part
//     of the arcs; the snapshot and the diff are O(n + m) only on the full
//     path.
//   BM_IngestDelta vs BM_IngestRebuild — the engine's snapshot + tracker
//     ingest of one churn round from the committed graph's net delta (a
//     bucket and locate pass, then one segment-copy pass each over the CSR
//     targets and the insertion rounds) vs the full path (scatter rebuild
//     + block-by-block diff), at the perfbench frontier shape (n = 512,
//     8n edges) and async_trace shape (n = 2048, 4n edges), n/8 cuts per
//     round each.
//   BM_SyncRoundTrial vs BM_AsyncEventLoopTrial — one full single-source
//     trial through the synchronous round engine vs the continuous-time
//     event loop at matched n, pricing the two engine planes side by side.
//   BM_EventQueueSteady, BM_NthSetWord — the async event loop's two
//     per-activation primitives: one pop plus re-push of the calendar
//     queue, and one token pick inside a 64-token knowledge word.
//   BM_MultiSourceRound — one Multi-Source-Unicast engine round, averaged
//     over whole runs, on n-gossip (s = n = 128) and on table1's k = n²
//     phase-2 shape (16 centers owning interleaved token lists).
//   BM_CacheLookupHit, BM_EncodeRow, BM_WriteIndex — the three costs of a
//     served cache hit and of the sweep that follows a miss: one
//     ResultCache::lookup of a stored entry (file read plus full decode),
//     one protocol row line, and one index.jsonl rewrite over the 832
//     entries perfbench's serve_mix store reaches, through a fresh handle
//     (every entry read; /0) and through the handle that stored them
//     (index memo; /1).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "adversary/churn.hpp"
#include "adversary/lb_adversary.hpp"
#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "async/event_queue.hpp"
#include "cache/memo_sweep.hpp"
#include "cache/result_cache.hpp"
#include "async/poisson_clock.hpp"
#include "common/disjoint_set.hpp"
#include "common/dynamic_bitset.hpp"
#include "common/knowledge_set.hpp"
#include "common/rng.hpp"
#include "core/flooding.hpp"
#include "core/knowledge.hpp"
#include "core/multi_source.hpp"
#include "core/single_source.hpp"
#include "engine/broadcast_engine.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"
#include "graph/generators.hpp"
#include "graph/round_view.hpp"
#include "metrics/potential.hpp"
#include "serve/protocol.hpp"
#include "sim/runner/thread_pool.hpp"

namespace dyngossip {
namespace {

void BM_BitsetUnionCount(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  DynamicBitset a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.bernoulli(0.3)) a.set(i);
    if (rng.bernoulli(0.3)) b.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.union_count(b));
  }
}
BENCHMARK(BM_BitsetUnionCount)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BitsetSetTest(benchmark::State& state) {
  DynamicBitset b(65536);
  Rng rng(2);
  for (auto _ : state) {
    const std::size_t pos = rng.next_below(65536);
    b.set(pos);
    benchmark::DoNotOptimize(b.test(pos ^ 1));
  }
}
BENCHMARK(BM_BitsetSetTest);

void BM_DisjointSetUnions(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    DisjointSet dsu(n);
    for (std::size_t i = 0; i < n; ++i) {
      dsu.unite(rng.next_below(n), rng.next_below(n));
    }
    benchmark::DoNotOptimize(dsu.component_count());
  }
}
BENCHMARK(BM_DisjointSetUnions)->Arg(256)->Arg(4096);

void BM_ConnectedErdosRenyi(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(connected_erdos_renyi(n, 4.0 / static_cast<double>(n), rng));
  }
}
BENCHMARK(BM_ConnectedErdosRenyi)->Arg(128)->Arg(512);

void BM_ChurnRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 5;
  ChurnAdversary adversary(cc);
  UnicastRoundView view;
  Round r = 0;
  for (auto _ : state) {
    view.round = ++r;
    benchmark::DoNotOptimize(adversary.unicast_round(view));
  }
}
BENCHMARK(BM_ChurnRound)->Arg(128)->Arg(512);

/// CSR snapshots of the first `rounds` rounds of a frontier-shaped churn
/// schedule (8n edges, n/8 cuts per round).
std::vector<RoundGraphView> churn_snapshots(std::size_t n, Round rounds) {
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 8 * n;
  cc.churn_per_round = n / 8;
  cc.seed = 5;
  ChurnAdversary adversary(cc);
  std::vector<RoundGraphView> views(rounds);
  UnicastRoundView round_view;
  for (Round r = 1; r <= rounds; ++r) {
    round_view.round = r;
    views[r - 1].rebuild(adversary.unicast_round(round_view));
  }
  return views;
}

/// The engine's per-round topology ingest alone: a tracker advance over
/// pre-built churn snapshots.  Every 64 rounds the replay restarts on a
/// fresh tracker, outside the timed region.
void BM_TrackerAdvance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr Round kRounds = 64;
  const std::vector<RoundGraphView> views = churn_snapshots(n, kRounds);
  auto tracker = std::make_unique<DynamicGraphTracker>(n);
  tracker->advance(views[0], 1);
  Round r = 1;
  for (auto _ : state) {
    if (r == kRounds) {
      state.PauseTiming();
      tracker = std::make_unique<DynamicGraphTracker>(n);
      tracker->advance(views[0], 1);
      r = 1;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(tracker->advance(views[r], r + 1).inserted.size());
    ++r;
  }
}
BENCHMARK(BM_TrackerAdvance)->Arg(512)->Arg(4096);

/// The first `rounds` graphs of a churn schedule (`degree`·n edges, n/8
/// cuts per round), as committed by the adversary: each copy keeps its
/// revision and its net delta from the round before.
std::vector<Graph> churn_rounds(std::size_t n, std::size_t degree, Round rounds) {
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = degree * n;
  cc.churn_per_round = n / 8;
  cc.seed = 5;
  ChurnAdversary adversary(cc);
  std::vector<Graph> out;
  UnicastRoundView view;
  for (Round r = 1; r <= rounds; ++r) {
    view.round = r;
    out.push_back(adversary.unicast_round(view));
  }
  return out;
}

/// Shared loop of the two ingest benches: brings a snapshot and a tracker
/// through rounds 2..64 of `graphs`, restarting on a fresh pair primed with
/// round 1 (untimed) after the last round.
void run_ingest_bench(benchmark::State& state, const std::vector<Graph>& graphs) {
  const auto n = graphs.front().num_nodes();
  RoundGraphView view;
  auto tracker = std::make_unique<DynamicGraphTracker>(n);
  const auto prime = [&] {
    view = RoundGraphView(graphs[0]);
    tracker = std::make_unique<DynamicGraphTracker>(n);
    tracker->advance(view, 1);
  };
  prime();
  Round r = 1;
  for (auto _ : state) {
    if (r == graphs.size()) {
      state.PauseTiming();
      prime();
      r = 1;
      state.ResumeTiming();
    }
    view.rebuild(graphs[r]);
    benchmark::DoNotOptimize(tracker->advance(view, r + 1).inserted.size());
    ++r;
  }
}

constexpr Round kIngestRounds = 64;

/// The committed graphs: every rebuild patches by the delta.
void BM_IngestDelta(benchmark::State& state) {
  const std::vector<Graph> graphs =
      churn_rounds(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)), kIngestRounds);
  run_ingest_bench(state, graphs);
}
BENCHMARK(BM_IngestDelta)->Args({512, 8})->Args({2048, 4});

/// The same edge sets rebuilt edge by edge into uncommitted graphs: every
/// rebuild is the full scatter, every advance the block diff.
void BM_IngestRebuild(benchmark::State& state) {
  std::vector<Graph> graphs;
  for (const Graph& g : churn_rounds(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(1)),
                                     kIngestRounds)) {
    graphs.emplace_back(g.num_nodes(), g.edges());
  }
  run_ingest_bench(state, graphs);
}
BENCHMARK(BM_IngestRebuild)->Args({512, 8})->Args({2048, 4});

/// The engines' per-round connectivity check: one BFS labelling of a CSR
/// snapshot.  It cycles through 64 churn rounds (n, degree·n edges),
/// because a walk repeated over one graph lets the branch predictor learn
/// it.
void BM_ComponentsCsr(benchmark::State& state) {
  std::vector<RoundGraphView> views;
  for (const Graph& g : churn_rounds(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(1)), 64)) {
    views.emplace_back(g);
  }
  ConnectivityChecker checker;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.components(views[i]).count);
    i = (i + 1) % views.size();
  }
}
BENCHMARK(BM_ComponentsCsr)->Args({512, 8})->Args({4096, 8})->Args({4096, 3});

/// The incremental adversaries' labelling of their working Graph over the
/// same 64 churn rounds.
void BM_ComponentsGraph(benchmark::State& state) {
  const std::vector<Graph> graphs =
      churn_rounds(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)), 64);
  ConnectivityChecker checker;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.components(graphs[i]).count);
    i = (i + 1) % graphs.size();
  }
}
BENCHMARK(BM_ComponentsGraph)->Args({512, 8})->Args({4096, 8})->Args({4096, 3});

void BM_FreeGraphAnalysis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = n;
  Rng rng(6);
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  const auto kprime = sample_kprime(n, k, 0.25, rng);
  std::vector<TokenId> intents(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto t = static_cast<TokenId>(rng.next_below(k));
    knowledge[v].set(t);
    intents[v] = t;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_free_graph(intents, knowledge, kprime));
  }
}
BENCHMARK(BM_FreeGraphAnalysis)->Arg(128)->Arg(512);

/// The pre-CSR engine read path: every node's sorted neighbor list is a
/// fresh allocation + comparison sort, every round.
void BM_RoundSnapshotLegacy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  const Graph g = random_connected_with_edges(n, 4 * n, rng);
  for (auto _ : state) {
    std::size_t sum = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::vector<NodeId> neigh = g.sorted_neighbors(v);
      sum += neigh.empty() ? 0 : neigh.front();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RoundSnapshotLegacy)->Arg(1024)->Arg(4096)->Arg(10000);

/// The CSR path: one O(n + m) rebuild into reused buffers, then sorted
/// spans for free.
void BM_RoundSnapshotCsr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  const Graph g = random_connected_with_edges(n, 4 * n, rng);
  RoundGraphView view;
  for (auto _ : state) {
    view.rebuild(g);
    std::size_t sum = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::span<const NodeId> neigh = view.neighbors(v);
      sum += neigh.empty() ? 0 : neigh.front();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RoundSnapshotCsr)->Arg(1024)->Arg(4096)->Arg(10000);

/// Full mutable-graph rebuild from an edge list (adversary-side cost).
void BM_GraphBuildFromEdges(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const std::vector<EdgeKey> edges =
      random_connected_with_edges(n, 4 * n, rng).sorted_edges();
  for (auto _ : state) {
    Graph g(n, edges);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GraphBuildFromEdges)->Arg(1024)->Arg(4096);

/// Drives n churn-varying neighbor lists through one round of the flat
/// parallel-array classifier (the production path).
void BM_ClassifierRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  Graph g = random_connected_with_edges(n, 4 * n, rng);
  RoundGraphView view;
  view.rebuild(g);
  std::vector<EdgeClassifier> classifiers(n);
  Round r = 0;
  for (auto _ : state) {
    ++r;
    std::size_t acc = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::span<const NodeId> neigh = view.neighbors(v);
      classifiers[v].begin_round(r, neigh);
      for (std::size_t slot = 0; slot < neigh.size(); ++slot) {
        acc += static_cast<std::size_t>(classifiers[v].classify_slot(slot));
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ClassifierRound)->Arg(1024)->Arg(4096);

/// The pre-refactor classifier idiom: unordered_map per node, erase-scan of
/// vanished edges, hash lookup per classify.
void BM_ClassifierRoundLegacyMap(benchmark::State& state) {
  struct EdgeState {
    Round inserted = kNoRound;
    bool contributed = false;
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  Graph g = random_connected_with_edges(n, 4 * n, rng);
  RoundGraphView view;
  view.rebuild(g);
  std::vector<std::unordered_map<NodeId, EdgeState>> edges(n);
  Round r = 0;
  for (auto _ : state) {
    ++r;
    std::size_t acc = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::span<const NodeId> neigh = view.neighbors(v);
      auto& map = edges[v];
      for (auto it = map.begin(); it != map.end();) {
        if (!std::binary_search(neigh.begin(), neigh.end(), it->first)) {
          it = map.erase(it);
        } else {
          ++it;
        }
      }
      for (const NodeId w : neigh) map.try_emplace(w, EdgeState{r, false});
      for (const NodeId w : neigh) {
        const EdgeState& st = map.find(w)->second;
        acc += st.inserted + 1 >= r ? 0 : (st.contributed ? 2 : 1);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ClassifierRoundLegacyMap)->Arg(1024)->Arg(4096);

/// Word-scan cursor over set bits vs materializing the positions vector.
void BM_BitsetIterateCursor(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  DynamicBitset b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.bernoulli(0.3)) b.set(i);
  }
  for (auto _ : state) {
    std::size_t sum = 0;
    for (const std::size_t pos : b.set_bits()) sum += pos;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitsetIterateCursor)->Arg(4096)->Arg(65536);

void BM_BitsetIterateMaterialized(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  DynamicBitset b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.bernoulli(0.3)) b.set(i);
  }
  for (auto _ : state) {
    std::size_t sum = 0;
    for (const std::size_t pos : b.set_positions()) sum += pos;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitsetIterateMaterialized)->Arg(4096)->Arg(65536);

/// Paired dispatch-overhead cases: one complete Algorithm-1 trial under
/// churn, constructed directly vs dispatched through the algorithm
/// registry (spec parse + validate + factory per trial — exactly what a
/// scenario's per-trial job pays under an --algo override).  The pair
/// guards against registry dispatch creeping into the per-trial hot path:
/// the two cases must stay within noise of each other.
ChurnConfig algo_dispatch_churn(std::size_t n, std::uint64_t seed) {
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 3 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = seed;
  return cc;
}

void BM_AlgoTrialDirect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(2 * n);
  std::uint64_t seed = 600;
  for (auto _ : state) {
    ChurnAdversary adversary(algo_dispatch_churn(n, ++seed));
    const SingleSourceConfig cfg{n, k, 0};
    UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                         SingleSourceNode::initial_knowledge(cfg), k);
    const RunMetrics m = engine.run(static_cast<Round>(200ull * n * k));
    benchmark::DoNotOptimize(m.unicast.total());
  }
}
BENCHMARK(BM_AlgoTrialDirect)->Arg(48)->Arg(96);

void BM_AlgoTrialRegistry(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(2 * n);
  std::uint64_t seed = 600;
  for (auto _ : state) {
    ChurnAdversary adversary(algo_dispatch_churn(n, ++seed));
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = static_cast<Round>(200ull * n * k);
    ctx.seed = seed;
    const RunResult r =
        run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
    benchmark::DoNotOptimize(r.metrics.unicast.total());
  }
}
BENCHMARK(BM_AlgoTrialRegistry)->Arg(48)->Arg(96);

/// Paired sync-vs-async trial cases at matched n: one complete
/// single-source spread through the synchronous unicast round engine
/// (neighbor_exchange — the push baseline) vs through the continuous-time
/// event loop (async_push) on the same static schedule.  Both dispatch via
/// run_algo, so the pair prices a full trial of each engine plane: round
/// barriers + full neighborhood exchanges against event-queue pops + one
/// contact per Poisson activation.  The absolute ratio is model-dependent (the
/// engines do different amounts of protocol work per trial); what the pair
/// guards is each side's trend against itself.
void BM_SyncRoundTrial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(8);
  std::uint64_t seed = 700;
  for (auto _ : state) {
    std::unique_ptr<Adversary> adversary =
        build_adversary(AdversarySpec{"static", {}}, n, ++seed);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.sources = 1;
    ctx.seed = seed;
    const RunResult r =
        run_algo(AlgoSpec::parse("neighbor_exchange"), ctx, *adversary);
    benchmark::DoNotOptimize(r.metrics.unicast.total());
  }
}
BENCHMARK(BM_SyncRoundTrial)->Arg(64)->Arg(128);

void BM_AsyncEventLoopTrial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(8);
  std::uint64_t seed = 700;
  for (auto _ : state) {
    std::unique_ptr<Adversary> adversary =
        build_adversary(AdversarySpec{"static", {}}, n, ++seed);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.sources = 1;
    ctx.seed = seed;
    const RunResult r =
        run_algo(AlgoSpec::parse("async_push"), ctx, *adversary);
    benchmark::DoNotOptimize(r.metrics.unicast.total());
  }
}
BENCHMARK(BM_AsyncEventLoopTrial)->Arg(64)->Arg(128);

/// The async engine's steady state: n pending events (one per node), and
/// each iteration pops the earliest and re-pushes its node one Exp(1) gap
/// later.  Gaps come from a table of PoissonClock gaps keyed by the push
/// sequence number, so the loop prices the queue, not the hash.
void BM_EventQueueSteady(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PoissonClock clock(17, 1.0);
  std::vector<double> gaps(1 << 16);
  for (std::size_t i = 0; i < gaps.size(); ++i) gaps[i] = clock.gap(0, i);
  const auto gap_of = [&gaps](std::uint64_t seq) {
    return gaps[(seq * 0x9e3779b97f4a7c15ull) >> 48];
  };
  EventQueue queue(n, 1.0);
  std::uint64_t seq = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    queue.push({gap_of(seq), v, seq});
    ++seq;
  }
  for (auto _ : state) {
    const ActivationEvent e = queue.pop();
    queue.push({e.time + gap_of(seq), e.node, seq});
    ++seq;
  }
}
BENCHMARK(BM_EventQueueSteady)->Arg(2048)->Arg(65536);

/// One nth_set over a 64-token knowledge set (a single word), cycling
/// through 1024 (fill, rank) pairs: 64 random fills of varied density and
/// a uniform rank below each fill's count.
void BM_NthSetWord(benchmark::State& state) {
  Rng rng(23);
  std::vector<DynamicBitset> sets;
  for (int i = 0; i < 64; ++i) {
    DynamicBitset b(64);
    const double p = (i + 1) / 64.0;
    for (std::size_t bit = 0; bit < 64; ++bit) {
      if (rng.bernoulli(p)) b.set(bit);
    }
    if (b.count() == 0) b.set(rng.next_below(64));
    sets.push_back(std::move(b));
  }
  std::vector<std::size_t> ranks(1024);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    ranks[i] = rng.next_below(sets[i & 63].count());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets[i & 63].nth_set(ranks[i]));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_NthSetWord);

void BM_BroadcastEngineRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = n;
  Rng rng(7);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[rng.next_below(n)].set(t);
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = n / 8;
  cc.seed = 8;
  ChurnAdversary adversary(cc);
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary, init, k);
  for (auto _ : state) {
    if (engine.all_complete()) {
      state.SkipWithError("completed before timing window ended");
      break;
    }
    benchmark::DoNotOptimize(engine.step());
  }
}
BENCHMARK(BM_BroadcastEngineRound)->Arg(128)->Arg(256);

void BM_UnicastEngineRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(4 * n);
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 9;
  ChurnAdversary adversary(cc);
  SingleSourceConfig cfg{n, k, 0};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), k);
  for (auto _ : state) {
    if (engine.all_complete()) {
      state.SkipWithError("completed before timing window ended");
      break;
    }
    benchmark::DoNotOptimize(engine.step());
  }
}
BENCHMARK(BM_UnicastEngineRound)->Arg(128)->Arg(256);

/// One Multi-Source-Unicast round on churn (4n edges, n/8 churned per
/// round, σ = 3).  Shape 0 is n-gossip at n = 128 (every node a source
/// with one token, two-word source rows); shape 1 is table1's k = n²
/// phase 2 at n = 32: 16 centers own the 1024 tokens as interleaved lists
/// (t mod 16) and every node starts with a sixteenth of the tokens, as
/// the walk phase leaves them.  A finished run is rebuilt outside the
/// timing window, so the number is the mean round cost over whole runs.
void BM_MultiSourceRound(benchmark::State& state) {
  const bool gossip = state.range(0) == 0;
  const std::size_t n = gossip ? 128 : 32;
  TokenSpacePtr space;
  std::vector<KnowledgeSet> initial;
  if (gossip) {
    std::vector<TokenSpace::SourceSpec> specs;
    for (std::size_t v = 0; v < n; ++v) specs.push_back({static_cast<NodeId>(v), 1});
    space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
    initial = space->initial_knowledge(n);
  } else {
    constexpr std::uint32_t k = 1024;
    constexpr std::size_t centers = 16;
    std::vector<std::pair<NodeId, std::vector<TokenId>>> lists(centers);
    for (std::size_t c = 0; c < centers; ++c) {
      lists[c].first = static_cast<NodeId>(2 * c);
    }
    for (TokenId t = 0; t < k; ++t) lists[t % centers].second.push_back(t);
    space = std::make_shared<TokenSpace>(k, std::move(lists));
    initial = space->initial_knowledge(n);
    Rng rng(19);
    for (KnowledgeSet& ks : initial) {
      for (TokenId t = 0; t < k; ++t) {
        if (rng.bernoulli(1.0 / 16.0)) ks.set(t);
      }
    }
  }
  const MultiSourceConfig cfg{n, space};
  std::unique_ptr<ChurnAdversary> adversary;
  std::unique_ptr<UnicastEngine> engine;
  std::uint64_t seed = 20;
  for (auto _ : state) {
    if (engine == nullptr || engine->all_complete()) {
      state.PauseTiming();
      engine.reset();
      ChurnConfig cc;
      cc.n = n;
      cc.target_edges = 4 * n;
      cc.churn_per_round = n / 8;
      cc.sigma = 3;
      cc.seed = ++seed;
      adversary = std::make_unique<ChurnAdversary>(cc);
      engine = std::make_unique<UnicastEngine>(
          MultiSourceNode::make_all_with(cfg, initial), *adversary, initial,
          space->total_tokens());
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(engine->step());
  }
}
BENCHMARK(BM_MultiSourceRound)->ArgName("shape")->Arg(0)->Arg(1);

/// Paired bitset-vs-hybrid cases on the xlarge regime's characteristic
/// shape: universe = n = 10⁵ but only a few hundred tokens known (k = 256,
/// most nodes early in a run).  DynamicBitset pays O(universe/64) word
/// scans per union_count/iteration regardless of membership; the sparse
/// KnowledgeSet representation pays O(members).  This pair is the
/// documented ≥2x win in docs/PERFORMANCE.md.
constexpr std::size_t kSparseUniverse = 100000;
constexpr std::size_t kSparseMembers = 256;

template <typename Set>
std::pair<Set, Set> make_sparse_pair() {
  Rng rng(14);
  Set a(kSparseUniverse), b(kSparseUniverse);
  for (std::size_t i = 0; i < kSparseMembers; ++i) {
    a.set(rng.next_below(kSparseUniverse));
    b.set(rng.next_below(kSparseUniverse));
  }
  return {std::move(a), std::move(b)};
}

void BM_BitsetSparseUnionCount(benchmark::State& state) {
  const auto [a, b] = make_sparse_pair<DynamicBitset>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.union_count(b));
  }
}
BENCHMARK(BM_BitsetSparseUnionCount);

void BM_KnowledgeSetSparseUnionCount(benchmark::State& state) {
  const auto [a, b] = make_sparse_pair<KnowledgeSet>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.union_count(b));
  }
}
BENCHMARK(BM_KnowledgeSetSparseUnionCount);

void BM_BitsetSparseIterate(benchmark::State& state) {
  const auto [a, b] = make_sparse_pair<DynamicBitset>();
  for (auto _ : state) {
    std::size_t sum = 0;
    for (const std::size_t pos : a.set_bits()) sum += pos;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitsetSparseIterate);

void BM_KnowledgeSetSparseIterate(benchmark::State& state) {
  const auto [a, b] = make_sparse_pair<KnowledgeSet>();
  for (auto _ : state) {
    std::size_t sum = 0;
    for (const std::size_t pos : a.set_bits()) sum += pos;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_KnowledgeSetSparseIterate);

void BM_BitsetSparseSubtract(benchmark::State& state) {
  const auto [a, b] = make_sparse_pair<DynamicBitset>();
  for (auto _ : state) {
    DynamicBitset c = a;
    c.subtract(b);
    benchmark::DoNotOptimize(c.count());
  }
}
BENCHMARK(BM_BitsetSparseSubtract);

void BM_KnowledgeSetSparseSubtract(benchmark::State& state) {
  const auto [a, b] = make_sparse_pair<KnowledgeSet>();
  for (auto _ : state) {
    KnowledgeSet c = a;
    c.subtract(b);
    benchmark::DoNotOptimize(c.count());
  }
}
BENCHMARK(BM_KnowledgeSetSparseSubtract);

/// Unicast engine rounds on the frontier regime (k = 256, 8n churn edges —
/// the xlarge scenario shape).  The engine is serial; the broadcast
/// benchmark below pairs its serial and sharded rounds.
UnicastEngine make_frontier_engine(std::size_t n) {
  const std::uint32_t k = 256;
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 8 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 15;
  // The adversary must outlive the engine; benchmarks run to process exit,
  // so a per-size leak through `new` is the simplest safe lifetime.
  auto* adversary = new ChurnAdversary(cc);
  SingleSourceConfig cfg{n, k, 0};
  return UnicastEngine(SingleSourceNode::make_all(cfg), *adversary,
                       SingleSourceNode::initial_knowledge(cfg), k);
}

void BM_UnicastEngineRoundFrontier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  UnicastEngine engine = make_frontier_engine(n);
  for (auto _ : state) {
    if (engine.all_complete()) {
      state.SkipWithError("completed before timing window ended");
      break;
    }
    benchmark::DoNotOptimize(engine.step());
  }
}
BENCHMARK(BM_UnicastEngineRoundFrontier)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_BroadcastEngineRoundFrontier(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 256;
  Rng rng(16);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[rng.next_below(n)].set(t);
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 8 * n;
  cc.churn_per_round = n / 8;
  cc.seed = 17;
  auto* adversary = new ChurnAdversary(cc);
  BroadcastEngineOptions opts;
  if (state.range(1) != 0) {
    static ThreadPool pool(
        std::max<std::size_t>(ThreadPool::hardware_threads(), 2));
    opts.pool = &pool;
    opts.min_parallel_nodes = 1;
  }
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), *adversary,
                         init, k, opts);
  for (auto _ : state) {
    if (engine.all_complete()) {
      state.SkipWithError("completed before timing window ended");
      break;
    }
    benchmark::DoNotOptimize(engine.step());
  }
}
BENCHMARK(BM_BroadcastEngineRoundFrontier)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMillisecond);

/// A finished serve_mix-shaped row (n = 24, k = 48) whose checksum
/// re-folds, so the cache's decode accepts it.
CachedResult cache_bench_row(std::uint64_t seed) {
  RunResult run;
  run.metrics.unicast.token = 1150 + seed % 97;
  run.metrics.unicast.completeness = 480;
  run.metrics.unicast.request = 310;
  run.metrics.tc = 9000 + seed % 13;
  run.metrics.learnings = 1104;
  run.metrics.rounds = 370;
  run.rounds = 370;
  run.metrics.completed = true;
  run.completed = true;
  run.metrics.status = RunStatus::kCompleted;
  run.metrics.coverage = 1.0;
  return make_cached_result(24, 48, run);
}

RunKey cache_bench_key(std::uint64_t seed) {
  return make_run_key("single_source", "churn", "fault", 24, 48, 4, 0, seed);
}

/// A fresh cache directory holding `entries` stored rows; removed with the
/// object.
struct BenchCacheDir {
  explicit BenchCacheDir(std::size_t entries)
      : path((std::filesystem::temp_directory_path() /
              ("dg_bench_cache_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
    cache = std::make_unique<ResultCache>(path);
    for (std::uint64_t seed = 0; seed < entries; ++seed) {
      cache->store(cache_bench_key(seed), cache_bench_row(seed));
    }
  }
  ~BenchCacheDir() {
    cache.reset();
    std::filesystem::remove_all(path);
  }
  BenchCacheDir(const BenchCacheDir&) = delete;
  BenchCacheDir& operator=(const BenchCacheDir&) = delete;
  std::string path;
  std::unique_ptr<ResultCache> cache;
};

void BM_CacheLookupHit(benchmark::State& state) {
  constexpr std::size_t kEntries = 128;  // one serve_mix hit request
  const BenchCacheDir dir(kEntries);
  std::vector<RunKey> keys;
  for (std::uint64_t seed = 0; seed < kEntries; ++seed) {
    keys.push_back(cache_bench_key(seed));
  }
  std::size_t at = 0;
  for (auto _ : state) {
    const std::optional<CachedResult> hit = dir.cache->lookup(keys[at]);
    if (!hit) {
      state.SkipWithError("stored entry missed");
      break;
    }
    benchmark::DoNotOptimize(hit->checksum);
    at = (at + 1) % kEntries;
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_EncodeRow(benchmark::State& state) {
  const CachedResult row = cache_bench_row(7);
  std::size_t trial = 0;
  for (auto _ : state) {
    const std::string line = encode_row(trial, 1000 + trial, true, row);
    benchmark::DoNotOptimize(line.data());
    trial = (trial + 1) % 128;
  }
}
BENCHMARK(BM_EncodeRow);

void BM_WriteIndex(benchmark::State& state) {
  const BenchCacheDir dir(static_cast<std::size_t>(state.range(0)));
  const bool memo = state.range(1) != 0;
  dir.cache->write_index();
  for (auto _ : state) {
    if (memo) {
      dir.cache->write_index();
    } else {
      const ResultCache fresh(dir.path);
      fresh.write_index();
    }
  }
}
BENCHMARK(BM_WriteIndex)
    ->Args({832, 0})
    ->Args({832, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dyngossip

BENCHMARK_MAIN();
