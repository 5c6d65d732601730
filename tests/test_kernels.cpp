#include "src/core/round_kernel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/graph/generators.hpp"

namespace beepmis::core {
namespace {

// The kernel contract: the round kernel at any shard count — one shard is
// the serial path — reproduces the reference executor (beep::Simulation
// running SelfStabMis / SelfStabMisTwoChannel under RngMode::Counter, which
// shares no code with the kernels) round for round: the same level vector,
// the same stabilization verdict and the same MIS, from any starting
// configuration, under full and half duplex, across mid-run corruption.
//
// The Lockstep tests run WITHOUT observers: that keeps the fast engines on
// the non-observing step, which on AVX-512 hosts routes the kernel through
// the dense SIMD sweep (kernel_simd.hpp) — so the sweep is proven against
// the oracle here, not just the indexed loops. The observed variants below
// additionally pin the per-round RoundEvent stream.

/// Shard-thread counts under test: inline serial (1), an even split (2), a
/// clipped last shard (3 — e.g. 1024 vertices are 16 words, cut 6/6/4; 160
/// vertices end mid-word) and the CI host's core count (4).
constexpr std::size_t kExecutors[] = {1, 2, 3, 4};

std::string label(std::size_t shard_threads) {
  return "sharded/" + std::to_string(shard_threads);
}

/// Captures an engine's per-round event stream for exact comparison.
struct EventLog final : obs::RoundObserver {
  std::vector<obs::RoundEvent> events;
  void on_round(const obs::RoundEvent& event) override {
    events.push_back(event);
  }
};

class Lockstep {
 public:
  /// `variant` picks the algorithm and its default ℓmax (GlobalDelta for
  /// Algorithm 1, TwoChannel for Algorithm 2); `observe` attaches an event
  /// log to every engine and compares the streams too.
  Lockstep(const graph::Graph& g, Variant variant, std::uint64_t seed,
           beep::Duplex duplex = beep::Duplex::Full,
           std::span<const std::size_t> executors = kExecutors,
           bool observe = false)
      : executors_(executors.begin(), executors.end()) {
    EngineConfig config;
    config.variant = variant;
    config.seed = seed;
    config.duplex = duplex;
    config.kind = EngineKind::Reference;
    oracle_ = make_engine(g, config);
    config.kind = EngineKind::Fast;
    for (std::size_t t : executors_) {
      config.shard_threads = t;
      fast_.push_back(make_engine(g, config));
    }
    if (observe) {
      logs_.resize(fast_.size() + 1);
      oracle_->set_observer(&logs_[0]);
      for (std::size_t i = 0; i < fast_.size(); ++i)
        fast_[i]->set_observer(&logs_[i + 1]);
    }
  }

  // Identical adversarial starting levels everywhere: the oracle corrupts
  // from a seeded stream, the executors copy its levels.
  void corrupt_init(std::uint64_t seed) {
    support::Rng c(seed);
    const std::size_t n = oracle_->graph().vertex_count();
    for (graph::VertexId v = 0; v < n; ++v) oracle_->corrupt(v, c);
    for (auto& e : fast_)
      for (graph::VertexId v = 0; v < n; ++v)
        e->set_level(v, oracle_->level(v));
  }

  void run(int rounds, const std::vector<int>& corrupt_at = {},
           std::size_t corrupt_count = 0) {
    // Each engine draws its faults from its own identically seeded stream.
    std::vector<support::Rng> frng(fast_.size() + 1, support::Rng(0xc0));
    const std::size_t n = oracle_->graph().vertex_count();
    for (int r = 0; r < rounds; ++r) {
      for (int cr : corrupt_at) {
        if (cr != r) continue;
        const auto want = corrupt_random(*oracle_, corrupt_count, frng[0]);
        for (std::size_t i = 0; i < fast_.size(); ++i)
          ASSERT_EQ(corrupt_random(*fast_[i], corrupt_count, frng[i + 1]),
                    want)
              << label(executors_[i]) << " round " << r;
      }
      oracle_->step();
      for (auto& e : fast_) e->step();
      const bool stabilized = oracle_->is_stabilized();
      for (std::size_t i = 0; i < fast_.size(); ++i) {
        const Engine& e = *fast_[i];
        for (graph::VertexId v = 0; v < n; ++v)
          ASSERT_EQ(e.level(v), oracle_->level(v))
              << label(executors_[i]) << " round " << r << " vertex " << v;
        ASSERT_EQ(e.is_stabilized(), stabilized)
            << label(executors_[i]) << " round " << r;
        if (!logs_.empty()) {
          ASSERT_EQ(logs_[i + 1].events.back(), logs_[0].events.back())
              << label(executors_[i]) << " round " << r;
        }
      }
    }
    for (std::size_t i = 0; i < fast_.size(); ++i) {
      EXPECT_EQ(fast_[i]->mis_members(), oracle_->mis_members())
          << label(executors_[i]);
      if (!logs_.empty()) {
        EXPECT_EQ(logs_[i + 1].events, logs_[0].events)
            << label(executors_[i]);
      }
    }
  }

 private:
  std::vector<std::size_t> executors_;
  std::unique_ptr<Engine> oracle_;
  std::vector<std::unique_ptr<Engine>> fast_;
  std::vector<EventLog> logs_;  // [0] oracle, [i + 1] fast_[i]
};

TEST(Kernels, LockstepWithReferenceAlg1) {
  support::Rng grng(21);
  const auto graphs = {
      graph::make_path(48),
      graph::make_grid(7, 7),
      graph::make_erdos_renyi_avg_degree(192, 8.0, grng),
      graph::make_barabasi_albert(128, 3, grng),
  };
  for (const auto& g : graphs) {
    Lockstep ls(g, Variant::GlobalDelta, 1234);
    ls.corrupt_init(7);
    ls.run(300);
  }
}

TEST(Kernels, LockstepWithReferenceAlg2) {
  support::Rng grng(22);
  const auto graphs = {
      graph::make_star(48),
      graph::make_erdos_renyi_avg_degree(192, 8.0, grng),
      graph::make_barabasi_albert(128, 3, grng),
  };
  for (const auto& g : graphs) {
    Lockstep ls(g, Variant::TwoChannel, 4321);
    ls.corrupt_init(9);
    ls.run(300);
  }
}

TEST(Kernels, LockstepSurvivesMidRunCorruption) {
  support::Rng grng(23);
  const auto g = graph::make_erdos_renyi_avg_degree(160, 8.0, grng);
  {
    Lockstep ls(g, Variant::GlobalDelta, 55);
    ls.corrupt_init(3);
    ls.run(400, /*corrupt_at=*/{60, 140, 260}, /*count=*/24);
  }
  {
    Lockstep ls(g, Variant::TwoChannel, 56);
    ls.corrupt_init(4);
    ls.run(400, /*corrupt_at=*/{60, 140, 260}, /*count=*/24);
  }
}

TEST(Kernels, HalfDuplexLockstep) {
  support::Rng grng(24);
  const auto g = graph::make_erdos_renyi_avg_degree(160, 8.0, grng);
  {
    Lockstep ls(g, Variant::GlobalDelta, 77, beep::Duplex::Half);
    ls.corrupt_init(5);
    ls.run(300);
  }
  {
    Lockstep ls(g, Variant::TwoChannel, 78, beep::Duplex::Half);
    ls.corrupt_init(6);
    ls.run(300);
  }
}

TEST(Kernels, SweepSizedGraphMatchesReference) {
  // Large enough that the one-shard dense-sweep gate
  // (n >= 64, |active| * 8 >= n) holds for the whole chaos phase on
  // AVX-512 hosts, and the endgame drops below it — both paths and the
  // crossover are exercised in one run. Also big enough for several
  // 64-word shards per worker.
  support::Rng grng(25);
  const auto g = graph::make_erdos_renyi_avg_degree(1024, 8.0, grng);
  Lockstep ls(g, Variant::GlobalDelta, 99);
  ls.corrupt_init(11);
  ls.run(200);
}

TEST(Kernels, EveryKernelKindBuildsTheShardedKernel) {
  // KernelKind survives only for callers that still name it; both values
  // build the one kernel, at any shard count.
  const auto g = graph::make_path(8);
  for (KernelKind kind : {KernelKind::Auto, KernelKind::Sharded}) {
    for (std::size_t t : {std::size_t{1}, std::size_t{4}}) {
      EngineConfig config;
      config.kind = EngineKind::Fast;
      config.kernel = kind;
      config.shard_threads = t;
      EXPECT_EQ(make_engine(g, config)->kernel_name(), "sharded");
    }
  }
}

// ---------------------------------------------------------------------------
// Observed lockstep at every shard count: with an observer attached the
// kernels take their census path, and the full per-round RoundEvent stream
// must match the reference's too. The worker count only changes who
// computes each word, never what is computed: coins are pure functions of
// (seed, node, round), every phase writes only shard-owned state, and the
// coordinator folds in ascending shard order.

// Worker counts exercised below: 1 (inline serial pool), 3 (odd shard
// split), 8 (more workers than this host has cores — oversubscribed), 0 (one
// per hardware thread, host-dependent). Byte-identical output across all of
// them IS the determinism contract.
constexpr std::size_t kObserved[] = {1, 3, 8, 0};

TEST(Kernels, ObservedLockstepGridAlg1) {
  support::Rng grng(31);
  const auto graphs = {
      graph::make_grid(9, 9),
      graph::make_erdos_renyi_avg_degree(192, 8.0, grng),
      graph::make_barabasi_albert(130, 3, grng),
  };
  for (const auto& g : graphs) {
    Lockstep ls(g, Variant::GlobalDelta, 1234, beep::Duplex::Full, kObserved,
                /*observe=*/true);
    ls.corrupt_init(7);
    ls.run(250);
  }
}

TEST(Kernels, ObservedLockstepGridAlg2) {
  support::Rng grng(32);
  const auto graphs = {
      graph::make_star(48),
      graph::make_erdos_renyi_avg_degree(192, 8.0, grng),
      graph::make_barabasi_albert(130, 3, grng),
  };
  for (const auto& g : graphs) {
    Lockstep ls(g, Variant::TwoChannel, 4321, beep::Duplex::Full, kObserved,
                /*observe=*/true);
    ls.corrupt_init(9);
    ls.run(250);
  }
}

TEST(Kernels, ObservedSurvivesMidRunCorruption) {
  support::Rng grng(33);
  const auto g = graph::make_erdos_renyi_avg_degree(160, 8.0, grng);
  for (Variant variant : {Variant::GlobalDelta, Variant::TwoChannel}) {
    Lockstep ls(g, variant, 55, beep::Duplex::Full, kObserved,
                /*observe=*/true);
    ls.corrupt_init(3);
    ls.run(400, /*corrupt_at=*/{60, 140, 260}, /*count=*/24);
  }
}

TEST(Kernels, ObservedHalfDuplexLockstep) {
  support::Rng grng(34);
  const auto g = graph::make_erdos_renyi_avg_degree(160, 8.0, grng);
  for (Variant variant : {Variant::GlobalDelta, Variant::TwoChannel}) {
    Lockstep ls(g, variant, 77, beep::Duplex::Half, kObserved,
                /*observe=*/true);
    ls.corrupt_init(5);
    ls.run(250);
  }
}

TEST(Kernels, ObservedSweepSizedGraph) {
  // Several 64-word shards per worker and a long all-active chaos phase;
  // also checks the shard-count clamp (more workers than words is fine).
  support::Rng grng(35);
  const auto g = graph::make_erdos_renyi_avg_degree(1024, 8.0, grng);
  Lockstep ls(g, Variant::GlobalDelta, 99, beep::Duplex::Full, kObserved,
              /*observe=*/true);
  ls.corrupt_init(11);
  ls.run(200);
}

}  // namespace
}  // namespace beepmis::core
