#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/beep/types.hpp"
#include "src/core/engine.hpp"
#include "src/core/lmax.hpp"
#include "src/graph/graph.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"
#include "src/support/rng.hpp"

namespace beepmis::core {

/// Variant policy consumed by FastEngine<Policy>. A policy is a stateless
/// bundle of the per-algorithm pieces — channel count, beep decision, level
/// update, membership encoding, corruption range — while the engine owns
/// everything the algorithms share: levels, counter-keyed randomness, the
/// lazy settlement cache, active-set maintenance, the round kernel,
/// noise/duplex handling, and event emission. Adding a future variant (e.g. the few-states algorithms
/// of Giakkoupis–Ziccardi) means writing one such policy, not a new engine.
///
/// Contract (all static; see docs/architecture.md):
///   kChannels      number of beep channels (1 or 2)
///   kMemberBeep    mask a settled MIS member implicitly beeps every round
///   kDominantHeard mask whose receipt fully determines the level update —
///                  neighbor scans may stop once it is heard
///   kHasLemma31    whether the Lemma 3.1 analysis census applies
///   kTag           short id for metric keys and engine names
///   min_level / member_level / is_prominent   level-encoding facts
///   decide_coin(l, lmax, coin)  beep decision against any coin source —
///                             coin(k) is a Bernoulli(2^-k) trial, drawn
///                             exactly when the reference algorithm draws
///                             (coin-for-coin); the dense sweep passes
///                             CounterCoin here
///   update(l, lmax, sent, heard)  the level transition
///   corrupt_level(lmax, rng)  uniform in-range RAM value (fault model)
struct Alg1Policy {
  static constexpr unsigned kChannels = 1;
  static constexpr beep::ChannelMask kMemberBeep = beep::kChannel1;
  static constexpr beep::ChannelMask kDominantHeard = beep::kChannel1;
  static constexpr bool kHasLemma31 = true;
  static constexpr const char* kTag = "alg1";

  static constexpr std::int32_t min_level(std::int32_t lmax) noexcept {
    return -lmax;
  }
  static constexpr std::int32_t member_level(std::int32_t lmax) noexcept {
    return -lmax;
  }
  static constexpr bool is_prominent(std::int32_t l) noexcept { return l <= 0; }

  template <typename Coin>
  static beep::ChannelMask decide_coin(std::int32_t l, std::int32_t lmax,
                                       Coin&& coin) {
    if (l >= lmax) return 0;
    // p = min{2^-ℓ, 1}: certain for ℓ ≤ 0, exact power-of-two coin else.
    const bool beep = l <= 0 || coin(static_cast<unsigned>(l));
    return beep ? beep::kChannel1 : beep::ChannelMask{0};
  }

  static std::int32_t update(std::int32_t l, std::int32_t lmax,
                             beep::ChannelMask sent,
                             beep::ChannelMask heard) noexcept {
    if (heard & beep::kChannel1) return std::min(l + 1, lmax);
    if (sent & beep::kChannel1) return -lmax;
    return std::max(l - 1, 1);
  }

  /// update() as a select chain — same transition, no data-dependent
  /// branches. The kernel's hot loops use this form (chaos-phase heard/sent
  /// bits are coin flips, so the textbook if-cascade mispredicts ~every
  /// vertex); update() stays the readable oracle the tests compare against.
  static std::int32_t update_packed(std::int32_t l, std::int32_t lmax,
                                    beep::ChannelMask sent,
                                    beep::ChannelMask heard) noexcept {
    const std::int32_t up = std::min(l + 1, lmax);
    const std::int32_t down = std::max(l - 1, 1);
    const std::int32_t miss = (sent & beep::kChannel1) ? -lmax : down;
    return (heard & beep::kChannel1) ? up : miss;
  }

  static std::int32_t corrupt_level(std::int32_t lmax, support::Rng& rng) {
    const auto span = static_cast<std::uint64_t>(2 * lmax + 1);
    return static_cast<std::int32_t>(rng.below(span)) - lmax;
  }
};

/// Algorithm 2 (two channels): membership is ℓ = 0 and announced on channel
/// 2 with certainty; channel 1 carries the competition coin for 0 < ℓ < ℓmax.
struct Alg2Policy {
  static constexpr unsigned kChannels = 2;
  static constexpr beep::ChannelMask kMemberBeep = beep::kChannel2;
  static constexpr beep::ChannelMask kDominantHeard = beep::kChannel2;
  static constexpr bool kHasLemma31 = false;
  static constexpr const char* kTag = "alg2";

  static constexpr std::int32_t min_level(std::int32_t /*lmax*/) noexcept {
    return 0;
  }
  static constexpr std::int32_t member_level(std::int32_t /*lmax*/) noexcept {
    return 0;
  }
  static constexpr bool is_prominent(std::int32_t l) noexcept { return l == 0; }

  template <typename Coin>
  static beep::ChannelMask decide_coin(std::int32_t l, std::int32_t lmax,
                                       Coin&& coin) {
    if (l == 0) return beep::kChannel2;  // certain, no coin
    if (l < lmax && coin(static_cast<unsigned>(l))) return beep::kChannel1;
    return 0;
  }

  static std::int32_t update(std::int32_t l, std::int32_t lmax,
                             beep::ChannelMask sent,
                             beep::ChannelMask heard) noexcept {
    if (heard & beep::kChannel2) return lmax;
    if (heard & beep::kChannel1) return std::min(l + 1, lmax);
    if (sent & beep::kChannel1) return 0;
    if (!(sent & beep::kChannel2)) return std::max(l - 1, 1);
    return l;  // member that heard nothing — stays 0
  }

  /// update() as a select chain (last assignment = highest priority) — same
  /// transition, no data-dependent branches. See Alg1Policy::update_packed.
  static std::int32_t update_packed(std::int32_t l, std::int32_t lmax,
                                    beep::ChannelMask sent,
                                    beep::ChannelMask heard) noexcept {
    const std::int32_t up = std::min(l + 1, lmax);
    const std::int32_t down = std::max(l - 1, 1);
    std::int32_t r = (sent & beep::kChannel2) ? l : down;
    r = (sent & beep::kChannel1) ? 0 : r;
    r = (heard & beep::kChannel1) ? up : r;
    r = (heard & beep::kChannel2) ? lmax : r;
    return r;
  }

  static std::int32_t corrupt_level(std::int32_t lmax, support::Rng& rng) {
    return static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(lmax) + 1));
  }
};

/// Optimized executor exploiting the key structural fact of the stable
/// states: a *settled* vertex — an MIS member with all neighbors capped, or
/// a capped vertex dominated by such a member — never changes again and
/// never consumes randomness (its beep probability is 0 or 1). The engine
/// keeps an active set and processes only unsettled vertices and their
/// audible members, so late rounds (when most of the graph has locked in)
/// cost O(active) instead of O(n + m).
///
/// Guaranteed equivalent to running the variant's reference algorithm under
/// beep::Simulation (RngMode::Counter) with the same seed: every coin is a
/// counter draw keyed by (seed, vertex, round) — a pure function of the
/// coordinate, independent of visit order — and coins are drawn in exactly
/// the same cases, so levels agree round-for-round (tested exhaustively in
/// test_fast_engine.cpp). The sparse round itself is executed by
/// core::ShardedKernel (round_kernel.hpp), proven stream-identical to the
/// reference at every shard count, so the shard count only moves
/// wall-clock.
/// The full model surface is covered:
///  - corrupt() mid-run invalidates settlement locally (the 2-hop patch
///    around the corrupted vertex), not globally;
///  - Duplex::Half zeroes a beeping vertex's feedback, which preserves the
///    settled-state structure, so the sparse path still applies;
///  - ChannelNoise makes *nothing* permanently settled (a false negative
///    can decay a capped vertex, a false positive can evict a member), so
///    the engine switches to a dense full-sweep step that replays the
///    reference simulator's noise draws in its exact (vertex, channel)
///    order; settlement then only serves as a lazily refreshed
///    stabilization-predicate cache.
template <typename Policy>
class ShardedKernel;

template <typename Policy>
class FastEngine final : public Engine {
 public:
  /// `shard_threads` sizes the round kernel's private worker pool: 1 =
  /// serial, 0 = one per hardware thread. `phase_telemetry` makes the
  /// kernel collect ShardTelemetry every round (it always collects while a
  /// tracing session is live).
  FastEngine(const graph::Graph& g, LmaxVector lmax, std::uint64_t seed,
             beep::ChannelNoise noise = {},
             beep::Duplex duplex = beep::Duplex::Full,
             std::size_t shard_threads = 1, bool phase_telemetry = false);
  ~FastEngine() override;  // out-of-line: ShardedKernel is incomplete here

  std::string name() const override {
    return std::string("fast-") + Policy::kTag;
  }
  std::string kernel_name() const override { return "sharded"; }
  const graph::Graph& graph() const noexcept override { return *graph_; }
  std::uint64_t round() const noexcept override { return round_; }
  std::int32_t level(graph::VertexId v) const override { return levels_[v]; }
  std::int32_t lmax(graph::VertexId v) const override { return lmax_[v]; }
  std::int32_t member_level(graph::VertexId v) const override {
    return Policy::member_level(lmax_[v]);
  }

  /// Sets ℓ(v) (initial-configuration setup). O(1); settlement tracking is
  /// lazily rebuilt before the next step()/is_stabilized().
  void set_level(graph::VertexId v, std::int32_t level) override;

  void step() override;

  /// Runs until stabilization or `max_rounds` additional rounds; returns
  /// the number of rounds executed.
  std::uint64_t run_to_stabilization(std::uint64_t max_rounds) override;

  bool is_stabilized() const override {
    if (dirty_) refresh_settlement();
    return active_count_ == 0;
  }
  std::vector<bool> mis_members() const override;

  /// Mid-run transient fault (draw-identical to the reference algorithm's
  /// corrupt_node). Under noise the settlement cache is merely marked dirty;
  /// on the sparse path the cache is patched in the corrupted vertex's
  /// 2-hop neighborhood so the next step stays O(active).
  void corrupt(graph::VertexId v, support::Rng& rng) override;

  /// Number of currently unsettled vertices (for instrumentation).
  std::size_t active_count() const noexcept { return active_count_; }

  /// Attaches a non-owning per-round observer (same obs::RoundEvent shape
  /// and semantics as beep::Simulation's — proven stream-identical in
  /// test_obs.cpp). Event assembly costs O(active) per round on the sparse
  /// path, except the analysis fields (wants_analysis()) which cost
  /// O(n + m). Null detaches.
  void set_observer(obs::RoundObserver* observer) override {
    observer_ = observer;
  }
  /// Routes internal timers into `registry` (may be null to detach); keyed
  /// by variant and kernel ("fast_engine.<tag>.<kernel>.refresh_settlement").
  /// Both the cumulative TimerStat and the "...refresh_settlement_ns"
  /// duration digest (p50/p95/p99 of individual refreshes) are resolved
  /// once here.
  void set_metrics(obs::MetricsRegistry* registry) override {
    const std::string prefix = std::string("fast_engine.") + Policy::kTag +
                               "." + kernel_name();
    refresh_timer_ =
        registry ? &registry->timer(prefix + ".refresh_settlement") : nullptr;
    refresh_digest_ =
        registry ? &registry->digest(prefix + ".refresh_settlement_ns")
                 : nullptr;
  }

  /// Delegates to the round kernel: true once any instrumented round has
  /// run, false otherwise.
  bool shard_telemetry(ShardTelemetry* out) const override;

 private:
  // The settlement bookkeeping is a cache over levels_ (rebuilt lazily
  // after set_level), hence mutable + const refresh.
  void refresh_settlement() const;
  bool member_settled(graph::VertexId v) const;
  void resettle_neighborhood(graph::VertexId v);
  void step_sparse();
  void step_dense();
  std::uint32_t lemma31_census() const;
  void finish_event(obs::RoundEvent& ev) const;

  const graph::Graph* graph_;
  LmaxVector lmax_;
  std::vector<std::int32_t> levels_;
  std::uint64_t seed_;  // keys the counter draws: coin(v, t) = f(seed, v, t)
  mutable std::vector<std::uint8_t> settled_;  // 0 active, 1 member, 2 dom.
  mutable std::vector<graph::VertexId> active_;
  std::vector<beep::ChannelMask> send_;   // scratch, indexed by vertex
  std::vector<beep::ChannelMask> heard_;  // dense path only
  mutable std::size_t active_count_ = 0;
  mutable std::size_t mis_count_ = 0;  // settled members (== |I_t| post-round)
  std::uint64_t round_ = 0;
  mutable bool dirty_ = false;
  beep::ChannelNoise noise_;
  beep::Duplex duplex_ = beep::Duplex::Full;
  support::Rng noise_rng_{0};
  bool dense_ = false;  // noise breaks permanence; run full sweeps
  std::unique_ptr<ShardedKernel<Policy>> kernel_;
  // Kernel-private caches go stale whenever settlement is rebuilt or patched
  // outside a round; the kernel re-syncs lazily at the next sparse step.
  mutable bool kernel_stale_ = true;
  obs::RoundObserver* observer_ = nullptr;
  obs::TimerStat* refresh_timer_ = nullptr;
  obs::Digest* refresh_digest_ = nullptr;
};

extern template class FastEngine<Alg1Policy>;
extern template class FastEngine<Alg2Policy>;

/// Back-compat names for the pre-unification engines (Algorithm 1 and the
/// two-channel Algorithm 2); the equivalence tests construct these directly.
using FastMisEngine = FastEngine<Alg1Policy>;
using FastMisEngine2 = FastEngine<Alg2Policy>;

}  // namespace beepmis::core
