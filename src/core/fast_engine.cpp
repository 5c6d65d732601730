#include "src/core/fast_engine.hpp"

#include <utility>

#include "src/core/round_kernel.hpp"
#include "src/obs/perf.hpp"
#include "src/obs/timing.hpp"
#include "src/support/check.hpp"

namespace beepmis::core {

template <typename Policy>
FastEngine<Policy>::FastEngine(const graph::Graph& g, LmaxVector lmax,
                               std::uint64_t seed, beep::ChannelNoise noise,
                               beep::Duplex duplex,
                               std::size_t shard_threads,
                               bool phase_telemetry)
    : graph_(&g),
      lmax_(std::move(lmax)),
      seed_(seed),
      noise_(noise),
      duplex_(duplex),
      dense_(noise.enabled()) {
  BEEPMIS_CHECK(lmax_.size() == g.vertex_count(), "lmax sized for wrong graph");
  for (std::int32_t m : lmax_)
    BEEPMIS_CHECK(m >= 2, "lmax must be at least 2 for every vertex");
  BEEPMIS_CHECK(noise_.false_positive >= 0.0 && noise_.false_positive <= 1.0,
                "false-positive rate outside [0,1]");
  BEEPMIS_CHECK(noise_.false_negative >= 0.0 && noise_.false_negative <= 1.0,
                "false-negative rate outside [0,1]");
  const std::size_t n = g.vertex_count();
  levels_.assign(n, 1);
  // Coins are counter draws keyed by (seed, vertex, round) — no per-node
  // generator state. Only the noise stream is a stored stream, derived
  // identically to beep::Simulation's so noisy runs stay draw-for-draw
  // compatible.
  noise_rng_ = support::Rng(seed).derive_stream(0x401533);
  settled_.assign(n, 0);
  send_.assign(n, 0);
  heard_.assign(n, 0);
  refresh_settlement();
  KernelContext<Policy> ctx;
  ctx.graph = graph_;
  ctx.lmax = &lmax_;
  ctx.levels = &levels_;
  ctx.settled = &settled_;
  ctx.active = &active_;
  ctx.send = &send_;
  ctx.active_count = &active_count_;
  ctx.mis_count = &mis_count_;
  ctx.seed = seed_;
  ctx.half = duplex_ == beep::Duplex::Half;
  ctx.shard_threads = shard_threads;
  ctx.telemetry = phase_telemetry;
  kernel_ = std::make_unique<ShardedKernel<Policy>>(ctx);
}

template <typename Policy>
FastEngine<Policy>::~FastEngine() = default;

template <typename Policy>
bool FastEngine<Policy>::shard_telemetry(ShardTelemetry* out) const {
  return kernel_->shard_telemetry(out);
}

template <typename Policy>
bool FastEngine<Policy>::member_settled(graph::VertexId v) const {
  if (levels_[v] != Policy::member_level(lmax_[v])) return false;
  for (graph::VertexId u : graph_->neighbors(v))
    if (levels_[u] != lmax_[u]) return false;
  return true;
}

template <typename Policy>
void FastEngine<Policy>::refresh_settlement() const {
  obs::ScopedTimer timer(refresh_timer_, refresh_digest_,
                         "engine.refresh_settlement");
  obs::PerfSpanScope perf("engine.refresh_settlement");
  dirty_ = false;
  kernel_stale_ = true;
  const std::size_t n = levels_.size();
  std::fill(settled_.begin(), settled_.end(), 0);
  mis_count_ = 0;
  for (graph::VertexId v = 0; v < n; ++v)
    if (member_settled(v)) {
      settled_[v] = 1;
      ++mis_count_;
    }
  for (graph::VertexId v = 0; v < n; ++v) {
    if (settled_[v] || levels_[v] != lmax_[v]) continue;
    for (graph::VertexId u : graph_->neighbors(v))
      if (settled_[u] == 1) {
        settled_[v] = 2;
        break;
      }
  }
  active_.clear();
  for (graph::VertexId v = 0; v < n; ++v)
    if (!settled_[v]) active_.push_back(v);
  active_count_ = active_.size();
}

template <typename Policy>
void FastEngine<Policy>::set_level(graph::VertexId v, std::int32_t level) {
  BEEPMIS_CHECK(v < levels_.size(), "vertex out of range");
  BEEPMIS_CHECK(level >= Policy::min_level(lmax_[v]) && level <= lmax_[v],
                "level outside the variant's admissible range");
  levels_[v] = level;
  dirty_ = true;
}

template <typename Policy>
void FastEngine<Policy>::corrupt(graph::VertexId v, support::Rng& rng) {
  BEEPMIS_CHECK(v < levels_.size(), "vertex out of range");
  levels_[v] = Policy::corrupt_level(lmax_[v], rng);
  // Under noise nothing is permanently settled anyway; with a refresh
  // already pending the cache is stale regardless; and with nothing settled
  // yet (e.g. the n corruption draws of a uniform-random init) one lazy
  // refresh beats n local patches. Otherwise patch the cache locally: a
  // single level change can only move settlement inside the corrupted
  // vertex's 2-hop neighborhood.
  if (dense_ || dirty_ || active_count_ == levels_.size()) {
    dirty_ = true;
    return;
  }
  resettle_neighborhood(v);
}

template <typename Policy>
void FastEngine<Policy>::resettle_neighborhood(graph::VertexId v) {
  kernel_stale_ = true;
  // Membership can only change inside N[v] (it depends on a vertex's own
  // level and its neighbors' caps, and only v's level changed); domination
  // only inside {v} ∪ N(members that flipped). Each touched status is
  // snapshotted once so the active list can be patched, not rebuilt.
  std::vector<std::pair<graph::VertexId, std::uint8_t>> snapshot;
  auto remember = [&](graph::VertexId u) {
    for (const auto& [w, s] : snapshot)
      if (w == u) return;
    snapshot.emplace_back(u, settled_[u]);
  };

  std::vector<graph::VertexId> flipped;
  auto recompute_member = [&](graph::VertexId u) {
    const bool was = settled_[u] == 1;
    const bool now = member_settled(u);
    if (was == now) return;
    remember(u);
    flipped.push_back(u);
    if (now) {
      settled_[u] = 1;
      ++mis_count_;
    } else {
      // An ex-member's level is not the cap (member and cap levels are
      // disjoint for lmax ≥ 2), so it cannot be dominated; it re-activates.
      settled_[u] = 0;
      --mis_count_;
    }
  };
  recompute_member(v);
  for (graph::VertexId u : graph_->neighbors(v)) recompute_member(u);

  auto recompute_dominated = [&](graph::VertexId w) {
    if (settled_[w] == 1) return;  // membership (just recomputed) wins
    bool dom = false;
    if (levels_[w] == lmax_[w]) {
      for (graph::VertexId u : graph_->neighbors(w))
        if (settled_[u] == 1) {
          dom = true;
          break;
        }
    }
    const auto s = static_cast<std::uint8_t>(dom ? 2 : 0);
    if (settled_[w] == s) return;
    remember(w);
    settled_[w] = s;
  };
  recompute_dominated(v);
  for (graph::VertexId u : flipped)
    for (graph::VertexId w : graph_->neighbors(u)) recompute_dominated(w);

  if (snapshot.empty()) return;
  bool removed = false;
  for (const auto& [u, old] : snapshot) {
    if (old == 0 && settled_[u] != 0)
      removed = true;
    else if (old != 0 && settled_[u] == 0)
      active_.push_back(u);
  }
  if (removed)
    active_.erase(
        std::remove_if(active_.begin(), active_.end(),
                       [&](graph::VertexId u) { return settled_[u] != 0; }),
        active_.end());
  active_count_ = active_.size();
}

template <typename Policy>
void FastEngine<Policy>::step() {
  obs::TraceScope span("engine.round", round_ + 1);
  // Hardware counters per round, sampled every sample_interval()-th round:
  // a group read is a syscall, so the per-round site must stay under the
  // same ≤2% budget as the tracer. Each sample still covers exactly one
  // round, so instructions/round derivations stay per-round means.
  obs::PerfSpanScope perf("engine.round", round_ + 1);
  if (dense_) {
    step_dense();
    return;
  }
  if (dirty_) refresh_settlement();
  if (kernel_stale_) {
    kernel_->rebuild();
    kernel_stale_ = false;
  }
  step_sparse();
}

template <typename Policy>
void FastEngine<Policy>::step_sparse() {
  // The kernel executes the round — decisions, exchange, updates,
  // settlement — and reports its tallies; the engine contributes the
  // settled censuses (constants of a fault-free round: settled members beep
  // their channel with certainty, settled dominated vertices hear their
  // member every round, settled members themselves hear nothing because all
  // their neighbors sit silent at their caps — and under half duplex they
  // are transmitting anyway) and assembles the event.
  const bool observing = observer_ != nullptr;
  const std::size_t n = levels_.size();
  const auto members_before = static_cast<std::uint32_t>(mis_count_);
  const auto dominated_before =
      static_cast<std::uint32_t>(n - active_count_ - mis_count_);

  SparseCensus census;
  kernel_->step_sparse(round_, observing, census);
  ++round_;

  // Counter tracks, sampled every K rounds of a live tracing session. The
  // beep census reuses the kernel's decision tallies (settled members beep
  // their channel every round); settlement counts are post-round state.
  if (const std::uint64_t k = obs::Tracer::counter_interval();
      k != 0 && round_ % k == 0) {
    obs::Tracer::counter("engine.beeps",
                         static_cast<double>(members_before +
                                             census.active_beeps[0] +
                                             census.active_beeps[1]));
    obs::Tracer::counter("engine.active", static_cast<double>(active_count_));
    obs::Tracer::counter("engine.stable",
                         static_cast<double>(n - active_count_));
    obs::Tracer::counter("engine.mis", static_cast<double>(mis_count_));
  }

  if (observing) {
    obs::RoundEvent ev;
    ev.round = round_;
    if constexpr (Policy::kChannels == 1) {
      ev.beeps_ch1 = members_before + census.active_beeps[0];
      ev.heard_ch1 = dominated_before + census.active_heard[0];
      // Single channel: hearing anything == hearing channel 1.
      ev.heard_any = ev.heard_ch1;
    } else {
      ev.beeps_ch1 = census.active_beeps[0];
      ev.beeps_ch2 = members_before + census.active_beeps[1];
      ev.heard_ch1 = census.active_heard[0] + census.dom_heard_extra;
      ev.heard_ch2 = dominated_before + census.active_heard[1];
      ev.heard_any = dominated_before + census.active_heard_any;
    }
    ev.prominent = members_before + census.prominent_active;
    finish_event(ev);
  }
}

template <typename Policy>
void FastEngine<Policy>::step_dense() {
  // Noise mode: a false negative can decay a capped vertex and a false
  // positive can evict a member, so nothing is permanently settled and the
  // sparse invariants do not hold. Run the reference semantics as a full
  // sweep — identical at every shard count — replaying the shared noise
  // stream in beep::Simulation's exact (vertex, channel) order; the per-node
  // coins are counter draws, order-independent by construction.
  const std::size_t n = levels_.size();
  const std::uint64_t rs = support::counter_round_state(seed_, round_);
  for (graph::VertexId v = 0; v < n; ++v)
    send_[v] =
        Policy::decide_coin(levels_[v], lmax_[v], CounterCoin{rs, v});

  for (graph::VertexId v = 0; v < n; ++v) {
    beep::ChannelMask h = 0;
    for (graph::VertexId u : graph_->neighbors(v)) h |= send_[u];
    heard_[v] = h;
  }
  if (duplex_ == beep::Duplex::Half) {
    for (graph::VertexId v = 0; v < n; ++v)
      if (send_[v]) heard_[v] = 0;
  }
  for (graph::VertexId v = 0; v < n; ++v) {
    for (unsigned ch = 0; ch < Policy::kChannels; ++ch) {
      const auto bit = static_cast<beep::ChannelMask>(1u << ch);
      if (heard_[v] & bit) {
        if (noise_rng_.bernoulli(noise_.false_negative)) heard_[v] &= ~bit;
      } else {
        if (noise_rng_.bernoulli(noise_.false_positive)) heard_[v] |= bit;
      }
    }
  }
  for (graph::VertexId v = 0; v < n; ++v)
    levels_[v] = Policy::update(levels_[v], lmax_[v], send_[v], heard_[v]);
  ++round_;
  dirty_ = true;

  // Under noise nothing settles, so only the beep census makes a useful
  // counter track here; it is recomputed from send_ only on sampled rounds.
  if (const std::uint64_t k = obs::Tracer::counter_interval();
      k != 0 && round_ % k == 0) {
    std::uint32_t beeps = 0;
    for (beep::ChannelMask m : send_) {
      beeps += (m & beep::kChannel1) ? 1 : 0;
      beeps += (m & beep::kChannel2) ? 1 : 0;
    }
    obs::Tracer::counter("engine.beeps", static_cast<double>(beeps));
  }

  if (observer_ != nullptr) {
    obs::RoundEvent ev;
    ev.round = round_;
    for (beep::ChannelMask m : send_) {
      ev.beeps_ch1 += (m & beep::kChannel1) ? 1 : 0;
      ev.beeps_ch2 += (m & beep::kChannel2) ? 1 : 0;
    }
    for (beep::ChannelMask m : heard_) {
      ev.heard_ch1 += (m & beep::kChannel1) ? 1 : 0;
      ev.heard_ch2 += (m & beep::kChannel2) ? 1 : 0;
      ev.heard_any += m ? 1 : 0;
    }
    std::uint32_t prominent = 0;
    for (std::int32_t l : levels_) prominent += Policy::is_prominent(l) ? 1 : 0;
    ev.prominent = prominent;
    refresh_settlement();  // events report |I_t|, |S_t| from current levels
    finish_event(ev);
  }
}

template <typename Policy>
std::uint32_t FastEngine<Policy>::lemma31_census() const {
  // Same Lemma 3.1 census as SelfStabMis::fill_round_event: a violation is
  // a vertex with ℓ ≤ 0 that has a neighbor with ℓ ≤ 0. An Algorithm 1
  // analysis quantity; defined as 0 for other policies (see sink.hpp).
  if constexpr (!Policy::kHasLemma31) return 0;
  const std::size_t n = levels_.size();
  std::uint32_t violations = 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (levels_[v] > 0) continue;
    for (graph::VertexId u : graph_->neighbors(v)) {
      if (levels_[u] <= 0) {
        ++violations;
        break;
      }
    }
  }
  return violations;
}

template <typename Policy>
void FastEngine<Policy>::finish_event(obs::RoundEvent& ev) const {
  const std::size_t n = levels_.size();
  ev.mis = static_cast<std::uint32_t>(mis_count_);
  ev.stable = static_cast<std::uint32_t>(n - active_count_);
  ev.active = static_cast<std::uint32_t>(active_count_);
  if (observer_->wants_analysis()) {
    ev.lemma31_violations = lemma31_census();
    ev.has_analysis = true;
  }
  observer_->on_round(ev);
}

template <typename Policy>
std::uint64_t FastEngine<Policy>::run_to_stabilization(
    std::uint64_t max_rounds) {
  const std::uint64_t start = round_;
  while (!is_stabilized() && round_ - start < max_rounds) step();
  return round_ - start;
}

template <typename Policy>
std::vector<bool> FastEngine<Policy>::mis_members() const {
  std::vector<bool> in(levels_.size(), false);
  for (graph::VertexId v = 0; v < levels_.size(); ++v)
    in[v] = member_settled(v);
  return in;
}

template class FastEngine<Alg1Policy>;
template class FastEngine<Alg2Policy>;

}  // namespace beepmis::core
