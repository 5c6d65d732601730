#include "src/core/round_kernel.hpp"

#include <algorithm>
#include <bit>

#include "src/core/fast_engine.hpp"
#include "src/core/kernel_simd.hpp"
#include "src/obs/trace.hpp"

namespace beepmis::core {

// ---------------------------------------------------------------------------
// ShardedKernel — Ligra-style frontier processing on incrementally
// maintained neighborhood counts, executed across contiguous, word-aligned
// vertex shards on a private TaskPool, so one *instance* runs its rounds on
// several cores (the replica-level pool parallelizes across runs, not within
// one). One shard is the serial path: every phase then runs inline on the
// caller and walks the engine's own active list.
//
// The structural fact it exploits: after the initial chaos, almost
// everything a round "transmits" is *certain* — prominent vertices (ℓ ≤ 0 /
// ℓ = 0) and settled members beep their channel with probability 1, round
// after round — so their audibility is tracked as a per-vertex count
// (prominent_nb_), updated only when a vertex crosses the prominence
// boundary. Only the round's *coin* beepers are pushed into a heard-mask.
// Settlement is candidate-driven: a vertex is re-examined only when an event
// this round could have made it settleable (it reached the member level or
// its cap, a neighborhood count hit zero, a neighbor joined the MIS), so the
// settle phase costs O(candidates), not O(active). The per-vertex hot loops
// are select chains (decide_packed / Policy::update_packed) because
// chaos-phase beep and heard bits are coin flips — a textbook if-cascade
// mispredicts on most vertices. Per-round cost: O(active) + Σdeg(coin
// beepers) + Σdeg(boundary crossers) + O(n/64) mask words.
//
// The determinism contract is structural, not synchronized: the round is cut
// at barriers, every phase writes only per-vertex state, counts, or mask
// words the shard exclusively owns (shards are 64-vertex aligned), and every
// cross-shard read is of state frozen by the previous barrier —
//   phase 1  decisions from the counter draws (a pure function of
//            (seed, vertex, round)) -> send bytes + a shard-local coin
//            frontier; the dense rounds run the AVX-512 decide sweep over
//            the shard's range;
//   stamp    each shard ORs EVERY shard's coin beepers' CSR sub-ranges
//            (neighborhoods are sorted, so one binary search per row) into
//            its own heard-mask words — always push, so no cost-dependent
//            mode switch can depend on the shard count;
//   phase 2  heard in O(1) per vertex from prominent_nb_ counts + the
//            heard mask, update -> shard-owned levels, boundary-crosser
//            deltas (dp/dc) and capped-mask bits; dense rounds use the
//            masked AVX-512 update sweep. Level writes that cross the
//            prominence or cap boundary only queue deltas, so every heard
//            mask stays a function of pre-round state;
//   apply    each shard applies EVERY shard's dp/dc crosser rows to its
//            own count entries and harvests its settle candidates;
//   phase 3a member-settle test on the (now frozen) counts, recording new
//            members shard-locally;
//   fold     the coordinator applies new members' cross-shard mask bits
//            and the mis/census tallies in ascending shard order;
//   phase 3b dominated settlement, word-parallel over shard-owned words.
// Every value written is therefore a pure function of pre-barrier state
// plus commutative integer sums, so levels, censuses and events are
// byte-identical for ANY shard/thread count — the same stream
// beep::Simulation produces (tests/test_kernels.cpp).
// ---------------------------------------------------------------------------

namespace {

/// Policy::decide_coin against a raw counter draw, compressed to selects.
/// It leans on the same structural contract the kernel itself relies on:
/// prominent vertices beep exactly kMemberBeep with certainty (Alg1 ℓ ≤ 0,
/// always below ℓmax ≥ 1; Alg2 ℓ = 0 regardless of ℓmax), and coin
/// beepers flip Bernoulli(2^-ℓ) on channel 1 only while ℓ < ℓmax. The
/// coin test inlines CounterCoin's edges — k ≥ 64 never succeeds, and the
/// masked shift keeps the expression defined (and unread) at prominent
/// levels. Proven draw-for-draw identical to beep::Simulation in
/// test_kernels.
template <typename Policy>
beep::ChannelMask decide_packed(std::int32_t l, std::int32_t lmax,
                                std::uint64_t draw) noexcept {
  const bool certain = Policy::is_prominent(l);
  const unsigned k = static_cast<unsigned>(l) & 63u;
  const bool coin_ok = (l < 64) & ((draw >> ((64u - k) & 63u)) == 0);
  const bool coin_beep = !certain & (l < lmax) & coin_ok;
  return certain ? Policy::kMemberBeep
                 : (coin_beep ? beep::kChannel1 : beep::ChannelMask{0});
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) noexcept {
  return b <= a ? 0
                : static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          b - a)
                          .count());
}

}  // namespace

template <typename Policy>
ShardedKernel<Policy>::ShardedKernel(const KernelContext<Policy>& ctx)
    : ctx_(ctx),
      // The pool label gives the private pool's workers their own trace
      // tracks ("shard-worker-N") — see obs::detail::PoolHook.
      pool_(support::TaskPool::resolve_thread_count(ctx.shard_threads),
            "shard") {
  const std::size_t n = ctx_.levels->size();
  words_ = (n + 63) / 64;
  // One shard per worker, clamped so no shard is empty of words; the
  // partition affects load balance only, never results (see above).
  const std::size_t s =
      std::max<std::size_t>(1, std::min(pool_.thread_count(),
                                        std::max<std::size_t>(words_, 1)));
  shard_words_ = (words_ + s - 1) / s;
  shards_.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    Shard& sh = shards_[i];
    sh.word_lo = std::min(i * shard_words_, words_);
    sh.word_hi = std::min((i + 1) * shard_words_, words_);
    sh.v_lo = static_cast<graph::VertexId>(std::min(sh.word_lo * 64, n));
    sh.v_hi = static_cast<graph::VertexId>(std::min(sh.word_hi * 64, n));
  }
  active_mask_.assign(words_, 0);
  member_nb_mask_.assign(words_, 0);
  capped_mask_.assign(words_, 0);
  heard_coin_mask_.assign(words_, 0);
  prominent_nb_.assign(n, 0);
  uncapped_nb_.assign(n, 0);
  // The phase bodies are bound once; per-round inputs travel through
  // members so parallel_for never rebuilds a std::function per call.
  rebuild_fn_ = [this](std::size_t si) { rebuild_shard(si); };
  phase1_fn_ = [this](std::size_t si) { phase1(si); };
  stamp_fn_ = [this](std::size_t si) { stamp(si); };
  phase2_fn_ = [this](std::size_t si) { phase2(si); };
  apply_fn_ = [this](std::size_t si) { apply(si); };
  phase3a_fn_ = [this](std::size_t si) { phase3a(si); };
  phase3b_fn_ = [this](std::size_t si) { phase3b(si); };
  // Telemetry wrapper, bound once like the phase bodies: clocks the task
  // body into the shard's own busy tally (shard-owned, so no contention;
  // the pool's batch mutex orders the timed_inner_ hand-off).
  timed_fn_ = [this](std::size_t si) {
    const auto t0 = TelClock::now();
    (*timed_inner_)(si);
    shards_[si].busy_ns += elapsed_ns(t0, TelClock::now());
  };
}

template <typename Policy>
void ShardedKernel<Policy>::rebuild() {
  // One parallel gather pass: masks and counts both derive from the
  // frozen global levels/settled arrays, so no barrier is needed inside.
  pool_.parallel_for(shards_.size(), rebuild_fn_);
  // Out-of-band state writes invalidate the settlement candidates; the
  // next round re-derives them with one full settle scan.
  full_scan_ = true;
  // Shard-local slices of the engine's active list, in its order, so the
  // per-shard loops visit exactly the vertices the serial round visits.
  // One shard needs no slice: it walks the engine's list itself.
  if (shards_.size() == 1) return;
  for (Shard& sh : shards_) sh.active.clear();
  for (graph::VertexId v : *ctx_.active)
    shards_[(v >> 6) / shard_words_].active.push_back(v);
}

template <typename Policy>
void ShardedKernel<Policy>::step_sparse(std::uint64_t round, bool observing,
                                        SparseCensus& census) {
  round_state_ = support::counter_round_state(ctx_.seed, round);
  observing_ = observing;

  // Telemetry is pure observation — clock reads, shard-owned tallies and
  // (when tracing) span records; nothing below branches on it, so results
  // stay byte-identical with the layer on or off.
  tel_round_ = ctx_.telemetry || obs::Tracer::active();
  std::uint64_t round_active = 0;
  if (tel_round_) {
    for (Shard& sh : shards_) {
      sh.busy_ns = 0;
      round_active += active_of(sh).size();  // pre-round, pre-prune
    }
    round_wall_ns_ = 0;
  }

  run_phase(0, phase1_fn_);  // shard.decide
  // Barrier: stamp reads every shard's coin frontier.
  run_phase(1, stamp_fn_);  // shard.stamp
  // Barrier: phase 2 reads any shard's heard words and counts.
  run_phase(2, phase2_fn_);  // shard.update
  // Barrier: apply reads every shard's crosser lists.
  run_phase(3, apply_fn_);  // shard.apply
  // Barrier: 3a reads the (now frozen) counts.
  run_phase(4, phase3a_fn_);  // shard.settle (member half)
  full_scan_ = false;

  // Coordinator fold, ascending shard order: the round's only cross-shard
  // writes (a new member's mask bits span other shards' words) plus the
  // mis tally. All OR-sets and integer sums — commutative, so the
  // ascending order is a convention the serial stream shares, not a
  // correctness requirement.
  TelClock::time_point f0;
  if (tel_round_) f0 = TelClock::now();
  bool any_settled = false;
  for (Shard& sh : shards_) {
    *ctx_.mis_count += sh.mis_settled;
    for (graph::VertexId v : sh.new_members) {
      active_mask_[v >> 6] &= ~(1ull << (v & 63u));
      for (graph::VertexId u : ctx_.graph->neighbors(v))
        member_nb_mask_[u >> 6] |= 1ull << (u & 63u);
    }
  }
  if (tel_round_) {
    const auto f1 = TelClock::now();
    tel_phase_ns_[5] += elapsed_ns(f0, f1);
    if (obs::Tracer::active())
      obs::Tracer::complete(kShardPhaseNames[5], f0, f1);
  }

  // Barrier above: 3b reads the member-neighbor words the fold just wrote.
  run_phase(4, phase3b_fn_);  // shard.settle (dominated half)

  if (tel_round_) f0 = TelClock::now();
  for (const Shard& sh : shards_) {
    census.active_beeps[0] += sh.census.active_beeps[0];
    census.active_beeps[1] += sh.census.active_beeps[1];
    census.active_heard[0] += sh.census.active_heard[0];
    census.active_heard[1] += sh.census.active_heard[1];
    census.active_heard_any += sh.census.active_heard_any;
    census.prominent_active += sh.census.prominent_active;
    census.dom_heard_extra += sh.census.dom_heard_extra;
    any_settled |= sh.any_settled;
  }
  if (any_settled) {
    // Drop newly settled vertices from the engine's active list, keeping
    // its insertion order — it stays the authoritative active set for
    // refresh/resettle. At one shard 3b has already pruned it in place.
    auto& active = *ctx_.active;
    const auto& settled = *ctx_.settled;
    if (shards_.size() > 1)
      active.erase(
          std::remove_if(active.begin(), active.end(),
                         [&](graph::VertexId v) { return settled[v] != 0; }),
          active.end());
    *ctx_.active_count = active.size();
  }
  if (tel_round_) {
    const auto f1 = TelClock::now();
    tel_phase_ns_[5] += elapsed_ns(f0, f1);
    if (obs::Tracer::active())
      obs::Tracer::complete(kShardPhaseNames[5], f0, f1);
    finish_round_telemetry(round, round_active);
  }
}

template <typename Policy>
bool ShardedKernel<Policy>::shard_telemetry(ShardTelemetry* out) const {
  if (tel_rounds_ == 0) return false;
  out->shards = shards_.size();
  out->rounds = tel_rounds_;
  for (std::size_t i = 0; i < kShardPhaseCount; ++i)
    out->phase_ms[i] = static_cast<double>(tel_phase_ns_[i]) / 1e6;
  out->busy_ms = static_cast<double>(tel_busy_ns_) / 1e6;
  out->max_busy_ms = static_cast<double>(tel_max_busy_ns_) / 1e6;
  out->barrier_wait_ms = static_cast<double>(tel_barrier_ns_) / 1e6;
  out->active_vertices = tel_active_;
  out->coin_beepers = tel_coin_;
  out->crosser_rows = tel_crossers_;
  out->settled_candidates = tel_cand_;
  return true;
}

/// One barrier-phased parallel step. Without telemetry this is exactly
/// the bare parallel_for; with it, the coordinator clocks the phase wall
/// (emitting the named span when tracing) and the timed wrapper clocks
/// each shard's task body into its busy tally.
template <typename Policy>
void ShardedKernel<Policy>::run_phase(std::size_t pi, const PhaseFn& fn) {
  if (!tel_round_) {
    pool_.parallel_for(shards_.size(), fn);
    return;
  }
  const auto t0 = TelClock::now();
  timed_inner_ = &fn;
  pool_.parallel_for(shards_.size(), timed_fn_);
  const auto t1 = TelClock::now();
  tel_phase_ns_[pi] += elapsed_ns(t0, t1);
  round_wall_ns_ += elapsed_ns(t0, t1);
  if (obs::Tracer::active()) obs::Tracer::complete(kShardPhaseNames[pi], t0, t1);
}

/// Round-end telemetry fold: per-shard busy -> busy/max-busy/barrier
/// totals, work-counter sums (the per-round lists are stable until the
/// next round's phase 1 clears them), and — at the tracer's counter
/// cadence — the derived per-round gauges as counter tracks.
template <typename Policy>
void ShardedKernel<Policy>::finish_round_telemetry(std::uint64_t round,
                                                   std::uint64_t active) {
  std::uint64_t busy = 0, max_busy = 0;
  std::uint64_t coin = 0, crossers = 0, cand = 0;
  for (const Shard& sh : shards_) {
    busy += sh.busy_ns;
    max_busy = std::max(max_busy, sh.busy_ns);
    coin += sh.coin.size();
    crossers += sh.dp.size() + sh.dc.size();
    cand += sh.settle_cand.size();
  }
  ++tel_rounds_;
  tel_busy_ns_ += busy;
  tel_max_busy_ns_ += max_busy;
  // Idle-at-barrier time: each parallel phase holds shards_.size() tasks
  // hostage until the slowest finishes, so the round's idle is the phase
  // walls times the shard count minus the total busy time.
  const std::uint64_t held = round_wall_ns_ * shards_.size();
  tel_barrier_ns_ += held > busy ? held - busy : 0;
  tel_active_ += active;
  tel_coin_ += coin;
  tel_crossers_ += crossers;
  tel_cand_ += cand;
  if (const std::uint64_t k = obs::Tracer::counter_interval();
      k != 0 && round % k == 0 && obs::Tracer::active()) {
    const double mean_busy =
        static_cast<double>(busy) / static_cast<double>(shards_.size());
    obs::Tracer::counter("shard.imbalance",
                         mean_busy > 0.0
                             ? static_cast<double>(max_busy) / mean_busy
                             : 0.0);
    obs::Tracer::counter("shard.barrier_wait_ms",
                         static_cast<double>(held > busy ? held - busy : 0) /
                             1e6);
    obs::Tracer::counter("shard.active", static_cast<double>(active));
    obs::Tracer::counter("shard.coin", static_cast<double>(coin));
    obs::Tracer::counter("shard.crossers", static_cast<double>(crossers));
    obs::Tracer::counter("shard.settle_cand", static_cast<double>(cand));
  }
}

/// Restrict a CSR row to the shard's own vertices. Neighborhoods are
/// sorted (enforced at graph build), so the intersection is two binary
/// searches plus a contiguous sub-span — across all shards each neighbor
/// is visited exactly once, and at one shard this is the whole row.
template <typename Policy>
std::span<const graph::VertexId> ShardedKernel<Policy>::nb_range(
    graph::VertexId v, const Shard& sh) const {
  const auto nb = ctx_.graph->neighbors(v);
  if (shards_.size() == 1) return nb;
  const auto first = std::lower_bound(nb.begin(), nb.end(), sh.v_lo);
  const auto last = std::lower_bound(first, nb.end(), sh.v_hi);
  return {first, last};
}

template <typename Policy>
void ShardedKernel<Policy>::rebuild_shard(std::size_t si) {
  // Gather pass over the shard's own vertices: each vertex recounts its own
  // neighborhood (cross-shard reads of the frozen levels/settled arrays),
  // so every write stays shard-owned. Settled members are prominent by
  // construction (they sit at the member level), so prominent_nb_ covers
  // both certain-beeper populations at once.
  const Shard& sh = shards_[si];
  const graph::Graph& g = *ctx_.graph;
  const auto& levels = *ctx_.levels;
  const auto& settled = *ctx_.settled;
  const auto& lmax = *ctx_.lmax;
  std::fill(active_mask_.begin() + sh.word_lo,
            active_mask_.begin() + sh.word_hi, 0);
  std::fill(capped_mask_.begin() + sh.word_lo,
            capped_mask_.begin() + sh.word_hi, 0);
  std::fill(member_nb_mask_.begin() + sh.word_lo,
            member_nb_mask_.begin() + sh.word_hi, 0);
  for (graph::VertexId v = sh.v_lo; v < sh.v_hi; ++v) {
    const std::uint64_t bit = 1ull << (v & 63u);
    if (settled[v] == 0) active_mask_[v >> 6] |= bit;
    if (levels[v] == lmax[v]) capped_mask_[v >> 6] |= bit;
    std::uint32_t prom = 0, uncapped = 0;
    bool member = false;
    for (graph::VertexId u : g.neighbors(v)) {
      prom += Policy::is_prominent(levels[u]) ? 1 : 0;
      uncapped += levels[u] != lmax[u] ? 1 : 0;
      member |= settled[u] == 1;
    }
    prominent_nb_[v] = prom;
    uncapped_nb_[v] = uncapped;
    if (member) member_nb_mask_[v >> 6] |= bit;
  }
}

template <typename Policy>
void ShardedKernel<Policy>::phase1(std::size_t si) {
  Shard& sh = shards_[si];
  sh.census = SparseCensus{};
  sh.mis_settled = 0;
  sh.any_settled = false;
  sh.new_members.clear();
  sh.coin.clear();
  sh.dp.clear();
  sh.dc.clear();
  sh.settle_cand.clear();
  auto& send = *ctx_.send;
  const auto& levels = *ctx_.levels;
  const auto& lmax = *ctx_.lmax;
  const auto& settled = *ctx_.settled;
  const std::size_t range = sh.v_hi - sh.v_lo;
  sh.sweep = false;
#if BEEPMIS_KERNEL_AVX512
  // Dense AVX-512 sweep: in the chaos phase nearly every vertex is active,
  // and the two O(active) passes are pure per-vertex ALU work. A masked
  // contiguous pass over the shard's range at 16 lanes replaces both
  // indexed loops bit-identically (settled lanes are masked out of every
  // tally; the range is 64-aligned, so the lanes line up with mask words).
  // The indexed loops remain the endgame path: once the active set is
  // sparse, touching the whole range loses, and observing rounds need the
  // exact heard masks the sweep does not materialize. Which path runs only
  // ever changes wall-clock.
  sh.sweep = !observing_ && simd::have_avx512() && range >= 64 &&
             active_of(sh).size() * 8 >= range;
  if (sh.sweep)
    simd::decide_sweep_range<Policy>(round_state_, sh.v_lo, sh.v_hi,
                                     levels.data(), lmax.data(),
                                     settled.data(), send.data(), sh.coin,
                                     sh.census.active_beeps);
#endif
  if (!sh.sweep) {
    for (graph::VertexId v : active_of(sh)) {
      const std::int32_t l = levels[v];
      const beep::ChannelMask m = decide_packed<Policy>(
          l, lmax[v], support::counter_first_draw_at(round_state_, v));
      send[v] = m;
      sh.census.active_beeps[0] += m & 1u;
      if constexpr (Policy::kChannels > 1)
        sh.census.active_beeps[1] += (m >> 1) & 1u;
      if ((m != 0) & !Policy::is_prominent(l)) sh.coin.push_back(v);
    }
  }
}

template <typename Policy>
void ShardedKernel<Policy>::stamp(std::size_t si) {
  // Partitioned push: the shard rebuilds its own heard-mask words from
  // EVERY shard's coin frontier (certain beepers are already covered by
  // the neighbors' prominent_nb_ counts). Settled targets are stamped
  // too, which answers the dominated census in O(1).
  const Shard& sh = shards_[si];
  std::fill(heard_coin_mask_.begin() + sh.word_lo,
            heard_coin_mask_.begin() + sh.word_hi, 0);
  for (const Shard& other : shards_) {
    for (graph::VertexId b : other.coin)
      for (graph::VertexId u : nb_range(b, sh))
        heard_coin_mask_[u >> 6] |= 1ull << (u & 63u);
  }
}

template <typename Policy>
void ShardedKernel<Policy>::phase2(std::size_t si) {
  Shard& sh = shards_[si];
  const auto& lmax = *ctx_.lmax;
  auto& levels = *ctx_.levels;
  const auto& settled = *ctx_.settled;
  auto& send = *ctx_.send;
  const bool half = ctx_.half;
#if BEEPMIS_KERNEL_AVX512
  if (sh.sweep) {
    // The sweep stores post-update levels and hands back compressed,
    // ascending index lists of the boundary crossers and member-settle
    // candidates — the same vertices, in the same order, the indexed loop
    // appends. The crossing *sign* is recovered from the stored level: a
    // crosser that is prominent (capped) now just became so, else it just
    // stopped being so.
    const std::size_t range = sh.v_hi - sh.v_lo;
    if (sh.dp_idx.size() < range) {
      sh.dp_idx.resize(range);
      sh.dc_idx.resize(range);
      sh.sc_idx.resize(range);
    }
    std::size_t dp_n = 0, dc_n = 0, sc_n = 0;
    simd::update_sweep_masked<Policy>(
        half, sh.v_lo, sh.v_hi, levels.data(), lmax.data(), settled.data(),
        prominent_nb_.data(), heard_coin_mask_.data(), send.data(),
        sh.dp_idx.data(), dp_n, sh.dc_idx.data(), dc_n, sh.sc_idx.data(),
        sc_n);
    for (std::size_t i = 0; i < dp_n; ++i) {
      const graph::VertexId v = sh.dp_idx[i];
      sh.dp.push_back({v, Policy::is_prominent(levels[v]) ? 1 : -1});
    }
    for (std::size_t i = 0; i < dc_n; ++i) {
      const graph::VertexId v = sh.dc_idx[i];
      sh.dc.push_back({v, levels[v] == lmax[v] ? 1 : -1});
    }
    for (std::size_t i = 0; i < sc_n; ++i)
      sh.settle_cand.push_back(sh.sc_idx[i]);
  }
#endif
  if (!sh.sweep) {
    for (graph::VertexId v : active_of(sh)) {
      const std::int32_t before = levels[v];
      const std::int32_t cap = lmax[v];
      // The member channel resolves from prominent_nb_ (prominent actives
      // and settled members both beep it with certainty; settled dominated
      // vertices are silent), the coin channel from the stamped mask.
      beep::ChannelMask heard = prominent_nb_[v] != 0
                                    ? Policy::kMemberBeep
                                    : beep::ChannelMask{0};
      heard |= (heard_coin_mask_[v >> 6] >> (v & 63u)) & 1u
                   ? beep::kChannel1
                   : beep::ChannelMask{0};
      // A half-duplex beeper hears nothing.
      heard = (half && send[v] != 0) ? beep::ChannelMask{0} : heard;
      if (observing_) {
        sh.census.active_heard[0] += heard & 1u;
        if constexpr (Policy::kChannels > 1) {
          sh.census.active_heard[1] += (heard >> 1) & 1u;
          sh.census.active_heard_any += heard ? 1 : 0;
        }
      }
      const std::int32_t after =
          Policy::update_packed(before, cap, send[v], heard);
      levels[v] = after;
      const int dp = (Policy::is_prominent(after) ? 1 : 0) -
                     (Policy::is_prominent(before) ? 1 : 0);
      const int dc = (after == cap ? 1 : 0) - (before == cap ? 1 : 0);
      if (dp != 0) sh.dp.push_back({v, static_cast<std::int32_t>(dp)});
      if (dc != 0) sh.dc.push_back({v, static_cast<std::int32_t>(dc)});
      // Arriving at the member level is one of the events that can make a
      // vertex settleable; the other (its last uncapped neighbor capping)
      // is harvested in apply.
      if ((after == Policy::member_level(cap)) & (before != after))
        sh.settle_cand.push_back(v);
    }
  }
  // Capped-mask maintenance for 3b: the crossers are this shard's own
  // vertices, so the touched words are shard-owned.
  for (const auto& [v, d] : sh.dc) {
    const std::uint64_t bit = 1ull << (v & 63u);
    if (d > 0)
      capped_mask_[v >> 6] |= bit;
    else
      capped_mask_[v >> 6] &= ~bit;
  }
  if (observing_) {
    for (graph::VertexId v : active_of(sh))
      sh.census.prominent_active += Policy::is_prominent(levels[v]) ? 1 : 0;
    if constexpr (Policy::kChannels > 1) {
      // The stamp phase ORed whole rows, settled targets included, so the
      // dominated census resolves in O(1) per vertex.
      for (graph::VertexId v = sh.v_lo; v < sh.v_hi; ++v) {
        if (settled[v] != 2) continue;
        sh.census.dom_heard_extra +=
            (heard_coin_mask_[v >> 6] >> (v & 63u)) & 1u;
      }
    }
  }
}

template <typename Policy>
void ShardedKernel<Policy>::apply(std::size_t si) {
  // Partitioned deferred count maintenance: the shard applies EVERY
  // shard's boundary crossers to its own count entries (the set bits of
  // a crosser's row restricted to this shard's words are this shard's
  // vertices). A dc of +1 means the vertex *reached* its cap, so its
  // neighbors lose an uncapped neighbor — the signs invert — and a count
  // hitting zero makes that neighbor a member-settle candidate. Sums
  // commute, so the visit order cannot affect the result.
  Shard& sh = shards_[si];
  for (const Shard& other : shards_) {
    for (const auto& [cv, d] : other.dp) {
      for (graph::VertexId u : nb_range(cv, sh))
        prominent_nb_[u] = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(prominent_nb_[u]) + d);
    }
    for (const auto& [cv, d] : other.dc) {
      if (d > 0) {
        for (graph::VertexId u : nb_range(cv, sh))
          if (--uncapped_nb_[u] == 0) sh.settle_cand.push_back(u);
      } else {
        for (graph::VertexId u : nb_range(cv, sh)) ++uncapped_nb_[u];
      }
    }
  }
}

template <typename Policy>
void ShardedKernel<Policy>::phase3a(std::size_t si) {
  // Member settlement in O(1) per candidate from the frozen counts;
  // only the shard-owned settled byte is written here — the cross-shard
  // member/active/member-neighbor bits wait for the coordinator fold.
  // Candidate-driven in the steady state: a vertex can only become
  // settleable through an event recorded this round, and anything eligible
  // earlier settled in the round it became eligible. After a rebuild
  // (out-of-band state write) that argument doesn't hold, so the next round
  // re-seeds with one full scan of the shard's slice. Stale or duplicate
  // candidates are harmless — each entry rechecks the exact predicate.
  Shard& sh = shards_[si];
  const auto& lmax = *ctx_.lmax;
  const auto& levels = *ctx_.levels;
  auto& settled = *ctx_.settled;
  const auto try_settle = [&](graph::VertexId v) {
    if (settled[v] != 0 || levels[v] != Policy::member_level(lmax[v]) ||
        uncapped_nb_[v] != 0)
      return;
    settled[v] = 1;
    ++sh.mis_settled;
    sh.any_settled = true;
    sh.new_members.push_back(v);
  };
  if (full_scan_)
    for (graph::VertexId v : active_of(sh)) try_settle(v);
  else
    for (graph::VertexId v : sh.settle_cand) try_settle(v);
}

template <typename Policy>
void ShardedKernel<Policy>::phase3b(std::size_t si) {
  Shard& sh = shards_[si];
  auto& settled = *ctx_.settled;
  for (std::size_t w = sh.word_lo; w < sh.word_hi; ++w) {
    std::uint64_t cand =
        active_mask_[w] & capped_mask_[w] & member_nb_mask_[w];
    while (cand) {
      const auto v = static_cast<graph::VertexId>(
          (w << 6) + static_cast<unsigned>(std::countr_zero(cand)));
      cand &= cand - 1;
      settled[v] = 2;
      active_mask_[w] &= ~(1ull << (v & 63u));
      sh.any_settled = true;
    }
  }
  // A shard's slice only ever contains its own vertices, and those settle
  // only in this shard's 3a/3b — so the slice prune is shard-local too.
  if (sh.any_settled) {
    auto& active = active_of(sh);
    active.erase(
        std::remove_if(active.begin(), active.end(),
                       [&](graph::VertexId v) { return settled[v] != 0; }),
        active.end());
  }
}

template class ShardedKernel<Alg1Policy>;
template class ShardedKernel<Alg2Policy>;

}  // namespace beepmis::core
