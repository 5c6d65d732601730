#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/beep/types.hpp"
#include "src/core/engine.hpp"
#include "src/core/lmax.hpp"
#include "src/graph/graph.hpp"
#include "src/support/rng.hpp"
#include "src/support/task_pool.hpp"

namespace beepmis::core {

/// The coin source the engine's dense sweep hands to Policy::decide_coin
/// (the kernel inlines the same test in decide_packed): coin(k) is a
/// Bernoulli(2^-k) trial on the first counter draw of the (seed, node, round)
/// coordinate, with bernoulli_pow2's draw-free k == 0 / k >= 64 edges. Both
/// beeping policies draw at most one coin per vertex per round, so the first
/// draw covers every call; the per-round sponge prefix is folded once by the
/// caller (support::counter_round_state) and each vertex costs two SplitMix64
/// avalanches, branch-free.
struct CounterCoin {
  std::uint64_t round_state;
  std::uint64_t node;
  bool operator()(unsigned k) const noexcept {
    if (k == 0) return true;
    if (k >= 64) return false;
    return (support::counter_first_draw_at(round_state, node) >> (64 - k)) ==
           0;
  }
};

/// Tallies over the pre-round active set, filled by ShardedKernel::step_sparse.
/// The engine combines them with the settled censuses (members/dominated
/// counts are constants of a fault-free round) to assemble the RoundEvent.
/// active_beeps is always filled (it also feeds the tracer's beep counter);
/// the heard/prominent fields are only guaranteed when step_sparse ran
/// observing.
struct SparseCensus {
  std::uint32_t active_beeps[2] = {0, 0};
  std::uint32_t active_heard[2] = {0, 0};
  std::uint32_t active_heard_any = 0;
  /// Post-update |PM_t| contribution of the (pre-prune) active set.
  std::uint32_t prominent_active = 0;
  /// Two-channel only: settled-dominated vertices that heard channel 1 from
  /// an active beeper (their member neighbor covers the dominant channel).
  std::uint32_t dom_heard_extra = 0;
};

/// Non-owning view of the FastEngine state a kernel operates on. The engine
/// owns every field; the kernel reads and writes through these pointers and
/// keeps only derived caches of its own (the engine calls rebuild() after any
/// out-of-band state write).
template <typename Policy>
struct KernelContext {
  const graph::Graph* graph = nullptr;
  const LmaxVector* lmax = nullptr;
  std::vector<std::int32_t>* levels = nullptr;
  std::vector<std::uint8_t>* settled = nullptr;  // 0 active, 1 member, 2 dom.
  std::vector<graph::VertexId>* active = nullptr;
  std::vector<beep::ChannelMask>* send = nullptr;
  std::size_t* active_count = nullptr;
  std::size_t* mis_count = nullptr;
  std::uint64_t seed = 0;  ///< master seed keying the counter draws
  bool half = false;       ///< Duplex::Half: a beeper hears nothing
  /// Worker threads for the kernel's private TaskPool (0 = one per
  /// hardware thread, 1 = inline serial).
  std::size_t shard_threads = 1;
  /// Collect per-phase ShardTelemetry every round, tracing session or not
  /// (the kernel always collects while the tracer is live).
  bool telemetry = false;
};

/// One fault-free, noise-free round of FastEngine<Policy>: beep decisions
/// over the active set (counter draws keyed by (seed, vertex, round)),
/// feedback, level updates, and settlement/pruning, run as barrier-separated
/// phases over contiguous word-aligned vertex shards on a private TaskPool.
/// One shard is the serial path: the phases then run inline on the caller
/// over the engine's own active list. Proven stream-identical to the
/// reference beep::Simulation under RngMode::Counter, which shares no code
/// with it: same levels, same censuses, round for round, at every shard
/// count, across corruption and half-duplex (tests/test_kernels.cpp).
/// Receiver noise never reaches the kernel; the engine runs its dense full
/// sweep instead. See round_kernel.cpp for the phase structure.
template <typename Policy>
class ShardedKernel {
 public:
  explicit ShardedKernel(const KernelContext<Policy>& ctx);

  /// Executes round `round` (the engine's pre-increment round index, which
  /// keys the counter draws). `observing` requests exact heard masks and the
  /// census fields; without it the kernel may resolve only the bits the
  /// level update needs.
  void step_sparse(std::uint64_t round, bool observing, SparseCensus& census);

  /// Re-syncs kernel-private caches (neighborhood counts, capped and
  /// member-neighbor masks) with the engine's levels/settled/active after an
  /// out-of-band write — set_level refresh, corruption resettle. Called
  /// lazily by the engine before the next step_sparse.
  void rebuild();

  /// Snapshots cumulative phase telemetry: false before any instrumented
  /// round has run.
  bool shard_telemetry(ShardTelemetry* out) const;

 private:
  struct Delta {
    graph::VertexId v;
    std::int32_t d;
  };
  struct Shard {
    std::size_t word_lo = 0, word_hi = 0;  ///< exclusively owned mask words
    graph::VertexId v_lo = 0, v_hi = 0;    ///< vertex range [64*lo, 64*hi)∩[0,n)
    std::vector<graph::VertexId> active;   ///< shard's slice of the active set
    std::vector<graph::VertexId> new_members;  ///< settled in 3a, applied by fold
    std::vector<graph::VertexId> coin;     ///< this round's coin beepers
    std::vector<Delta> dp, dc;             ///< this round's boundary crossers
    std::vector<graph::VertexId> settle_cand;  ///< member-settle candidates
    // Compressed-store targets for the AVX-512 sweeps (lazily sized).
    std::vector<std::uint32_t> dp_idx, dc_idx, sc_idx;
    SparseCensus census;
    std::uint32_t mis_settled = 0;
    std::uint64_t busy_ns = 0;  ///< this round's task-body time (telemetry)
    bool sweep = false;  ///< this round took the dense sweep path
    bool any_settled = false;
  };
  using TelClock = std::chrono::steady_clock;
  using PhaseFn = std::function<void(std::size_t)>;

  /// The shard's slice of the engine's active list. At one shard the slice
  /// is the engine's list itself — no copy, and 3b's prune is the only one.
  std::vector<graph::VertexId>& active_of(Shard& sh) const {
    return shards_.size() == 1 ? *ctx_.active : sh.active;
  }
  std::span<const graph::VertexId> nb_range(graph::VertexId v,
                                            const Shard& sh) const;
  void run_phase(std::size_t pi, const PhaseFn& fn);
  void finish_round_telemetry(std::uint64_t round, std::uint64_t active);
  void rebuild_shard(std::size_t si);
  void phase1(std::size_t si);
  void stamp(std::size_t si);
  void phase2(std::size_t si);
  void apply(std::size_t si);
  void phase3a(std::size_t si);
  void phase3b(std::size_t si);

  KernelContext<Policy> ctx_;
  support::TaskPool pool_;
  std::size_t words_ = 0;
  std::size_t shard_words_ = 0;  ///< words per shard (last shard clipped)
  std::vector<Shard> shards_;
  std::vector<std::uint64_t> active_mask_;
  std::vector<std::uint64_t> member_nb_mask_;  // has a settled-member neighbor
  std::vector<std::uint64_t> capped_mask_;     // levels[v] == lmax[v], all v
  std::vector<std::uint64_t> heard_coin_mask_;  // coin audibility this round
  std::vector<std::uint32_t> prominent_nb_;  // certainly-beeping neighbors
  std::vector<std::uint32_t> uncapped_nb_;   // neighbors off their cap
  // Per-round inputs for the pre-bound phase closures.
  std::uint64_t round_state_ = 0;
  bool observing_ = false;
  bool full_scan_ = true;  // next settle phase must scan all of active
  PhaseFn rebuild_fn_, phase1_fn_, stamp_fn_, phase2_fn_, apply_fn_;
  PhaseFn phase3a_fn_, phase3b_fn_;
  // Phase telemetry (see ShardTelemetry): cumulative over instrumented
  // rounds, all coordinator-owned — workers only ever write their own
  // shard's busy_ns through timed_fn_.
  PhaseFn timed_fn_;
  const PhaseFn* timed_inner_ = nullptr;
  bool tel_round_ = false;        // collecting this round
  std::uint64_t round_wall_ns_ = 0;  // this round's parallel-phase wall
  std::uint64_t tel_rounds_ = 0;
  std::uint64_t tel_phase_ns_[kShardPhaseCount] = {};
  std::uint64_t tel_busy_ns_ = 0;
  std::uint64_t tel_max_busy_ns_ = 0;
  std::uint64_t tel_barrier_ns_ = 0;
  std::uint64_t tel_active_ = 0;
  std::uint64_t tel_coin_ = 0;
  std::uint64_t tel_crossers_ = 0;
  std::uint64_t tel_cand_ = 0;
};

}  // namespace beepmis::core
