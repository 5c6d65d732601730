#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/beep/types.hpp"
#include "src/core/engine.hpp"
#include "src/core/lmax.hpp"
#include "src/graph/graph.hpp"
#include "src/support/rng.hpp"

namespace beepmis::core {

/// The coin source the engine's dense sweep hands to Policy::decide_coin
/// (the kernels inline the same test in decide_packed): coin(k) is a
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

/// Tallies over the pre-round active set, filled by RoundKernel::step_sparse.
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
/// owns every field; kernels read and write through these pointers and keep
/// only derived caches of their own (the engine calls rebuild() after any
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
  /// Worker threads for the sharded kernel's private TaskPool (0 = one per
  /// hardware thread, 1 = inline serial). Ignored by the frontier kernel.
  std::size_t shard_threads = 1;
  /// Collect per-phase ShardTelemetry every round, tracing session or not
  /// (the sharded kernel always collects while the tracer is live). Ignored
  /// by the frontier kernel.
  bool telemetry = false;
};

/// One fault-free, noise-free round of FastEngine<Policy>: beep decisions
/// over the active set (counter draws keyed by (seed, vertex, round)),
/// feedback, level updates, and settlement/pruning. The two implementations
/// — Frontier (serial) and Sharded (intra-round parallel) — are proven
/// stream-identical to the reference beep::Simulation under RngMode::Counter,
/// which shares no code with them: same levels, same censuses, round for
/// round, across corruption and half-duplex (tests/test_kernels.cpp).
/// Receiver noise never reaches a kernel; the engine runs its dense full
/// sweep instead.
template <typename Policy>
class RoundKernel {
 public:
  virtual ~RoundKernel() = default;

  virtual const char* name() const noexcept = 0;

  /// Executes round `round` (the engine's pre-increment round index, which
  /// keys the counter draws). `observing` requests exact heard masks and the
  /// census fields; without it a kernel may resolve only the bits the level
  /// update needs.
  virtual void step_sparse(std::uint64_t round, bool observing,
                           SparseCensus& census) = 0;

  /// Re-syncs kernel-private caches (neighborhood counts, capped and
  /// member-neighbor masks) with the engine's levels/settled/active after an
  /// out-of-band write — set_level refresh, corruption resettle. Called
  /// lazily by the engine before the next step_sparse.
  virtual void rebuild() = 0;

  /// Snapshots cumulative phase telemetry (sharded kernel only): false on
  /// the frontier kernel and before any instrumented round has run.
  virtual bool shard_telemetry(ShardTelemetry* out) const {
    (void)out;
    return false;
  }
};

/// Builds the requested kernel over `ctx`. KernelKind::Auto must be resolved
/// by the caller (resolve_kernel) first.
template <typename Policy>
std::unique_ptr<RoundKernel<Policy>> make_round_kernel(
    KernelKind kind, const KernelContext<Policy>& ctx);

}  // namespace beepmis::core
