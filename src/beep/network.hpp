#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/beep/algorithm.hpp"
#include "src/beep/types.hpp"
#include "src/graph/graph.hpp"
#include "src/obs/sink.hpp"
#include "src/support/rng.hpp"

namespace beepmis::beep {

/// Duplex mode of the radio. The paper assumes the *full-duplex* beeping
/// model ("beeping with collision detection"): a beeping node still hears
/// whether any neighbor beeped in the same round. The weaker half-duplex
/// variant — a node either beeps or listens, and a beeper learns nothing —
/// is provided for the model-ablation experiment (E17): Algorithm 1's
/// join rule ("beeped and heard nothing") is exactly what half-duplex
/// radios cannot evaluate.
enum class Duplex { Full, Half };

/// Optional receiver-side channel noise — an *extension* beyond the paper's
/// model, used by the robustness experiments. Applied independently per
/// (node, channel, round): a silent channel is heard as a beep with
/// probability false_positive; a beeping channel is missed with probability
/// false_negative. The paper's model is the default (0, 0).
struct ChannelNoise {
  double false_positive = 0.0;
  double false_negative = 0.0;

  bool enabled() const noexcept {
    return false_positive > 0.0 || false_negative > 0.0;
  }
};

/// How a node's per-round randomness is derived from the master seed.
///
/// - Stream (historical default): node v owns one xoshiro stream
///   `Rng(seed).derive_stream(v)` that advances across rounds. Draws depend
///   on how many draws the node made in earlier rounds.
/// - Counter: node v's draws in round t come from the stateless coordinate
///   stream `support::counter_stream(seed, v, t)` — a pure function of
///   (seed, node, round), independent of visit order and of every other
///   round. This is the compatibility mode the fast-engine kernel is
///   proven stream-identical against.
enum class RngMode { Stream, Counter };

/// Synchronous execution engine for a beeping-model algorithm on a graph.
///
/// One round is: collect every node's beep decision, OR the decisions over
/// each node's (open) neighborhood per channel, deliver the heard masks back.
/// This is exactly the model of Cornejo & Kuhn with collision detection: a
/// node distinguishes only "no neighbor beeped" vs "≥1 neighbor beeped".
///
/// The run is a pure function of (graph, algorithm initial state, seed):
/// node v's randomness is an independent stream derived from the master seed
/// keyed by v (see RngMode), so traces are reproducible byte-for-byte.
class Simulation {
 public:
  /// The simulation borrows `g`; the caller keeps it alive.
  Simulation(const graph::Graph& g, std::unique_ptr<BeepingAlgorithm> algo,
             std::uint64_t seed, ChannelNoise noise = {},
             Duplex duplex = Duplex::Full, RngMode rng_mode = RngMode::Stream);

  const graph::Graph& graph() const noexcept { return *graph_; }
  BeepingAlgorithm& algorithm() noexcept { return *algo_; }
  const BeepingAlgorithm& algorithm() const noexcept { return *algo_; }

  /// Rounds executed so far.
  Round round() const noexcept { return round_; }

  /// Executes one synchronous round.
  void step();

  /// Runs until `stop(sim)` returns true (checked after each round) or
  /// `max_rounds` total rounds have executed. Returns the number of rounds
  /// executed when stopping (== round()).
  Round run_until(const std::function<bool(const Simulation&)>& stop,
                  Round max_rounds);

  /// Runs exactly `rounds` additional rounds.
  void run(Round rounds);

  /// Beep decisions of the last executed round (empty before first step).
  std::span<const ChannelMask> last_sent() const noexcept { return send_; }
  /// Heard masks of the last executed round.
  std::span<const ChannelMask> last_heard() const noexcept { return heard_; }

  /// Total beeps emitted so far on channel `ch` (0-based), across all nodes
  /// and rounds — the model's energy/communication cost measure.
  std::uint64_t total_beeps(unsigned ch) const;

  /// Direct access to a node's private RNG (used by fault injection so that
  /// corruption draws from the same deterministic universe as the run).
  support::Rng& node_rng(graph::VertexId v);

  /// The configured receiver noise (an extension; zero in the paper model).
  const ChannelNoise& noise() const noexcept { return noise_; }
  Duplex duplex() const noexcept { return duplex_; }
  RngMode rng_mode() const noexcept { return rng_mode_; }

  /// Attaches a non-owning per-round telemetry observer; it receives one
  /// obs::RoundEvent after every step(), with the communication census
  /// filled by the simulation and the state census filled by the algorithm
  /// (BeepingAlgorithm::fill_round_event). Multiple observers are allowed;
  /// the O(n + m) analysis fields are computed iff any of them asks
  /// (wants_analysis()). The no-observer hot path is untouched.
  void add_observer(obs::RoundObserver* observer);

 private:
  void notify_observers();

  const graph::Graph* graph_;
  std::unique_ptr<BeepingAlgorithm> algo_;
  std::vector<support::Rng> rngs_;
  std::vector<ChannelMask> send_, heard_;
  std::vector<std::uint64_t> beep_totals_;
  ChannelNoise noise_;
  Duplex duplex_ = Duplex::Full;
  RngMode rng_mode_ = RngMode::Stream;
  std::uint64_t seed_ = 0;  // retained for Counter-mode reseeding
  support::Rng noise_rng_{0};
  Round round_ = 0;
  std::vector<obs::RoundObserver*> observers_;
};

}  // namespace beepmis::beep
