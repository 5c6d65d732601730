#pragma once

#include "src/core/engine.hpp"
#include "src/obs/recovery.hpp"

namespace beepmis::core {

/// One O(n + m) look at the engine's settlement view: claimed stabilization,
/// independence and maximality of the claimed membership (via the
/// omniscient mis:: checkers), and level-range sanity — every ℓ(v) inside
/// the variant's admissible [member_level(v), lmax(v)] window. Kernel- and
/// engine-independent: the settlement view (mis_members / is_stabilized /
/// level) is part of the stream-identical Engine surface, so both fast
/// kernels and the reference executor probe to identical results.
obs::InvariantProbeResult probe_invariants(const Engine& engine);

/// Wraps probe_invariants as the closure the obs-layer invariant machinery
/// consumes (the obs layer cannot see core::Engine, mirroring
/// FlightRecorder::LevelProbe). The engine must outlive the probe.
obs::InvariantProbe make_invariant_probe(const Engine& engine);

}  // namespace beepmis::core
