#pragma once

/// Observation options shared by the run tools (beepmis_cli, beepmis_soak):
/// each option is declared once here, and each session artifact (trace.v1
/// with its Chrome export, profile.v1) has one writer. An artifact is on
/// exactly when its --<name>-out path is given.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/flight.hpp"
#include "src/obs/manifest.hpp"
#include "src/support/args.hpp"

namespace beepmis::tools {

/// Reads a worker-thread count option (0 = one per hardware thread). A
/// negative value or one above 1024 exits 2 naming the option, so no pool
/// is ever sized from it.
std::size_t thread_option(const support::ArgParser& args,
                          const std::string& name);

/// Inserts `infix` before the extension of the file name in `path`
/// ("t.json" -> "t.chrome.json"). A name without an extension gets
/// `infix` + `bare_ext` appended instead.
std::string path_with_infix(const std::string& path, const std::string& infix,
                            const std::string& bare_ext = "");

/// Declares trace-out, trace-capacity, trace-counters, profile-out,
/// profile-every, monitor, monitor-every and the four anomaly-* thresholds.
void add_observation_options(support::ArgParser& args);

using SessionContext = std::vector<std::pair<std::string, std::string>>;

/// Starts the tracing session when --trace-out is set and the profiling
/// session when --profile-out is set. Both documents carry "tool" plus the
/// `context` pairs (beepmis_report keys its tables on algorithm/family/n/
/// shards, and divides by "m" for cache-misses per edge). Notices go to
/// stderr only, so every other output is byte-identical with the sessions
/// on or off.
void begin_sessions(const support::ArgParser& args, const std::string& tool,
                    const SessionContext& context);

/// Ends the live sessions and writes beepmis.profile.v1 (also when counters
/// were unavailable, so the artifact records "available": false), then
/// beepmis.trace.v1 and its Chrome/Perfetto export (<name>.chrome.json).
/// Returns 0, or 2 on I/O or conversion failure.
int end_sessions(const support::ArgParser& args);

/// Fills the manifest's "obs" block: the trace drop count (when tracing)
/// and the profiling state ("off" without --profile-out).
void record_sessions(const support::ArgParser& args, obs::RunManifest* man);

/// Flight-recorder thresholds from the anomaly-* options. The caller sets
/// the instance fields (n, expected_rounds, check_lemma31).
obs::AnomalyConfig anomaly_thresholds(const support::ArgParser& args);

}  // namespace beepmis::tools
