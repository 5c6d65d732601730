#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/json_parse.hpp"

namespace beepmis::obs {

/// One heartbeat of a long run — the beepmis.progress.v1 JSONL line. Like
/// the timeseries samples, the top-level fields are deterministic (pure
/// functions of (graph, config) at the heartbeat round) and every measured
/// value lives under the "timing" object, which the canonical projection
/// strips for determinism diffs.
struct ProgressSample {
  std::uint64_t round = 0;
  std::uint64_t budget = 0;  ///< the run's --max-rounds round budget
  std::uint64_t active = 0;  ///< unsettled vertices
  std::uint64_t mis = 0;     ///< settled MIS members, |I_t|

  // Timing block.
  double rounds_per_sec = 0.0;  ///< mean rate since the previous heartbeat
  double eta_s = 0.0;  ///< (budget - round) / rate; 0 when rate is unknown
  double imbalance = 0.0;  ///< shard max/mean busy (0 = no shard telemetry)
  std::uint64_t peak_rss_bytes = 0;  ///< VmHWM; 0 = unavailable
  std::uint64_t trace_dropped = 0;   ///< tracing-session ring overwrites
};

/// Live progress stream behind `beepmis_cli --progress-out`: keeps a small
/// ring of recent heartbeats and rewrites the whole file on every beat via
/// write-to-temp + rename, so a reader (tail, a dashboard poller, the future
/// beepmis_serve status endpoint) always sees a complete, parseable JSONL
/// snapshot — never a torn line. Failures latch: the first I/O error is kept
/// in error() and later beats become no-ops, so a full disk can't turn a
/// multi-hour run into a crash loop. The path "-" writes no file: each beat
/// becomes one progress_write_text line on stderr instead.
class ProgressWriter {
 public:
  /// `keep` bounds the file at the most recent `keep` heartbeats.
  explicit ProgressWriter(std::string path, std::size_t keep = 64);

  /// True when beats render as stderr text lines (path "-").
  bool to_stderr() const noexcept { return path_ == "-"; }

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }
  const std::string& path() const noexcept { return path_; }
  std::uint64_t beats() const noexcept { return beats_; }

  /// Appends one heartbeat and atomically replaces the file.
  void beat(const ProgressSample& sample);

 private:
  std::string path_;
  std::string tmp_path_;
  std::vector<ProgressSample> ring_;
  std::size_t head_ = 0;
  std::uint64_t beats_ = 0;
  std::string error_;
};

/// Writes one beepmis.progress.v1 JSONL line (no trailing newline).
void progress_write_line(std::ostream& os, const ProgressSample& sample);

/// Renders one heartbeat as a human-readable line (no trailing newline):
/// every progress.v1 field, the measured ones rounded for reading.
void progress_write_text(std::ostream& os, const ProgressSample& sample);

/// Strict validation of one parsed progress line: schema tag, the four
/// deterministic numbers, and a "timing" object with the five measured
/// fields. Returns false with a description in `error` (if non-null).
bool progress_validate_line(const JsonValue& line,
                            std::string* error = nullptr);

/// Writes the deterministic projection of a valid line (everything except
/// "timing"), one JSON object, no trailing newline — the determinism gates
/// diff files of these across shard counts.
bool progress_write_canonical_line(const JsonValue& line, std::ostream& os,
                                   std::string* error = nullptr);

}  // namespace beepmis::obs
