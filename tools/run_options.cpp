#include "tools/run_options.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/json_parse.hpp"
#include "src/obs/perf.hpp"
#include "src/obs/trace.hpp"

namespace beepmis::tools {
namespace {

/// Largest accepted --threads / --shard-threads value.
constexpr std::int64_t kMaxThreads = 1024;

int write_profile(const std::string& path) {
  obs::PerfSession& session = obs::PerfSession::instance();
  session.disable();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open profile file: %s\n", path.c_str());
    return 2;
  }
  session.write_json(out);
  std::fprintf(stderr, "wrote %s (profiling %s)\n", path.c_str(),
               session.available() ? "available" : "unavailable");
  return 0;
}

int write_trace(const std::string& path) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  std::ostringstream doc;
  tracer.write_json(doc);
  {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open trace file: %s\n", path.c_str());
      return 2;
    }
    out << doc.str();
  }
  // The Chrome export round-trips through the real parser, so the written
  // artifact is validated as a side effect of converting it.
  obs::JsonValue parsed;
  std::string error;
  if (!obs::json_parse(doc.str(), &parsed, &error)) {
    std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
    return 2;
  }
  const std::string chrome_path = path_with_infix(path, ".chrome", ".json");
  std::ofstream chrome(chrome_path);
  if (!chrome) {
    std::fprintf(stderr, "cannot open trace file: %s\n", chrome_path.c_str());
    return 2;
  }
  if (!obs::trace_export_chrome(parsed, chrome, &error)) {
    std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s and %s (trace-dropped=%llu)\n", path.c_str(),
               chrome_path.c_str(),
               static_cast<unsigned long long>(tracer.dropped_spans()));
  return 0;
}

}  // namespace

std::size_t thread_option(const support::ArgParser& args,
                          const std::string& name) {
  return static_cast<std::size_t>(args.get_int(name, 0, kMaxThreads));
}

std::string path_with_infix(const std::string& path, const std::string& infix,
                            const std::string& bare_ext) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos)
    return path + infix + bare_ext;
  std::string out = path;
  out.insert(dot, infix);
  return out;
}

void add_observation_options(support::ArgParser& args) {
  args.add_option("trace-out", "",
                  "write a beepmis.trace.v1 span trace to this file plus a "
                  "Chrome/Perfetto export beside it (<name>.chrome.json); "
                  "simulation output is unaffected");
  args.add_option("trace-capacity", "65536",
                  "per-thread trace ring capacity in records; when it "
                  "fills, the oldest records are overwritten and counted");
  args.add_option("trace-counters", "16",
                  "emit engine counter tracks (active/stable/mis/beeps) "
                  "every K rounds while tracing (0 = off)");
  args.add_option("profile-out", "",
                  "attribute hardware perf counters (IPC, cache, branches) "
                  "to engine/sweep/pool spans and write the "
                  "beepmis.profile.v1 document to this file; records "
                  "\"available\": false when perf_event_open is denied");
  args.add_option("profile-every", "64",
                  "measure every K-th engine round (per-round counter "
                  "reads are syscalls; coarse spans measure every time)");
  args.add_flag("monitor",
                "arm the online invariant monitor: checks MIS independence/"
                "maximality at every stabilization claim and level-range "
                "sanity every --monitor-every rounds; violations latch into "
                "the flight recorder and the recovery tracker");
  args.add_option("monitor-every", "64",
                  "invariant-probe cadence in rounds for --monitor (each "
                  "probe is O(n + m); 0 = probe only at stabilization "
                  "edges)");
  args.add_option("anomaly-stall-multiple", "2.0",
                  "flight-recorder stall threshold: unstabilized past this "
                  "multiple of the expected O(log n) rounds");
  args.add_option("anomaly-lemma-window", "64",
                  "flight-recorder Lemma 3.1 persistence window in "
                  "analysis-bearing rounds (0 = off)");
  args.add_option("anomaly-storm-fraction", "0.95",
                  "flight-recorder beep-storm threshold as a fraction of n "
                  "hearing per round");
  args.add_option("anomaly-storm-window", "64",
                  "flight-recorder beep-storm persistence window in rounds "
                  "(0 = off)");
}

void begin_sessions(const support::ArgParser& args, const std::string& tool,
                    const SessionContext& context) {
  if (!args.get("trace-out").empty()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.clear_context();
    tracer.set_context("tool", tool);
    for (const auto& [k, v] : context) tracer.set_context(k, v);
    tracer.enable(static_cast<std::size_t>(args.get_int("trace-capacity")),
                  static_cast<std::uint64_t>(args.get_int("trace-counters")));
    obs::Tracer::set_thread_label("main");
  }
  if (!args.get("profile-out").empty()) {
    obs::PerfSession& session = obs::PerfSession::instance();
    session.clear_context();
    session.set_context("tool", tool);
    for (const auto& [k, v] : context) session.set_context(k, v);
    session.enable(static_cast<std::uint64_t>(args.get_int("profile-every")));
    if (!session.available())
      std::fprintf(stderr,
                   "profiling unavailable (perf_event_open denied or no "
                   "PMU); continuing without counters\n");
  }
}

int end_sessions(const support::ArgParser& args) {
  if (const std::string& path = args.get("profile-out"); !path.empty())
    if (const int rc = write_profile(path); rc != 0) return rc;
  if (const std::string& path = args.get("trace-out"); !path.empty())
    return write_trace(path);
  return 0;
}

void record_sessions(const support::ArgParser& args, obs::RunManifest* man) {
  // Recorders are quiescent once the run is over, so the dropped count is
  // final even while the session is still open.
  if (!args.get("trace-out").empty())
    man->trace_dropped = obs::Tracer::instance().dropped_spans();
  if (!args.get("profile-out").empty())
    man->profiling = obs::PerfSession::instance().available() ? "available"
                                                              : "unavailable";
}

obs::AnomalyConfig anomaly_thresholds(const support::ArgParser& args) {
  obs::AnomalyConfig anomaly;
  anomaly.stall_multiple = args.get_double("anomaly-stall-multiple");
  anomaly.lemma_window =
      static_cast<std::uint64_t>(args.get_int("anomaly-lemma-window"));
  anomaly.storm_fraction = args.get_double("anomaly-storm-fraction");
  anomaly.storm_window =
      static_cast<std::uint64_t>(args.get_int("anomaly-storm-window"));
  return anomaly;
}

}  // namespace beepmis::tools
