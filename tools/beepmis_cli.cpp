/// beepmis_cli — run any algorithm of the library on a generated or loaded
/// graph, with fault injection, channel noise and per-round tracing; or run
/// a whole scaling sweep across a worker pool.
///
///   beepmis_cli --family er-avg8 --n 1024 --algorithm v1 --init uniform-random
///   beepmis_cli --graph-file topo.edges --algorithm v3 --trace
///   beepmis_cli --family torus --n 4096 --algorithm v2 --faults 64 --waves 3
///   beepmis_cli --algorithm v1 --sweep --sizes 64,256,1024 --sweep-seeds 16
///       --threads 0 --sweep-out sweep.json        (one command line)

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "src/apps/coloring.hpp"
#include "src/apps/ruling_set.hpp"
#include "src/baselines/afek.hpp"
#include "src/baselines/afek_noknow.hpp"
#include "src/baselines/jsx.hpp"
#include "src/baselines/luby.hpp"
#include "src/core/engine.hpp"
#include "src/core/invariant.hpp"
#include "src/exp/families.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"
#include "src/graph/io.hpp"
#include "src/obs/json.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/perf.hpp"
#include "src/obs/progress.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/sink.hpp"
#include "src/obs/timeseries.hpp"
#include "src/obs/timing.hpp"
#include "src/obs/trace.hpp"
#include "src/support/args.hpp"
#include "src/support/task_pool.hpp"
#include "src/support/svg.hpp"

namespace {

using namespace beepmis;

bool parse_family(const std::string& name, exp::Family* out) {
  for (exp::Family f :
       {exp::Family::ErdosRenyiAvg8, exp::Family::Random4Regular,
        exp::Family::Torus, exp::Family::BarabasiAlbert3,
        exp::Family::GeometricAvg8, exp::Family::RandomTree,
        exp::Family::Cycle, exp::Family::Star}) {
    if (exp::family_name(f) == name) {
      *out = f;
      return true;
    }
  }
  return false;
}

graph::Graph load_graph(const support::ArgParser& args, support::Rng& rng) {
  if (const std::string& path = args.get("graph-file"); !path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open graph file: " << path << "\n";
      std::exit(2);
    }
    // Auto-detect: packed binary starts with 'B' (the "BMPKCSR1" magic);
    // DIMACS files start with 'c' or 'p'; edge lists with n m.
    const int first = in.peek();
    if (first == 'B') return graph::read_packed(in);
    if (first == 'c' || first == 'p') return graph::read_dimacs(in, path);
    return graph::read_edge_list(in, path);
  }
  exp::Family f;
  if (!parse_family(args.get("family"), &f)) {
    std::cerr << "unknown family: " << args.get("family")
              << " (try er-avg8, 4-regular, "
              << "torus, ba-m3, rgg-avg8, rand-tree, cycle, star)\n";
    std::exit(2);
  }
  return exp::make_family(f, static_cast<std::size_t>(args.get_int("n")),
                          rng);
}

/// Heartbeat observer for long runs: prints one status line to stderr every
/// `every` rounds so a 10^6-round soak is visibly alive. Cheap fields only.
class ProgressMeter final : public obs::RoundObserver {
 public:
  explicit ProgressMeter(std::uint64_t every) : every_(every) {}

  std::uint64_t interval() const { return every_; }

  void on_round(const obs::RoundEvent& e) override {
    if (every_ == 0 || e.round % every_ != 0) return;
    std::fprintf(stderr,
                 "[beepmis] round=%llu active=%u mis=%u stable=%u "
                 "beeps=%u heard=%u\n",
                 static_cast<unsigned long long>(e.round), e.active, e.mis,
                 e.stable, e.beeps_ch1 + e.beeps_ch2, e.heard_any);
  }

 private:
  std::uint64_t every_;
};

/// Periodic telemetry sampler behind --timeseries-out and --progress-out.
/// The deterministic fields (round, active, beeps, mis) come straight from
/// the round event; every measured value is derived by diffing the engine's
/// *cumulative* shard-telemetry snapshot against the previous visit, so each
/// sample reports per-round means over exactly its window. Consumers keep
/// independent windows because their cadences differ. finalize() emits one
/// last sample/heartbeat at the final round, so short runs (stabilization is
/// O(log n) rounds) produce non-empty artifacts at any cadence.
class TelemetrySampler final : public obs::RoundObserver {
 public:
  TelemetrySampler(const core::Engine* engine, std::uint64_t budget)
      : engine_(engine), budget_(budget) {
    const auto now = Clock::now();
    series_wall_ = now;
    progress_wall_ = now;
  }

  void attach_series(obs::TimeSeries* series) { series_ = series; }
  void attach_progress(obs::ProgressWriter* progress, std::uint64_t every) {
    progress_ = progress;
    progress_every_ = every;
  }

  void on_round(const obs::RoundEvent& e) override {
    last_ = e;
    seen_ = true;
    if (series_ != nullptr && series_->due(e.round)) record_sample(e);
    if (progress_ != nullptr && progress_every_ != 0 &&
        e.round % progress_every_ == 0)
      beat(e);
  }

  /// Emits the terminal sample and heartbeat (unless the last round already
  /// landed on the cadence). Call once, after the run.
  void finalize() {
    if (!seen_) return;
    if (series_ != nullptr && last_.round > series_round_)
      record_sample(last_);
    if (progress_ != nullptr && last_.round > progress_round_) beat(last_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Cumulative shard-telemetry snapshot from the previous visit of one
  /// consumer; `has` distinguishes "no snapshot yet" from a real baseline.
  struct TelWindow {
    core::ShardTelemetry tel{};
    bool has = false;
  };

  /// Diffs the engine's cumulative shard telemetry against `last` (which is
  /// then advanced). On success the out-params hold per-round means over the
  /// window; returns false when telemetry is off or the window is empty.
  bool shard_window(TelWindow* last, double* imbalance, double* barrier_ms,
                    std::array<double, core::kShardPhaseCount>* phase_ms) {
    core::ShardTelemetry tel;
    if (!engine_->shard_telemetry(&tel)) return false;
    bool filled = false;
    if (last->has && tel.rounds > last->tel.rounds) {
      const auto dr =
          static_cast<double>(tel.rounds - last->tel.rounds);
      if (phase_ms != nullptr)
        for (std::size_t p = 0; p < core::kShardPhaseCount; ++p)
          (*phase_ms)[p] = (tel.phase_ms[p] - last->tel.phase_ms[p]) / dr;
      *barrier_ms =
          (tel.barrier_wait_ms - last->tel.barrier_wait_ms) / dr;
      const double dbusy = tel.busy_ms - last->tel.busy_ms;
      const double dmax = tel.max_busy_ms - last->tel.max_busy_ms;
      *imbalance =
          dbusy > 0.0 && tel.shards > 0
              ? dmax / (dbusy / static_cast<double>(tel.shards))
              : 0.0;
      filled = true;
    }
    last->tel = tel;
    last->has = true;
    return filled;
  }

  void record_sample(const obs::RoundEvent& e) {
    obs::TimeSeriesSample s;
    s.round = e.round;
    s.active = e.active;
    s.beeps = e.beeps_ch1 + e.beeps_ch2;
    s.mis = e.mis;
    const auto now = Clock::now();
    if (e.round > series_round_) {
      const double ms = std::chrono::duration<double, std::milli>(
                            now - series_wall_)
                            .count();
      s.round_ms = ms / static_cast<double>(e.round - series_round_);
    }
    s.has_phases =
        shard_window(&series_tel_, &s.imbalance, &s.barrier_ms, &s.phase_ms);
    series_round_ = e.round;
    series_wall_ = now;
    series_->record(s);
  }

  void beat(const obs::RoundEvent& e) {
    obs::ProgressSample p;
    p.round = e.round;
    p.budget = budget_;
    p.active = e.active;
    p.mis = e.mis;
    const auto now = Clock::now();
    if (e.round > progress_round_) {
      const double secs =
          std::chrono::duration<double>(now - progress_wall_).count();
      if (secs > 0.0)
        p.rounds_per_sec =
            static_cast<double>(e.round - progress_round_) / secs;
    }
    if (p.rounds_per_sec > 0.0 && budget_ > e.round)
      p.eta_s =
          static_cast<double>(budget_ - e.round) / p.rounds_per_sec;
    double barrier_unused = 0.0;
    shard_window(&progress_tel_, &p.imbalance, &barrier_unused, nullptr);
    p.peak_rss_bytes = obs::peak_rss_bytes();
    p.trace_dropped = obs::Tracer::instance().dropped_spans();
    progress_round_ = e.round;
    progress_wall_ = now;
    progress_->beat(p);
  }

  const core::Engine* engine_;
  std::uint64_t budget_;
  obs::TimeSeries* series_ = nullptr;
  obs::ProgressWriter* progress_ = nullptr;
  std::uint64_t progress_every_ = 0;
  obs::RoundEvent last_;
  bool seen_ = false;
  std::uint64_t series_round_ = 0;
  Clock::time_point series_wall_;
  TelWindow series_tel_;
  std::uint64_t progress_round_ = 0;
  Clock::time_point progress_wall_;
  TelWindow progress_tel_;
};

/// Starts a tracing session when --trace-out is given. The context pairs
/// are reproduced in the trace document; beepmis_report keys its span-
/// duration table on the algorithm/family/n entries.
void trace_begin(
    const support::ArgParser& args,
    const std::vector<std::pair<std::string, std::string>>& context) {
  if (args.get("trace-out").empty()) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear_context();
  tracer.set_context("tool", "beepmis_cli");
  for (const auto& [k, v] : context) tracer.set_context(k, v);
  tracer.enable(static_cast<std::size_t>(args.get_int("trace-capacity")),
                static_cast<std::uint64_t>(args.get_int("trace-counters")));
  obs::Tracer::set_thread_label("main");
}

/// "t.json" -> "t.chrome.json"; extensionless paths get ".chrome.json".
std::string trace_chrome_path(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos)
    return path + ".chrome.json";
  std::string out = path;
  out.insert(dot, ".chrome");
  return out;
}

/// Ends the tracing session: writes the beepmis.trace.v1 document to
/// --trace-out and its Chrome/Perfetto conversion beside it. Notices go to
/// stderr, so sweep stdout stays byte-identical with tracing on or off.
/// Returns 0, or 2 on I/O or conversion failure.
int trace_end(const support::ArgParser& args) {
  const std::string& path = args.get("trace-out");
  if (path.empty()) return 0;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();

  std::ostringstream doc;
  tracer.write_json(doc);
  {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open trace file: " << path << "\n";
      return 2;
    }
    out << doc.str();
  }

  // The Chrome export round-trips through the real parser, so the written
  // artifact is validated as a side effect of converting it.
  obs::JsonValue parsed;
  std::string error;
  const std::string chrome_path = trace_chrome_path(path);
  if (!obs::json_parse(doc.str(), &parsed, &error)) {
    std::cerr << "trace export failed: " << error << "\n";
    return 2;
  }
  std::ofstream chrome(chrome_path);
  if (!chrome) {
    std::cerr << "cannot open trace file: " << chrome_path << "\n";
    return 2;
  }
  if (!obs::trace_export_chrome(parsed, chrome, &error)) {
    std::cerr << "trace export failed: " << error << "\n";
    return 2;
  }
  std::fprintf(stderr, "wrote %s and %s (trace-dropped=%llu)\n",
               path.c_str(), chrome_path.c_str(),
               static_cast<unsigned long long>(tracer.dropped_spans()));
  return 0;
}

/// Starts a hardware-profiling session when --profile is given. Mirrors
/// trace_begin: the context pairs are reproduced in the profile document
/// (including "m", which beepmis_report divides for cache-misses/edge).
/// Availability notices go to stderr only, so every non-profile output is
/// byte-identical with profiling on or off, available or not.
void profile_begin(
    const support::ArgParser& args,
    const std::vector<std::pair<std::string, std::string>>& context) {
  if (!args.flag("profile")) return;
  obs::PerfSession& session = obs::PerfSession::instance();
  session.clear_context();
  session.set_context("tool", "beepmis_cli");
  for (const auto& [k, v] : context) session.set_context(k, v);
  session.enable(static_cast<std::uint64_t>(args.get_int("profile-every")));
  if (!session.available())
    std::fprintf(stderr,
                 "profiling unavailable (perf_event_open denied or no "
                 "PMU); continuing without counters\n");
}

/// Ends the profiling session and writes the beepmis.profile.v1 document
/// to --profile-out — written even when counters were unavailable, so the
/// artifact itself records "available": false instead of silently missing.
/// Returns 0, or 2 on I/O failure.
int profile_end(const support::ArgParser& args) {
  if (!args.flag("profile")) return 0;
  obs::PerfSession& session = obs::PerfSession::instance();
  session.disable();
  const std::string& path = args.get("profile-out");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open profile file: " << path << "\n";
    return 2;
  }
  session.write_json(out);
  std::fprintf(stderr, "wrote %s (profiling %s)\n", path.c_str(),
               session.available() ? "available" : "unavailable");
  return 0;
}

/// Manifest value for the "obs.profiling" field.
std::string profiling_state(const support::ArgParser& args) {
  if (!args.flag("profile")) return "off";
  return obs::PerfSession::instance().available() ? "available"
                                                  : "unavailable";
}

core::InitPolicy parse_init(const std::string& name) {
  for (core::InitPolicy p : core::all_init_policies())
    if (core::init_policy_name(p) == name) return p;
  std::cerr << "unknown init policy: " << name << "\n";
  std::exit(2);
}

/// Anomaly thresholds from the command line — shared by the flight recorder
/// and the recovery artifact's provenance.
obs::AnomalyConfig make_anomaly_config(const support::ArgParser& args,
                                       const graph::Graph& g,
                                       exp::Variant variant) {
  obs::AnomalyConfig anomaly;
  anomaly.n = static_cast<std::uint32_t>(g.vertex_count());
  anomaly.expected_rounds = exp::default_round_budget(g.vertex_count());
  anomaly.stall_multiple = args.get_double("anomaly-stall-multiple");
  anomaly.lemma_window =
      static_cast<std::uint64_t>(args.get_int("anomaly-lemma-window"));
  anomaly.storm_fraction = args.get_double("anomaly-storm-fraction");
  anomaly.storm_window =
      static_cast<std::uint64_t>(args.get_int("anomaly-storm-window"));
  // The Lemma 3.1 census exists for the Algorithm 1 variants only; it is
  // what makes persistent violations detectable (O(n + m)/round).
  anomaly.check_lemma31 = variant != exp::Variant::TwoChannel;
  return anomaly;
}

/// Run-identity block shared by the flight-recorder dump and the recovery
/// artifact (both are self-contained: everything needed to rerun).
obs::FlightContext make_flight_context(const support::ArgParser& args,
                                       const graph::Graph& g,
                                       exp::Variant variant,
                                       std::uint64_t seed,
                                       const std::string& engine_name) {
  obs::FlightContext ctx;
  ctx.tool = "beepmis_cli";
  ctx.seed = seed;
  ctx.graph_name = g.name();
  ctx.family = args.get("graph-file").empty() ? args.get("family") : "file";
  ctx.n = g.vertex_count();
  ctx.m = g.edge_count();
  ctx.max_degree = g.max_degree();
  ctx.algorithm = exp::variant_name(variant);
  ctx.init_policy = args.get("init");
  ctx.engine = engine_name;
  ctx.add_extra("duplex", args.get("duplex"));
  ctx.add_extra("noise_fp", args.get("noise-fp"));
  ctx.add_extra("noise_fn", args.get("noise-fn"));
  return ctx;
}

int run_selfstab(const support::ArgParser& args, const graph::Graph& g,
                 exp::Variant variant) {
  const auto wall_start = std::chrono::steady_clock::now();
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  core::EngineConfig config;
  config.variant = variant;
  config.seed = seed;
  config.c1 = static_cast<std::int32_t>(args.get_int("c1"));
  config.noise = beep::ChannelNoise{args.get_double("noise-fp"),
                                    args.get_double("noise-fn")};
  if (!core::parse_engine_kind(args.get("engine"), &config.kind)) {
    std::cerr << "unknown engine: " << args.get("engine")
              << " (try auto, fast, reference)\n";
    std::exit(2);
  }
  config.shard_threads =
      static_cast<std::size_t>(args.get_int("shard-threads"));
  if (const std::string& d = args.get("duplex"); d == "half") {
    config.duplex = beep::Duplex::Half;
  } else if (d != "full") {
    std::cerr << "unknown duplex mode: " << d << " (try full, half)\n";
    std::exit(2);
  }
  // Per-phase shard telemetry is forced on when either periodic artifact is
  // requested (the kernel also turns it on by itself while a tracing session
  // is live). It is pure observation: simulation output is byte-identical
  // with the layer on or off.
  const bool want_series = !args.get("timeseries-out").empty();
  const bool want_progress = !args.get("progress-out").empty();
  config.phase_telemetry = want_series || want_progress;
  auto engine = core::make_engine(g, config);

  // Shard count this run will actually use — trace and timeseries context,
  // so beepmis_report can key its phase-breakdown tables on it.
  const std::size_t shards =
      support::TaskPool::resolve_thread_count(config.shard_threads);

  trace_begin(args,
              {{"algorithm", exp::variant_name(variant)},
               {"family", args.get("graph-file").empty() ? args.get("family")
                                                         : "file"},
               {"n", std::to_string(g.vertex_count())},
               {"seed", args.get("seed")},
               {"engine", engine->name()},
               {"shards", std::to_string(shards)}});
  profile_begin(args,
                {{"algorithm", exp::variant_name(variant)},
                 {"family", args.get("graph-file").empty()
                                ? args.get("family")
                                : "file"},
                 {"n", std::to_string(g.vertex_count())},
                 {"m", std::to_string(g.edge_count())},
                 {"seed", args.get("seed")},
                 {"engine", engine->name()}});

  support::Rng init_rng = support::Rng(seed).derive_stream(0xfadedcafe);
  core::apply_init(*engine, parse_init(args.get("init")), init_rng);

  const auto budget = static_cast<beep::Round>(args.get_int("max-rounds"));
  const bool tracing = args.flag("trace");
  const bool charting = !args.get("svg").empty();

  // Telemetry: registry always exists (near-free when unused); the event
  // sink, heartbeat and in-memory round log are attached only when asked
  // for. The engine has a single observer slot, so compose via a tee.
  obs::MetricsRegistry metrics;
  obs::TeeObserver tee;
  std::ofstream events_file;
  std::unique_ptr<obs::JsonlSink> events;
  if (const std::string& path = args.get("events-out"); !path.empty()) {
    events_file.open(path);
    if (!events_file) {
      std::cerr << "cannot open events file: " << path << "\n";
      std::exit(2);
    }
    events = std::make_unique<obs::JsonlSink>(events_file,
                                              /*with_analysis=*/true);
    tee.add(events.get());
  }
  ProgressMeter progress(
      static_cast<std::uint64_t>(args.get_int("progress")));
  if (progress.interval() > 0) tee.add(&progress);
  TelemetrySampler sampler(engine.get(), budget);
  std::unique_ptr<obs::TimeSeries> series;
  if (want_series) {
    series = std::make_unique<obs::TimeSeries>(
        static_cast<std::size_t>(
            std::max<std::int64_t>(1, args.get_int("timeseries-capacity"))),
        static_cast<std::uint64_t>(
            std::max<std::int64_t>(1, args.get_int("timeseries-every"))));
    series->set_context("tool", "beepmis_cli");
    series->set_context("algorithm", exp::variant_name(variant));
    series->set_context("family", args.get("graph-file").empty()
                                      ? args.get("family")
                                      : "file");
    series->set_context("n", std::to_string(g.vertex_count()));
    series->set_context("seed", args.get("seed"));
    series->set_context("shards", std::to_string(shards));
    series->set_context("shard_threads", args.get("shard-threads"));
    sampler.attach_series(series.get());
  }
  std::unique_ptr<obs::ProgressWriter> progress_writer;
  if (want_progress) {
    progress_writer =
        std::make_unique<obs::ProgressWriter>(args.get("progress-out"));
    sampler.attach_progress(
        progress_writer.get(),
        static_cast<std::uint64_t>(args.get_int("progress-every")));
  }
  if (want_series || want_progress) tee.add(&sampler);
  obs::MemorySink rounds_log;
  if (tracing || charting) tee.add(&rounds_log);
  const obs::AnomalyConfig anomaly = make_anomaly_config(args, g, variant);
  std::unique_ptr<obs::FlightRecorder> flight;
  if (const std::string& path = args.get("flight-recorder"); !path.empty()) {
    flight = std::make_unique<obs::FlightRecorder>(
        /*ring_capacity=*/256, anomaly,
        make_flight_context(args, g, variant, seed, engine->name()));
    flight->set_dump_path(path);
    flight->set_snapshot_every(
        std::max<std::uint64_t>(1, anomaly.expected_rounds / 8));
    core::Engine* eng = engine.get();
    flight->set_level_probe([eng]() {
      std::vector<std::int32_t> levels(eng->graph().vertex_count());
      for (std::size_t v = 0; v < levels.size(); ++v)
        levels[v] = eng->level(v);
      return levels;
    });
    tee.add(flight.get());
  }

  // Recovery observability: the tracker segments the run into fault →
  // re-stabilization epochs; the monitor adds online invariant checks that
  // latch into the flight recorder and poison the open epoch. Attach order
  // matters: flight, then monitor, then tracker — violations must latch
  // before the tracker classifies the epoch close.
  const bool monitoring = args.flag("monitor");
  const bool tracking = monitoring || !args.get("recovery-out").empty();
  obs::RecoveryConfig recovery_config;
  recovery_config.recovery_bound =
      exp::default_recovery_bound(g.vertex_count());
  std::unique_ptr<obs::RecoveryTracker> recovery;
  std::unique_ptr<obs::InvariantMonitor> monitor;
  if (tracking) {
    recovery = std::make_unique<obs::RecoveryTracker>(recovery_config);
    recovery->set_probe(core::make_invariant_probe(*engine));
    if (monitoring) {
      obs::InvariantConfig icfg;
      icfg.cadence = static_cast<std::uint64_t>(args.get_int("monitor-every"));
      monitor = std::make_unique<obs::InvariantMonitor>(icfg);
      monitor->set_probe(core::make_invariant_probe(*engine));
      monitor->set_flight_recorder(flight.get());
      monitor->set_recovery_tracker(recovery.get());
      tee.add(monitor.get());
    }
    tee.add(recovery.get());
  }
  if (!tee.empty()) engine->set_observer(&tee);
  engine->set_metrics(&metrics);

  auto run_once = [&](const char* label) {
    const auto rounds = engine->run_to_stabilization(budget);
    const auto members = engine->mis_members();
    const bool ok = engine->is_stabilized();
    metrics.counter("cli.runs_total").inc();
    metrics.counter("cli.rounds_total").inc(rounds);
    metrics.histogram("cli.rounds_to_stabilize").record(rounds);
    metrics.digest("cli.rounds_to_stabilize")
        .add(static_cast<double>(rounds));
    if (!ok) metrics.counter("cli.budget_exhausted").inc();
    std::printf("%-12s rounds=%llu stabilized=%s mis=%zu valid=%s\n", label,
                static_cast<unsigned long long>(rounds),
                ok ? "yes" : "NO", mis::member_count(members),
                mis::is_mis(g, members) ? "yes" : "NO");
    return ok;
  };

  bool ok;
  {
    obs::ScopedTimer timer(&metrics, "cli.run");
    ok = run_once("run");
    support::Rng frng = support::Rng(seed).derive_stream(0xfa17);
    const auto faults = static_cast<std::size_t>(args.get_int("faults"));
    for (std::int64_t w = 0; w < args.get_int("waves") && faults; ++w) {
      obs::TraceScope wave_span("recovery.epoch",
                                static_cast<std::uint64_t>(w + 1));
      core::corrupt_random(*engine, faults, frng, recovery.get());
      char label[32];
      std::snprintf(label, sizeof label, "wave %lld",
                    static_cast<long long>(w + 1));
      ok = run_once(label) && ok;
    }
    if (recovery) recovery->finalize(engine->round());
  }

  if (charting) {
    support::SvgChart chart("beepmis convergence (" + g.name() + ")",
                            "round", "vertices");
    std::vector<std::pair<double, double>> stable, mis, prominent;
    for (const auto& e : rounds_log.events()) {
      stable.emplace_back(static_cast<double>(e.round),
                          static_cast<double>(e.stable));
      mis.emplace_back(static_cast<double>(e.round),
                       static_cast<double>(e.mis));
      prominent.emplace_back(static_cast<double>(e.round),
                             static_cast<double>(e.prominent));
    }
    if (!stable.empty()) {
      chart.add_series("stable |S_t|", std::move(stable));
      chart.add_series("MIS |I_t|", std::move(mis));
      chart.add_series("prominent |PM_t|", std::move(prominent));
      std::ofstream svg(args.get("svg"));
      chart.write(svg);
      std::printf("wrote %s\n", args.get("svg").c_str());
    }
  }

  if (tracing) {
    std::printf(
        "\nround, beeps_ch1, beeps_ch2, heard_ch1, heard_ch2, heard_any\n");
    for (const auto& e : rounds_log.events())
      std::printf("%llu, %u, %u, %u, %u, %u\n",
                  static_cast<unsigned long long>(e.round), e.beeps_ch1,
                  e.beeps_ch2, e.heard_ch1, e.heard_ch2, e.heard_any);
  }

  if (events) {
    events_file.flush();
    std::printf("wrote %s (%llu events)\n", args.get("events-out").c_str(),
                static_cast<unsigned long long>(events->lines_written()));
  }

  if (flight) {
    if (flight->anomalies().empty()) {
      std::printf("flight recorder: no anomalies\n");
    } else {
      std::printf("flight recorder: %zu anomalie(s), dump in %s\n",
                  flight->anomalies().size(),
                  args.get("flight-recorder").c_str());
    }
  }

  if (recovery) {
    const obs::RecoverySummary sum = recovery->summary();
    // Engine- and thread-invariant: this line (like the run lines above) is
    // part of the stdout the CI equivalence gates diff across engines.
    std::printf("recovery: epochs=%llu masked=%llu recovered=%llu "
                "stall=%llu safety=%llu violations=%llu\n",
                static_cast<unsigned long long>(sum.epochs),
                static_cast<unsigned long long>(sum.masked),
                static_cast<unsigned long long>(sum.recovered),
                static_cast<unsigned long long>(sum.stalls),
                static_cast<unsigned long long>(sum.safety_violations),
                static_cast<unsigned long long>(sum.invariant_violations));
    if (const std::string& path = args.get("recovery-out"); !path.empty()) {
      obs::RecoveryReport report;
      report.context =
          make_flight_context(args, g, variant, seed, engine->name());
      report.config = recovery_config;
      report.monitor = monitoring;
      report.monitor_cadence =
          monitoring ? monitor->config().cadence : 0;
      report.epochs = recovery->epochs();
      if (monitor) report.violations = monitor->violations();
      report.summary = sum;
      std::ofstream rout(path);
      if (!rout) {
        std::cerr << "cannot open recovery file: " << path << "\n";
        std::exit(2);
      }
      obs::write_recovery_json(rout, report);
      std::printf("wrote %s\n", path.c_str());
    }
  }

  // Terminal sample/heartbeat, then the timeseries document. The sample
  // counts printed here are deterministic (round-based cadence, fixed
  // capacity, deterministic final round), so stdout stays diffable across
  // thread and shard counts.
  sampler.finalize();
  if (series) {
    const std::string& path = args.get("timeseries-out");
    std::ofstream tout(path);
    if (!tout) {
      std::cerr << "cannot open timeseries file: " << path << "\n";
      std::exit(2);
    }
    series->write_json(tout);
    std::printf("wrote %s (%llu samples, %llu overwritten)\n", path.c_str(),
                static_cast<unsigned long long>(series->recorded()),
                static_cast<unsigned long long>(series->dropped()));
  }
  if (progress_writer) {
    if (!progress_writer->ok()) {
      std::cerr << "progress stream error: " << progress_writer->error()
                << "\n";
      std::exit(2);
    }
    std::printf("wrote %s (%llu heartbeats)\n",
                progress_writer->path().c_str(),
                static_cast<unsigned long long>(progress_writer->beats()));
  }

  if (const std::string& path = args.get("metrics-out"); !path.empty()) {
    obs::RunManifest man;
    man.tool = "beepmis_cli";
    man.seed = seed;
    man.graph_name = g.name();
    man.family = args.get("graph-file").empty() ? args.get("family") : "file";
    man.n = g.vertex_count();
    man.m = g.edge_count();
    man.max_degree = g.max_degree();
    man.algorithm = exp::variant_name(variant);
    man.init_policy = args.get("init");
    man.c1 = config.c1
                 ? config.c1
                 : (variant == exp::Variant::GlobalDelta ? core::kC1GlobalDelta
                    : variant == exp::Variant::OwnDegree ? core::kC1OwnDegree
                                                         : core::kC1TwoChannel);
    man.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    man.add_extra("stabilized", ok ? "yes" : "no");
    man.add_extra("rounds_total", std::to_string(engine->round()));
    man.add_extra("engine", engine->name());
    man.add_extra("engine_requested", core::engine_kind_name(config.kind));
    man.add_extra("kernel", engine->kernel_name());
    man.add_extra("shard_threads_requested", args.get("shard-threads"));
    man.add_extra("shards", std::to_string(shards));
    man.add_extra("duplex", args.get("duplex"));
    man.add_extra("faults_per_wave", args.get("faults"));
    man.add_extra("waves", args.get("waves"));
    man.add_extra("noise_fp", args.get("noise-fp"));
    man.add_extra("noise_fn", args.get("noise-fn"));
    // The manifest is written before the tracing session ends, but the
    // recorders are quiescent by now (the run is over), so the dropped
    // count is final.
    if (!args.get("trace-out").empty())
      man.trace_dropped = obs::Tracer::instance().dropped_spans();
    man.profiling = profiling_state(args);
    std::ofstream mout(path);
    if (!mout) {
      std::cerr << "cannot open metrics file: " << path << "\n";
      std::exit(2);
    }
    obs::write_run_json(mout, man, &metrics);
    std::printf("wrote %s\n", path.c_str());
  }
  if (const int rc = profile_end(args); rc != 0) return rc;
  if (const int rc = trace_end(args); rc != 0) return rc;
  return ok ? 0 : 1;
}

/// --sweep mode: a full scaling sweep (sizes × seeds) of one self-stab
/// variant on one family, executed across a support::TaskPool of --threads
/// workers. The printed table and the beepmis.sweep.v1 JSON are
/// byte-identical for every thread count (CI diffs --threads 1 against
/// --threads 8), so --sweep-out deliberately records *what* was swept and
/// what came out — never wall-clock or worker count.
int run_sweep(const support::ArgParser& args, exp::Variant variant,
              exp::Family family) {
  const auto wall_start = std::chrono::steady_clock::now();
  // The periodic samplers attach to one engine's observer slot; a sweep runs
  // sizes × seeds engines, so these are single-run features.
  if (!args.get("timeseries-out").empty() ||
      !args.get("progress-out").empty())
    std::fprintf(stderr,
                 "--timeseries-out/--progress-out are single-run features; "
                 "ignored in --sweep mode\n");
  exp::SweepConfig cfg;
  cfg.variant = variant;
  cfg.init = parse_init(args.get("init"));
  cfg.seeds = static_cast<std::size_t>(args.get_int("sweep-seeds"));
  cfg.base_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  cfg.c1 = static_cast<std::int32_t>(args.get_int("c1"));
  cfg.threads = static_cast<std::size_t>(args.get_int("threads"));
  if (!core::parse_engine_kind(args.get("engine"), &cfg.engine)) {
    std::cerr << "unknown engine: " << args.get("engine")
              << " (try auto, fast, reference)\n";
    return 2;
  }
  cfg.shard_threads =
      static_cast<std::size_t>(args.get_int("shard-threads"));
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;

  // --sizes: comma-separated vertex counts, or the "giant" preset — the
  // n = 10^7 ladder the sharded kernel and streaming generators exist for.
  // Pair it with a small --sweep-seeds (replicas at 10^7 take minutes each).
  std::string sizes = args.get("sizes");
  if (sizes == "giant") sizes = "100000,300000,1000000,3000000,10000000";
  for (std::size_t pos = 0; pos < sizes.size();) {
    const std::size_t comma = sizes.find(',', pos);
    const std::string tok =
        sizes.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) cfg.sizes.push_back(std::stoull(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (cfg.sizes.empty()) {
    std::cerr << "--sweep needs --sizes n1,n2,...\n";
    return 2;
  }

  std::ofstream events_file;
  std::unique_ptr<obs::JsonlSink> events;
  if (const std::string& path = args.get("events-out"); !path.empty()) {
    events_file.open(path);
    if (!events_file) {
      std::cerr << "cannot open events file: " << path << "\n";
      return 2;
    }
    // Workers buffer per replica; the coordinator replays every replica's
    // stream into this sink contiguously, in seed order.
    events = std::make_unique<obs::JsonlSink>(events_file,
                                              /*with_analysis=*/false);
    cfg.observer = events.get();
  }

  trace_begin(args, {{"algorithm", exp::variant_name(variant)},
                     {"family", exp::family_name(family)},
                     {"seed", args.get("seed")},
                     {"mode", "sweep"}});
  // No single n/m: a sweep spans --sizes, so the profile aggregates rounds
  // across every size and the report's per-edge column stays blank.
  profile_begin(args, {{"algorithm", exp::variant_name(variant)},
                       {"family", exp::family_name(family)},
                       {"seed", args.get("seed")},
                       {"sizes", args.get("sizes")},
                       {"mode", "sweep"}});

  const auto points = exp::run_scaling_sweep(family, cfg);
  std::cout << exp::sweep_table(points).str();

  std::size_t failures = 0, invalid = 0;
  for (const auto& pt : points) {
    failures += pt.failures;
    invalid += pt.invalid;
  }

  if (const std::string& path = args.get("sweep-out"); !path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open sweep file: " << path << "\n";
      return 2;
    }
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "beepmis.sweep.v1");
    w.field("family", exp::family_name(family));
    w.field("algorithm", exp::variant_name(variant));
    w.field("init", args.get("init"));
    w.field("base_seed", static_cast<std::uint64_t>(cfg.base_seed));
    w.field("seeds_per_size", static_cast<std::uint64_t>(cfg.seeds));
    // Provenance only: results are shard- and engine-invariant, and the CI
    // equivalence gate diffs sweep outputs across engines modulo this field.
    w.field("kernel", "sharded");
    w.key("points").begin_array();
    for (const auto& pt : points) {
      w.begin_object();
      w.field("n", static_cast<std::uint64_t>(pt.n));
      w.field("runs", static_cast<std::uint64_t>(pt.rounds.count()));
      w.field("mean", pt.rounds.mean());
      w.field("min", pt.rounds.min());
      w.field("max", pt.rounds.max());
      w.field("p50", pt.rounds.quantile(0.50));
      w.field("p90", pt.rounds.quantile(0.90));
      w.field("p95", pt.rounds.quantile(0.95));
      w.field("p99", pt.rounds.quantile(0.99));
      w.field("failures", static_cast<std::uint64_t>(pt.failures));
      w.field("invalid", static_cast<std::uint64_t>(pt.invalid));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
    // Status notices go to stderr in sweep mode: stdout carries only the
    // thread-count-invariant results, so `diff` on captured stdout is a
    // valid determinism check even when output paths differ per run.
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

  if (events) {
    events_file.flush();
    std::fprintf(stderr, "wrote %s (%llu events)\n",
                 args.get("events-out").c_str(),
                 static_cast<unsigned long long>(events->lines_written()));
  }

  if (const std::string& path = args.get("metrics-out"); !path.empty()) {
    obs::RunManifest man;
    man.tool = "beepmis_cli";
    man.seed = cfg.base_seed;
    man.family = args.get("family");
    man.algorithm = exp::variant_name(variant);
    man.init_policy = args.get("init");
    man.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    man.add_extra("mode", "sweep");
    man.add_extra("sizes", args.get("sizes"));
    man.add_extra("seeds_per_size", args.get("sweep-seeds"));
    man.add_extra("threads_requested", args.get("threads"));
    man.add_extra("shard_threads_requested", args.get("shard-threads"));
    if (!args.get("trace-out").empty())
      man.trace_dropped = obs::Tracer::instance().dropped_spans();
    man.profiling = profiling_state(args);
    std::ofstream mout(path);
    if (!mout) {
      std::cerr << "cannot open metrics file: " << path << "\n";
      return 2;
    }
    obs::write_run_json(mout, man, &metrics);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

  if (const int rc = profile_end(args); rc != 0) return rc;
  if (const int rc = trace_end(args); rc != 0) return rc;
  return failures == 0 && invalid == 0 ? 0 : 1;
}

int run_baseline(const support::ArgParser& args, const graph::Graph& g,
                 const std::string& name) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto budget = static_cast<beep::Round>(args.get_int("max-rounds"));
  if (name == "luby") {
    auto algo = std::make_unique<baselines::LubyMis>(g);
    auto* a = algo.get();
    local::LocalSimulation sim(g, std::move(algo), seed);
    while (!a->terminated() && sim.round() < budget) sim.step();
    const auto members = a->mis_members();
    std::printf("luby rounds=%llu terminated=%s mis=%zu valid=%s\n",
                static_cast<unsigned long long>(sim.round()),
                a->terminated() ? "yes" : "NO", mis::member_count(members),
                mis::is_mis(g, members) ? "yes" : "NO");
    return a->terminated() ? 0 : 1;
  }
  std::unique_ptr<beep::BeepingAlgorithm> algo;
  if (name == "jsx") {
    algo = std::make_unique<baselines::JsxMis>(g);
  } else if (name == "afek-noknow") {
    algo = std::make_unique<baselines::AfekNoKnowledgeMis>(g);
  } else {  // afek
    algo = std::make_unique<baselines::AfekStyleMis>(g, g.vertex_count());
  }
  beep::Simulation sim(g, std::move(algo), seed);
  auto done_now = [&]() {
    if (auto* j = dynamic_cast<baselines::JsxMis*>(&sim.algorithm()))
      return j->terminated();
    if (auto* a = dynamic_cast<baselines::AfekNoKnowledgeMis*>(&sim.algorithm()))
      return a->terminated();
    return dynamic_cast<baselines::AfekStyleMis&>(sim.algorithm())
        .is_stabilized();
  };
  bool done = false;
  while (!done && sim.round() < budget) {
    sim.step();
    done = done_now();
  }
  std::vector<bool> members;
  if (auto* j = dynamic_cast<baselines::JsxMis*>(&sim.algorithm()))
    members = j->mis_members();
  else if (auto* a = dynamic_cast<baselines::AfekNoKnowledgeMis*>(&sim.algorithm()))
    members = a->mis_members();
  else
    members = dynamic_cast<baselines::AfekStyleMis&>(sim.algorithm())
                  .mis_members();
  std::printf("%s rounds=%llu done=%s mis=%zu valid=%s\n", name.c_str(),
              static_cast<unsigned long long>(sim.round()),
              done ? "yes" : "NO", mis::member_count(members),
              mis::is_mis(g, members) ? "yes" : "NO");
  return done ? 0 : 1;
}

int run_app(const support::ArgParser& args, const graph::Graph& g,
            const std::string& name) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto budget = static_cast<beep::Round>(args.get_int("max-rounds"));
  if (name == "coloring") {
    const auto r = apps::color_via_selfstab_mis(g, seed, budget);
    if (!r) {
      std::printf("coloring did not stabilize within the budget\n");
      return 1;
    }
    const auto k = static_cast<std::uint32_t>(g.max_degree() + 1);
    std::printf("coloring rounds=%llu colors=%u/%u proper=%s\n",
                static_cast<unsigned long long>(r->rounds), r->colors_used, k,
                apps::is_proper_coloring(g, r->colors, k) ? "yes" : "NO");
    return 0;
  }
  // ruling set
  const auto alpha = static_cast<std::size_t>(args.get_int("alpha"));
  const auto r = apps::ruling_set_via_selfstab_mis(g, alpha, seed, budget);
  if (!r) {
    std::printf("ruling set did not stabilize within the budget\n");
    return 1;
  }
  std::printf("ruling-set rounds=%llu members=%zu (%zu,%zu)-ruling=%s\n",
              static_cast<unsigned long long>(r->rounds),
              mis::member_count(r->members), alpha, alpha - 1,
              apps::is_ruling_set(g, r->members, alpha, alpha - 1) ? "yes"
                                                                   : "NO");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "beepmis_cli — self-stabilizing MIS in the beeping model "
      "(Giakkoupis, Turau, Ziccardi; PODC'24)");
  args.add_option("family", "er-avg8",
                  "graph family: er-avg8 | 4-regular | torus | ba-m3 | "
                  "rgg-avg8 | rand-tree | cycle | star");
  args.add_option("n", "1024", "number of vertices for generated graphs");
  args.add_option("graph-file", "",
                  "edge-list file to load instead of generating");
  args.add_option("algorithm", "v1",
                  "v1 (Thm 2.1) | v2 (Thm 2.2) | v3 (Cor 2.3) | jsx | afek | "
                  "afek-noknow | luby | coloring | ruling");
  args.add_option("init", "uniform-random",
                  "initial configuration policy (self-stab variants)");
  args.add_option("seed", "1", "master RNG seed");
  args.add_option("c1", "0", "lmax constant override (0 = paper default)");
  args.add_option("max-rounds", "100000", "round budget per run");
  args.add_option("faults", "0", "nodes to corrupt per fault wave");
  args.add_option("waves", "0", "number of fault waves after stabilization");
  args.add_option("noise-fp", "0", "receiver false-positive rate (extension)");
  args.add_option("noise-fn", "0", "receiver false-negative rate (extension)");
  args.add_option("engine", "auto",
                  "executor for self-stab variants: auto | fast | reference "
                  "(auto picks the fast engine; both are stream-identical)");
  args.add_option("shard-threads", "1",
                  "worker threads INSIDE each fast-engine round: 1 = "
                  "serial, 0 = one per hardware thread; results are "
                  "bit-identical for every value");
  args.add_option("duplex", "full",
                  "radio model: full (hear while beeping) | half");
  args.add_option("alpha", "3", "ruling-set separation (algorithm=ruling)");
  args.add_option("svg", "", "write a convergence chart to this SVG file");
  args.add_option("metrics-out", "",
                  "write run manifest + metrics JSON to this file");
  args.add_option("events-out", "",
                  "stream per-round events (JSONL) to this file");
  args.add_option("flight-recorder", "",
                  "arm the black-box flight recorder; writes a "
                  "beepmis.dump.v1 JSON to this file when an anomaly "
                  "(stall, Lemma 3.1 persistence, beep storm) fires");
  args.add_option("progress", "0",
                  "print a heartbeat to stderr every K rounds (0 = off)");
  args.add_flag("monitor",
                "arm the online invariant monitor: checks MIS independence/"
                "maximality at every stabilization claim and level-range "
                "sanity every --monitor-every rounds; violations latch into "
                "the flight recorder and the recovery tracker");
  args.add_option("monitor-every", "64",
                  "invariant-probe cadence in rounds for --monitor (each "
                  "probe is O(n + m); 0 = probe only at stabilization "
                  "edges)");
  args.add_option("recovery-out", "",
                  "write a deterministic beepmis.recovery.v1 JSON (fault → "
                  "re-stabilization epochs, classified against the Thm "
                  "2.1/2.2 O(log n) bound) to this file; implies recovery "
                  "tracking even without --monitor");
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
  args.add_flag("trace", "print per-round beep statistics after the run");
  args.add_flag("sweep",
                "scaling-sweep mode (self-stab variants): run --sizes × "
                "--sweep-seeds replicas of --algorithm on --family");
  args.add_option("sizes", "64,256,1024",
                  "comma-separated vertex counts for --sweep");
  args.add_option("sweep-seeds", "12", "replicas per size for --sweep");
  args.add_option("threads", "1",
                  "worker threads for --sweep (0 = one per hardware "
                  "thread); results are bit-identical for every value");
  args.add_option("sweep-out", "",
                  "write a deterministic beepmis.sweep.v1 JSON summary "
                  "(identical across --threads values) to this file");
  args.add_option("timeseries-out", "",
                  "write a beepmis.timeseries.v1 document (periodic samples "
                  "of actives/beeps/MIS size plus per-phase wall time and "
                  "shard imbalance) to this file after the run; forces "
                  "per-phase shard telemetry on");
  args.add_option("timeseries-every", "1",
                  "timeseries sampling cadence in rounds (values < 1 are "
                  "clamped to 1); raise it for giant runs");
  args.add_option("timeseries-capacity", "4096",
                  "timeseries ring capacity in samples — memory is fixed; "
                  "when it fills, the oldest samples are overwritten and "
                  "counted");
  args.add_option("progress-out", "",
                  "stream live beepmis.progress.v1 heartbeats (JSONL ring, "
                  "atomic-replace rewrite) to this file: round, rounds/sec, "
                  "ETA vs budget, peak RSS, shard imbalance, trace drops");
  args.add_option("progress-every", "1024",
                  "heartbeat cadence in rounds for --progress-out (0 = only "
                  "the terminal heartbeat)");
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
  args.add_flag("profile",
                "attribute hardware perf counters (IPC, cache, branches) "
                "to engine/sweep/pool spans; degrades to a no-op when "
                "perf_event_open is denied");
  args.add_option("profile-out", "profile.json",
                  "write the beepmis.profile.v1 document here (always "
                  "written under --profile; records \"available\": false "
                  "when the kernel denies counters)");
  args.add_option("profile-every", "64",
                  "measure every K-th engine round (per-round counter "
                  "reads are syscalls; coarse spans measure every time)");

  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::cerr << error << "\n";
    return error.rfind("beepmis_cli", 0) == 0 ? 0 : 2;  // --help exits 0
  }

  const std::string algo = args.get("algorithm");
  if (args.flag("sweep")) {
    exp::Family family;
    if (!parse_family(args.get("family"), &family)) {
      std::cerr << "unknown family: " << args.get("family") << "\n";
      return 2;
    }
    if (algo == "v1") return run_sweep(args, exp::Variant::GlobalDelta, family);
    if (algo == "v2") return run_sweep(args, exp::Variant::OwnDegree, family);
    if (algo == "v3") return run_sweep(args, exp::Variant::TwoChannel, family);
    std::cerr << "--sweep supports the self-stab variants only (v1|v2|v3)\n";
    return 2;
  }

  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  support::Rng graph_rng = support::Rng(seed).derive_stream(0x6ea9);
  const graph::Graph g = load_graph(args, graph_rng);
  std::printf("graph %s: n=%zu m=%zu max-degree=%zu\n", g.name().c_str(),
              g.vertex_count(), g.edge_count(), g.max_degree());

  if (algo == "v1") return run_selfstab(args, g, exp::Variant::GlobalDelta);
  if (algo == "v2") return run_selfstab(args, g, exp::Variant::OwnDegree);
  if (algo == "v3") return run_selfstab(args, g, exp::Variant::TwoChannel);
  if (algo == "jsx" || algo == "afek" || algo == "afek-noknow" ||
      algo == "luby")
    return run_baseline(args, g, algo);
  if (algo == "coloring" || algo == "ruling") return run_app(args, g, algo);
  std::cerr << "unknown algorithm: " << algo << "\n";
  return 2;
}
