// perfbench_driver — the measuring half of the beepmis benchmark (run.py
// builds it and wraps its output). One invocation runs one workload:
//
//   perfbench_driver --workload giant|sweep|recovery --seed N --seconds S
//                    --trace 0|1 [--smoke] [--spans-out FILE]
//
// --trace 0 is the untraced pass: a closed loop for S seconds that reports
// the end-to-end metrics. --trace 1 replays the workload's digest prefix
// untraced, then again with the benchmark's own spans around every call into
// a library layer, then probes the layers the workload's own path does not
// reach on its main graph, and reports the per-layer metrics. Every workload
// reports the same metric names in each mode. --smoke shrinks every instance
// so the whole pass takes seconds (tests only).
//
// The result is one JSON object on stdout: workload, digest, attempted,
// failed, metrics {name: {value, unit}}, percentile sample counts and host
// context. Exit status is 0 iff every replica and wave verified and every
// pass of this invocation produced the same digest.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/init.hpp"
#include "src/core/invariant.hpp"
#include "src/exp/families.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/sink.hpp"
#include "src/support/rng.hpp"

namespace {

using namespace beepmis;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds this thread has run on a CPU: the clock of the benchmark's own
/// spans, and of the untraced replay that trace.overhead compares them with.
/// It leaves out time the thread was blocked or the host withheld its vCPU,
/// and work done on other threads, so no end-to-end metric uses it.
double run_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Process CPU seconds, all threads.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag, std::uint64_t i) {
  std::uint64_t s = seed;
  s = support::splitmix64(s) ^ tag;
  s = support::splitmix64(s) ^ i;
  return support::splitmix64(s);
}

// ---------------------------------------------------------------- statistics

/// Linear-interpolated quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}
std::size_t count_above(const std::vector<double>& v, double x) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [x](double y) { return y > x; }));
}

// --------------------------------------------------------------------- spans

/// The benchmark's own trace: spans kept in memory around each call into a
/// library layer, written once at exit. Calls are serial, so a span's
/// children never overlap and self time is duration minus Σ children. Spans
/// are timed with run_s(), so a span's self time is the layer's own CPU
/// work, free of steal.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };

  void open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back({name, run_s(), 0.0, parent});
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end = run_s();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t size() const noexcept { return spans_.size(); }

  /// One past the last span inside span `root` (spans are stored in
  /// opening order, so the subtree is contiguous).
  std::size_t subtree_end(std::size_t root) const {
    std::size_t i = root + 1;
    while (i < spans_.size() && spans_[i].parent >= static_cast<int>(root)) ++i;
    return i;
  }

  std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
  }

  /// Durations (ms) of every span called `name` in [from, to), in start
  /// order.
  std::vector<double> durations_ms(const char* name, std::size_t from,
                                   std::size_t to) const {
    std::vector<double> out;
    for (std::size_t i = from; i < to; ++i)
      if (std::strcmp(spans_[i].name, name) == 0)
        out.push_back(1e3 * (spans_[i].end - spans_[i].start));
    return out;
  }

  /// Σ self time (s) per span name in [from, to), in first-seen order.
  std::vector<std::pair<std::string, double>> self_by_name(
      std::size_t from, std::size_t to) const {
    const std::vector<double> self = self_seconds();
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = from; i < to; ++i) {
      auto it = std::find_if(out.begin(), out.end(), [&](const auto& p) {
        return p.first == spans_[i].name;
      });
      if (it == out.end())
        out.emplace_back(spans_[i].name, self[i]);
      else
        it->second += self[i];
    }
    return out;
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"schema\":\"perfbench.spans.v1\",\"spans\":[";
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                    "\"end_s\":%.9f,\"parent\":%d}",
                    i == 0 ? "" : ",", i, spans_[i].name,
                    spans_[i].start - t0, spans_[i].end - t0,
                    spans_[i].parent);
      out << buf << '\n';
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// (the untraced pass) makes it a no-op.
class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->open(name);
  }
  ~Scope() {
    if (log_ != nullptr) log_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

// -------------------------------------------------------------------- digest

/// Simulated outcome of a fixed prefix of a workload's replicas or waves:
/// item count, Σ rounds, Σ |MIS| and an FNV-1a hash over every item's
/// (rounds, |MIS|) in order. Timing never enters it, so every pass over the
/// same seed must reproduce it exactly.
struct Digest {
  std::uint64_t items = 0;
  std::uint64_t rounds = 0;
  std::uint64_t mis = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void add(std::uint64_t item_rounds, std::uint64_t item_mis) {
    ++items;
    rounds += item_rounds;
    mis += item_mis;
    for (std::uint64_t x : {item_rounds, item_mis})
      for (int b = 0; b < 8; ++b) {
        hash ^= (x >> (8 * b)) & 0xff;
        hash *= 0x100000001b3ULL;
      }
  }
  double rounds_per_item() const {
    return static_cast<double>(rounds) / static_cast<double>(items);
  }
  std::string str() const {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "items=%" PRIu64 ";rounds=%" PRIu64 ";mis=%" PRIu64
                  ";hash=%016" PRIx64,
                  items, rounds, mis, hash);
    return buf;
  }
  bool operator==(const Digest&) const = default;
};

// -------------------------------------------------------------------- output

struct Result {
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics;
  /// For each percentile metric considered: samples, and samples beyond it.
  struct Pct {
    std::string name;
    std::size_t samples;
    std::size_t beyond;
  };
  std::vector<Pct> percentiles;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest digest;
  std::vector<std::string> errors;

  void add(std::string name, double value, const char* unit) {
    if (std::isfinite(value))
      metrics.push_back({std::move(name), value, unit});
    else
      errors.push_back("non-finite value for " + name);
  }
  /// Emits the q-quantile of `samples` as `name` only when at least ten
  /// samples lie beyond it; records the count either way.
  void add_percentile(const std::string& name,
                      const std::vector<double>& samples, double q,
                      const char* unit) {
    const double v = quantile(samples, q);
    const std::size_t beyond = count_above(samples, v);
    percentiles.push_back({name, samples.size(), beyond});
    if (beyond >= 10) add(name, v, unit);
  }
  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
  /// Compares a replayed pass's digest with a reference; a mismatch is a
  /// failed operation.
  void expect_digest(const Digest& got, const Digest& want, const char* pass) {
    if (!(got == want))
      fail(std::string("digest mismatch in ") + pass + ": " + got.str() +
           " vs " + want.str());
  }
};

// ------------------------------------------------------------- host context

struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t busy = 0;  ///< user + nice + system + irq + softirq
  std::uint64_t steal = 0;
};

CpuTimes read_proc_stat() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[10] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got < 8) return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // folded into user/nice).
  for (int i = 0; i < 8; ++i) t.total += v[i];
  t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  t.steal = v[7];
  return t;
}

double read_loadavg1() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return -1.0;
  double l = -1.0;
  if (std::fscanf(f, "%lf", &l) != 1) l = -1.0;
  std::fclose(f);
  return l;
}

std::size_t hardware_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// The clock of every end-to-end time: wall time with the host's steal
/// taken out, wall × factor(). factor() is 1 − f, where f is the stolen
/// share of the vCPU time the guest asked for over the section (/proc/stat
/// steal ÷ (busy + steal)). Time a thread spends blocked, and work on every
/// thread, stay in; only the time the hypervisor withheld the vCPUs goes.
/// /proc/stat ticks at 10 ms, so sections with less than kMinTicks of busy
/// time (smoke runs) are left uncorrected; shorter items are timed in
/// batches that share one factor.
class StealFreeWall {
 public:
  StealFreeWall() : cpu0_(read_proc_stat()), wall0_(now_s()) {}
  double seconds() const {
    const double wall = now_s() - wall0_;
    return wall * factor();
  }
  double factor() const {
    const CpuTimes cpu1 = read_proc_stat();
    const double steal = static_cast<double>(cpu1.steal - cpu0_.steal);
    const double busy = static_cast<double>(cpu1.busy - cpu0_.busy);
    return busy >= kMinTicks ? 1.0 - steal / (busy + steal) : 1.0;
  }

 private:
  static constexpr double kMinTicks = 20.0;
  CpuTimes cpu0_;
  double wall0_;
};

// -------------------------------------------------------------------- config

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
};

/// Untraced closed loop: runs `item` until at least `min_items` have
/// completed and the items have taken `seconds` of wall time. `setup()`
/// runs `setups` times in between, off that clock, spread evenly over it
/// (the k-th before the first item that starts past k/(setups+1) of
/// `seconds`), so the repeated set-ups see the same host as the items: the
/// host's speed drifts over seconds.
template <typename Setup, typename Item>
void closed_loop(double seconds, std::size_t min_items, std::size_t setups,
                 Setup&& setup, Item&& item) {
  double busy = 0.0;
  std::size_t done = 0;
  for (std::size_t i = 0;; ++i) {
    while (done < setups &&
           busy >= seconds * static_cast<double>(done + 1) /
                       static_cast<double>(setups + 1)) {
      setup();
      ++done;
    }
    if (i >= min_items && busy >= seconds) return;
    const double t0 = now_s();
    item(i);
    busy += now_s() - t0;
  }
}

/// Set-ups per run whose median is setup_s; in the traced pass, graph
/// builds whose median is graph.build_ms.
constexpr std::size_t kSetups = 7;
/// Waves per batch: one recovery wave (~35 ms) is too short to tell its
/// steal share from /proc/stat, so each batch's waves share one factor. The
/// fault probe of giant and sweep runs one batch.
constexpr std::size_t kWaveBatch = 12;
/// Replica-level threads of the sweep, and of the pool probe.
constexpr std::size_t kSweepThreads = 2;

/// The main graph of giant and recovery: er-avg8 on n vertices drawn from
/// `seed`, its build time appended to `build_s`.
graph::Graph build_er(std::size_t n, std::uint64_t seed,
                      std::vector<double>& build_s) {
  const StealFreeWall clock;
  support::Rng rng = support::Rng(seed).derive_stream(1);
  graph::Graph g = exp::make_family(exp::Family::ErdosRenyiAvg8, n, rng);
  build_s.push_back(clock.seconds());
  return g;
}

/// engine.run_to_stabilization(budget), unrolled under a span log into
/// exactly the library's loop, `while (!is_stabilized() && rounds < budget)
/// step();`, so every round gets its own span: `first` names the first
/// round's, "core.round" the rest.
std::uint64_t stabilize(core::Engine& engine, std::uint64_t budget,
                        SpanLog* log, const char* first) {
  if (log == nullptr) return engine.run_to_stabilization(budget);
  std::uint64_t rounds = 0;
  while (!engine.is_stabilized() && rounds < budget) {
    Scope span(log, rounds == 0 ? first : "core.round");
    engine.step();
    ++rounds;
  }
  return rounds;
}

// ------------------------------------------------------------------ replicas

struct ReplicaOut {
  std::uint64_t rounds = 0;
  std::uint64_t mis = 0;
  bool ok = false;
  double seconds = 0.0;  ///< steal-free wall time
  core::ShardTelemetry telemetry{};
};

/// make_engine → apply_init → run to stabilization → verified MIS. With a
/// span log every round gets its own span; the first is_stabilized() — the
/// lazy settlement rebuild after init — is charged to init, where the
/// untraced loop also pays it first.
ReplicaOut solve(const graph::Graph& g, std::uint64_t seed,
                 core::KernelKind kernel, std::size_t shard_threads,
                 SpanLog* log) {
  ReplicaOut out;
  const StealFreeWall clock;
  std::unique_ptr<core::Engine> engine;
  {
    Scope span(log, "core.engine_init");
    core::EngineConfig config;
    config.seed = seed;
    config.kernel = kernel;
    config.shard_threads = shard_threads;
    config.phase_telemetry = kernel == core::KernelKind::Sharded;
    engine = core::make_engine(g, config);
    support::Rng init_rng = support::Rng(seed).derive_stream(0xfadedcafe);
    core::apply_init(*engine, core::InitPolicy::UniformRandom, init_rng);
    if (log != nullptr) engine->is_stabilized();
  }
  out.rounds = stabilize(*engine, exp::default_round_budget(g.vertex_count()),
                         log, "core.round1");
  {
    Scope span(log, "mis.verify");
    const std::vector<bool> members = engine->mis_members();
    out.ok = engine->is_stabilized() && mis::is_mis(g, members);
    out.mis = mis::member_count(members);
  }
  out.seconds = clock.seconds();
  engine->shard_telemetry(&out.telemetry);
  return out;
}

// ------------------------------------------------------------ watched engine

/// One engine on `g`, stabilized from uniform-random init on construction,
/// that takes waves of corrupt_random(n/100) → re-stabilization → verified
/// MIS, with (or, for the overhead baseline, without) the observer stack
/// beepmis_soak always attaches: FlightRecorder with its level probe,
/// InvariantMonitor at cadence 64 and RecoveryTracker, teed in soak's attach
/// order. With a span log, engine construction and init form one
/// "core.engine_init" span, every round and every probe call gets its own.
class Watched {
 public:
  Watched(const graph::Graph& g, std::uint64_t seed, bool observed,
          SpanLog* log)
      : graph_(g),
        budget_(exp::default_round_budget(graph_.vertex_count())),
        flight_(128, anomaly_config(graph_), flight_context(graph_, seed)),
        tracker_(obs::RecoveryConfig{budget_ * 4}),
        monitor_(obs::InvariantConfig{64}),
        fault_rng_(support::Rng(seed).derive_stream(3)),
        observed_(observed) {
    {
      Scope span(log, "core.engine_init");
      core::EngineConfig config;
      config.seed = seed;
      engine_ = core::make_engine(graph_, config);
      if (observed_) attach(log);
      support::Rng init_rng = support::Rng(seed).derive_stream(2);
      core::apply_init(*engine_, core::InitPolicy::UniformRandom, init_rng);
      if (log != nullptr) engine_->is_stabilized();
    }
    init_rounds_ = stabilize(*engine_, budget_ * 4, log, "core.round1");
    stabilized_ = engine_->is_stabilized() &&
                  mis::is_mis(graph_, engine_->mis_members());
  }
  Watched(const Watched&) = delete;
  Watched& operator=(const Watched&) = delete;

  bool stabilized() const noexcept { return stabilized_; }
  std::uint64_t init_rounds() const noexcept { return init_rounds_; }

  struct Wave {
    std::uint64_t rounds = 0;
    std::uint64_t mis = 0;
    bool ok = false;
    double wall_s = 0.0;  ///< raw wall time, steal not yet taken out
  };

  Wave wave(SpanLog* log) {
    Wave out;
    const double t0 = now_s();
    {
      Scope span(log, "core.corrupt");
      core::corrupt_random(*engine_, graph_.vertex_count() / 100, fault_rng_,
                           observed_ ? &tracker_ : nullptr);
    }
    out.rounds = stabilize(*engine_, budget_, log, "core.round");
    {
      Scope span(log, "mis.verify");
      const std::vector<bool> members = engine_->mis_members();
      out.ok = engine_->is_stabilized() && mis::is_mis(graph_, members);
      out.mis = mis::member_count(members);
    }
    out.wall_s = now_s() - t0;
    return out;
  }

  /// Closes the tracker and reports any stall, safety violation, invariant
  /// violation or flight-recorder anomaly the observers saw.
  std::string observer_verdict() {
    if (!observed_) return "";
    tracker_.finalize(engine_->round());
    const obs::RecoverySummary s = tracker_.summary();
    if (s.stalls + s.safety_violations + s.invariant_violations != 0 ||
        !monitor_.violations().empty() || !flight_.anomalies().empty())
      return "observers flagged the recovery run";
    return "";
  }

 private:
  void attach(SpanLog* log) {
    const core::Engine* eng = engine_.get();
    flight_.set_snapshot_every(std::max<std::uint64_t>(1, budget_ * 4 / 8));
    flight_.set_level_probe(timed<std::vector<std::int32_t>>(log, [eng]() {
      std::vector<std::int32_t> levels(eng->graph().vertex_count());
      for (std::size_t v = 0; v < levels.size(); ++v) levels[v] = eng->level(v);
      return levels;
    }));
    tracker_.set_probe(timed<obs::InvariantProbeResult>(
        log, core::make_invariant_probe(*engine_)));
    monitor_.set_probe(timed<obs::InvariantProbeResult>(
        log, core::make_invariant_probe(*engine_)));
    monitor_.set_flight_recorder(&flight_);
    monitor_.set_recovery_tracker(&tracker_);
    tee_.add(&flight_);
    tee_.add(&monitor_);
    tee_.add(&tracker_);
    engine_->set_observer(&tee_);
  }
  static obs::AnomalyConfig anomaly_config(const graph::Graph& g) {
    obs::AnomalyConfig a;
    a.n = static_cast<std::uint32_t>(g.vertex_count());
    a.expected_rounds = exp::default_round_budget(g.vertex_count()) * 4;
    return a;
  }
  static obs::FlightContext flight_context(const graph::Graph& g,
                                           std::uint64_t seed) {
    obs::FlightContext ctx;
    ctx.tool = "perfbench";
    ctx.seed = seed;
    ctx.graph_name = g.name();
    ctx.family = "er-avg8";
    ctx.n = g.vertex_count();
    ctx.m = g.edge_count();
    ctx.max_degree = g.max_degree();
    ctx.algorithm = exp::variant_name(exp::Variant::GlobalDelta);
    ctx.init_policy = core::init_policy_name(core::InitPolicy::UniformRandom);
    return ctx;
  }
  template <typename R, typename F>
  static std::function<R()> timed(SpanLog* log, F probe) {
    if (log == nullptr) return probe;
    return [log, probe = std::move(probe)]() {
      Scope span(log, "obs.probe");
      return probe();
    };
  }

  const graph::Graph& graph_;
  std::uint64_t budget_;
  obs::FlightRecorder flight_;
  obs::RecoveryTracker tracker_;
  obs::InvariantMonitor monitor_;
  obs::TeeObserver tee_;
  std::unique_ptr<core::Engine> engine_;
  support::Rng fault_rng_;
  bool observed_;
  bool stabilized_ = false;
  std::uint64_t init_rounds_ = 0;
};

/// Runs `count` waves on `w` as one batch, returning the per-wave times
/// (ms: wall time × the batch's steal-free factor) and adding each wave's
/// (rounds, |MIS|) to `digest` if there is one. With a span log each wave is
/// a "wave" span.
std::vector<double> waves(Watched& w, std::size_t count, Result& res,
                          Digest* digest, SpanLog* log) {
  const StealFreeWall clock;
  std::vector<double> ms;
  for (std::size_t i = 0; i < count; ++i) {
    Scope span(log, "wave");
    const Watched::Wave r = w.wave(log);
    ++res.attempted;
    if (!r.ok) res.fail("wave " + std::to_string(i) + " not an MIS");
    if (digest != nullptr) digest->add(r.rounds, r.mis);
    ms.push_back(1e3 * r.wall_s);
  }
  const double factor = clock.factor();
  for (double& x : ms) x *= factor;
  return ms;
}

void check_watched(Watched& w, Result& res) {
  ++res.attempted;
  if (!w.stabilized()) res.fail("initial stabilization failed");
  const std::string verdict = w.observer_verdict();
  if (!verdict.empty()) res.fail(verdict);
}

// -------------------------------------------------------------- layer probes
//
// Every traced pass reports every per-layer metric. A workload's own traced
// items give the graph, core round and mis metrics; the probes below measure
// the fault path, the observer slot, the sharded kernel and the replica pool
// on the workload's main graph where its own path does not reach them.

/// Result of a fault pass: the top-level span holding the traced instance,
/// its untraced twin's time on run_s() and CPU utilisation, and the rounds
/// the traced instance took to stabilize from init.
struct FaultPass {
  std::size_t root = 0;
  double untraced_s = 0.0;
  double cpu_util = 0.0;
  std::uint64_t init_rounds = 0;
};

/// The fault path and the observer slot on `g`: `count` waves from three
/// identical set-ups — watched untraced (its digest into `digest`), bare
/// untraced, and watched under the top-level span `root_name`, set-up
/// included. The three must agree. Adds core.corrupt_ms,
/// core.recovery_rounds, obs.observer_overhead (watched ÷ bare median wave)
/// and obs.probe_ms (probe time per wave).
FaultPass add_fault_layers(const graph::Graph& g, std::uint64_t seed,
                           std::size_t count, const char* root_name,
                           Result& res, SpanLog& log, Digest& digest) {
  FaultPass pass;
  const double cpu0 = cpu_s();
  const double wall0 = now_s();
  const double t0 = run_s();
  std::vector<double> watched_ms;
  {
    Watched watched(g, seed, true, nullptr);
    watched_ms = waves(watched, count, res, &digest, nullptr);
    pass.untraced_s = run_s() - t0;
    pass.cpu_util = (cpu_s() - cpu0) / (now_s() - wall0);
    check_watched(watched, res);
  }
  std::vector<double> bare_ms;
  {
    Watched bare(g, seed, false, nullptr);
    Digest bare_digest;
    bare_ms = waves(bare, count, res, &bare_digest, nullptr);
    check_watched(bare, res);
    res.expect_digest(bare_digest, digest, "bare fault pass");
  }
  pass.root = log.size();
  log.open(root_name);
  Watched traced(g, seed, true, &log);
  const std::size_t waves_from = log.size();
  Digest traced_digest;
  waves(traced, count, res, &traced_digest, &log);
  log.close();
  check_watched(traced, res);
  res.expect_digest(traced_digest, digest, "traced fault pass");
  pass.init_rounds = traced.init_rounds();

  const std::size_t to = log.subtree_end(pass.root);
  res.add("core.corrupt_ms",
          median(log.durations_ms("core.corrupt", waves_from, to)), "ms");
  res.add("core.recovery_rounds", digest.rounds_per_item(), "count");
  res.add("obs.observer_overhead", median(watched_ms) / median(bare_ms),
          "ratio");
  res.add("obs.probe_ms",
          sum(log.durations_ms("obs.probe", waves_from, to)) /
              static_cast<double>(count),
          "ms");
  return pass;
}

/// The sharded kernel on `g`: one fresh replica three ways — frontier (Auto,
/// one thread), sharded at one shard (the frontier walk by design) and
/// sharded at one shard per hardware thread with phase telemetry — all in
/// steal-free wall time, all required to agree. Adds core.phase.*_ms,
/// core.shard.barrier_wait_share, core.shard.imbalance (nproc shards),
/// core.sharded1_over_frontier and core.shard.speedup (1 ÷ nproc shards).
void add_shard_layers(const graph::Graph& g, std::uint64_t seed,
                      Result& res) {
  const ReplicaOut f = solve(g, seed, core::KernelKind::Auto, 1, nullptr);
  const ReplicaOut s1 = solve(g, seed, core::KernelKind::Sharded, 1, nullptr);
  const ReplicaOut sw = solve(g, seed, core::KernelKind::Sharded,
                              hardware_threads(), nullptr);
  res.attempted += 3;
  for (const ReplicaOut* r : {&f, &s1, &sw}) {
    if (!r->ok) res.fail("shard probe replica not an MIS");
    if (r->rounds != f.rounds || r->mis != f.mis)
      res.fail("sharded replay differs from the frontier replica");
  }
  const core::ShardTelemetry& tel = sw.telemetry;
  for (std::size_t p = 0; p < core::kShardPhaseCount; ++p)
    res.add(std::string("core.phase.") + core::kShardPhaseKeys[p] + "_ms",
            tel.phase_ms[p], "ms");
  res.add("core.shard.barrier_wait_share",
          tel.barrier_wait_ms / (tel.barrier_wait_ms + tel.busy_ms), "ratio");
  res.add("core.shard.imbalance", tel.imbalance(), "ratio");
  res.add("core.sharded1_over_frontier", s1.seconds / f.seconds, "ratio");
  res.add("core.shard.speedup", s1.seconds / sw.seconds, "ratio");
}

/// Runs `config` over `families` through exp::run_scaling_sweep; adds one
/// digest item per (family, n) point — Σ rounds over its replicas
/// (run_scaling_sweep does not expose |MIS|; it verifies each replica and
/// reports invalid ones, which count as failed). Returns the replica count.
std::size_t sweep_batch(std::span<const exp::Family> families,
                        const exp::SweepConfig& config, Result& res,
                        Digest* digest) {
  std::size_t replicas = 0;
  for (exp::Family f : families) {
    for (const exp::SweepPoint& pt : exp::run_scaling_sweep(f, config)) {
      replicas += pt.rounds.count();
      res.attempted += pt.rounds.count();
      for (std::size_t k = 0; k < pt.failures + pt.invalid; ++k)
        res.fail("sweep replica " + exp::family_name(f) + " n=" +
                 std::to_string(pt.n) + " did not verify");
      if (digest != nullptr)
        digest->add(static_cast<std::uint64_t>(pt.rounds.sum()), 0);
    }
  }
  return replicas;
}

/// Result of a pool pass: the serial run's time on run_s() and the CPU
/// utilisation of the two-thread run.
struct PoolPass {
  double serial_s = 0.0;
  double cpu_util = 0.0;
};

/// The replica pool (exp with support::TaskPool): `config` over `families`
/// on kSweepThreads threads (its digest into `digest`), then serially — one
/// thread runs inline on this one, so run_s() times it. Adds
/// exp.parallel_efficiency = serial time ÷ (threads × steal-free two-thread
/// wall time).
PoolPass add_pool_layer(std::span<const exp::Family> families,
                        exp::SweepConfig config, Result& res,
                        Digest& digest) {
  PoolPass pass;
  const double cpu0 = cpu_s();
  const double wall0 = now_s();
  const StealFreeWall clock;
  config.threads = kSweepThreads;
  sweep_batch(families, config, res, &digest);
  const double parallel_s = clock.seconds();
  pass.cpu_util = (cpu_s() - cpu0) / (now_s() - wall0);
  Digest serial;
  config.threads = 1;
  const double t0 = run_s();
  sweep_batch(families, config, res, &serial);
  pass.serial_s = run_s() - t0;
  res.expect_digest(serial, digest, "serial pool pass");
  res.add("exp.parallel_efficiency",
          pass.serial_s / (static_cast<double>(kSweepThreads) * parallel_s),
          "ratio");
  return pass;
}

/// The pool probe of giant and recovery: two er-avg8 replicas at their n.
void add_pool_probe(std::size_t n, std::uint64_t seed, Result& res) {
  const exp::Family family[] = {exp::Family::ErdosRenyiAvg8};
  exp::SweepConfig config;
  config.sizes = {n};
  config.seeds = kSweepThreads;
  config.base_seed = seed;
  Digest digest;
  add_pool_layer(family, config, res, digest);
}

/// The core round layer over the traced spans [from, to): engine init, the
/// first round after init (the chaos round), every later round, and
/// `vertex_rounds` (Σ n × rounds over the traced items) per second of them.
void add_round_layers(Result& res, const SpanLog& log, std::size_t from,
                      std::size_t to, double vertex_rounds) {
  res.add("core.engine_init_ms",
          median(log.durations_ms("core.engine_init", from, to)), "ms");
  const std::vector<double> round1 = log.durations_ms("core.round1", from, to);
  const std::vector<double> rounds = log.durations_ms("core.round", from, to);
  res.add("core.round1_ms", median(round1), "ms");
  res.add("core.round_ms.p50", median(rounds), "ms");
  res.add_percentile("core.round_ms.p90", rounds, 0.9, "ms");
  res.add("core.vertex_rounds_per_s",
          vertex_rounds / (1e-3 * (sum(round1) + sum(rounds))), "1/s");
  res.add("mis.verify_ms", median(log.durations_ms("mis.verify", from, to)),
          "ms");
}

/// Context of the traced pass rooted at top-level span `root`:
/// trace.overhead against the same work untraced, process.cpu_util of the
/// untraced pass, and process.unattributed_share, the pass's time that no
/// layer span covers (self time of the root and of the `grouping` spans that
/// hold one replica or wave). Prints Σ self time per span name on stderr and
/// writes the spans file.
void add_trace_context(const Options& opt, Result& res, const SpanLog& log,
                       std::size_t root, const char* grouping,
                       double untraced_s, double cpu_util) {
  const SpanLog::Span& pass = log.spans()[root];
  const double traced_s = pass.end - pass.start;
  res.add("trace.overhead", traced_s / untraced_s, "ratio");
  res.add("process.cpu_util", cpu_util, "ratio");
  double unattributed = 0.0;
  std::fprintf(stderr, "%s traced pass, self time (s):\n",
               opt.workload.c_str());
  for (const auto& [name, self] :
       log.self_by_name(root, log.subtree_end(root))) {
    std::fprintf(stderr, "  %-18s %.6f\n", name.c_str(), self);
    if (name == pass.name || name == grouping) unattributed += self;
  }
  res.add("process.unattributed_share", unattributed / traced_s, "ratio");
  if (!opt.spans_out.empty() && !log.write_json(opt.spans_out))
    res.errors.push_back("cannot write " + opt.spans_out);
}

/// graph.build_ms and graph.edges_per_s from repeated builds of one graph.
void add_build_layers(Result& res, const graph::Graph& g,
                      const std::vector<double>& build_s) {
  res.add("graph.build_ms", 1e3 * median(build_s), "ms");
  res.add("graph.edges_per_s",
          static_cast<double>(g.edge_count()) / median(build_s), "1/s");
}

// --------------------------------------------------------------------- giant

/// One er-avg8 instance, many serial replicas on it, each with its own
/// engine seed and uniform-random init, default Auto→frontier kernel.
struct Giant {
  std::size_t n;
  std::size_t prefix;  ///< replicas in the digest (and the trace pass)
};

void run_giant(const Options& opt, Result& res) {
  const Giant w = opt.smoke ? Giant{1u << 15, 3} : Giant{1000000, 3};
  std::vector<double> build_s;
  graph::Graph g;
  const auto build = [&]() {
    g = graph::Graph{};  // one instance at a time, as a user would hold
    g = build_er(w.n, opt.seed, build_s);
  };
  build();
  const auto replica_seed = [&](std::size_t i) {
    return mix(opt.seed, 0x91a7, i);
  };
  std::vector<double> replica_s;
  const auto frontier = [&](std::size_t i) {
    const ReplicaOut r = solve(g, replica_seed(i), core::KernelKind::Auto, 1,
                               nullptr);
    ++res.attempted;
    if (!r.ok) res.fail("giant replica " + std::to_string(i) + " not an MIS");
    if (i < w.prefix) res.digest.add(r.rounds, r.mis);
    replica_s.push_back(r.seconds);
  };
  if (!opt.trace) {
    // The other builds rebuild the same graph between replicas.
    closed_loop(opt.seconds, w.prefix, kSetups - 1, build, frontier);
    res.add("setup_s", median(build_s), "s");
    res.add("time_to_mis_s", median(replica_s), "s");
    return;
  }
  while (build_s.size() < kSetups) build();
  const double cpu0 = cpu_s();
  const double wall0 = now_s();
  const double t0 = run_s();
  for (std::size_t i = 0; i < w.prefix; ++i) frontier(i);
  const double untraced_s = run_s() - t0;
  const double cpu_util = (cpu_s() - cpu0) / (now_s() - wall0);

  SpanLog log;
  Digest traced;
  log.open("pass");
  for (std::size_t i = 0; i < w.prefix; ++i) {
    Scope span(&log, "replica");
    const ReplicaOut r =
        solve(g, replica_seed(i), core::KernelKind::Auto, 1, &log);
    ++res.attempted;
    if (!r.ok) res.fail("traced giant replica not an MIS");
    traced.add(r.rounds, r.mis);
  }
  log.close();
  res.expect_digest(traced, res.digest, "giant traced pass");

  add_build_layers(res, g, build_s);
  add_round_layers(res, log, 0, log.size(),
                   static_cast<double>(g.vertex_count()) *
                       static_cast<double>(traced.rounds));
  res.add("core.rounds_per_replica", res.digest.rounds_per_item(), "count");
  Digest faults;
  add_fault_layers(g, mix(opt.seed, 0xfa17, 0), kWaveBatch, "faults", res,
                   log, faults);
  add_shard_layers(g, replica_seed(0), res);
  add_pool_probe(w.n, mix(opt.seed, 0x9001, 0), res);
  add_trace_context(opt, res, log, 0, "replica", untraced_s, cpu_util);
}

// --------------------------------------------------------------------- sweep

/// The E1 scaling families over an n = 2^lo .. 2^hi ladder, through
/// exp::run_scaling_sweep with a fixed two-thread replica pool; the graph is
/// redrawn inside every replica. One cycle = every family once.
struct Sweep {
  unsigned lo, hi;
  std::size_t seeds;  ///< replicas per (family, n) in a timed cycle
};
const exp::Family kSweepFamilies[] = {
    exp::Family::ErdosRenyiAvg8,  exp::Family::Random4Regular,
    exp::Family::Torus,           exp::Family::BarabasiAlbert3,
    exp::Family::GeometricAvg8,   exp::Family::RandomTree};

exp::SweepConfig sweep_config(const Sweep& w, std::size_t seeds,
                              std::uint64_t base_seed) {
  exp::SweepConfig config;
  config.sizes = exp::pow2_sizes(w.lo, w.hi);
  config.seeds = seeds;
  config.base_seed = base_seed;
  config.threads = kSweepThreads;
  return config;
}

/// The graph the sweep draws for replica `s` of (family, n) in the cycle
/// with base seed `base` — run_variant's derivation.
graph::Graph sweep_graph(exp::Family f, std::size_t n, std::uint64_t base,
                         std::size_t s) {
  support::Rng rng =
      support::Rng(exp::sweep_seed(base, f, n, s)).derive_stream(0x6ea9);
  return exp::make_family(f, n, rng);
}

void run_sweep(const Options& opt, Result& res) {
  const Sweep w = opt.smoke ? Sweep{6, 9, 3} : Sweep{10, 16, 3};
  const auto cycle_seed = [&](std::size_t c) {
    return mix(opt.seed, 0xc7c1e, c);
  };
  if (!opt.trace) {
    // Set-up: pool start plus one warm-up replica per (family, n).
    std::vector<double> setup_s;
    const auto warm_up = [&]() {
      const StealFreeWall clock;
      sweep_batch(kSweepFamilies,
                  sweep_config(w, 1, mix(opt.seed, 0xa11, setup_s.size())),
                  res, nullptr);
      setup_s.push_back(clock.seconds());
    };
    warm_up();
    // A cycle's steal-free wall time per replica, so time_to_mis_s is the
    // pool's amortized time from a drawn graph to a verified MIS.
    std::vector<double> per_replica_s;
    closed_loop(opt.seconds, 1, kSetups - 1, warm_up, [&](std::size_t c) {
      const StealFreeWall clock;
      const std::size_t replicas =
          sweep_batch(kSweepFamilies, sweep_config(w, w.seeds, cycle_seed(c)),
                      res, c == 0 ? &res.digest : nullptr);
      per_replica_s.push_back(clock.seconds() /
                              static_cast<double>(replicas));
    });
    res.add("setup_s", median(setup_s), "s");
    res.add("time_to_mis_s", median(per_replica_s), "s");
    return;
  }
  // Cycle 0 on two threads (the digest) and serially, then a traced serial
  // replay that unrolls run_variant so each replica's graph build, init,
  // rounds and verify get their own span.
  const PoolPass pool = add_pool_layer(
      kSweepFamilies, sweep_config(w, w.seeds, cycle_seed(0)), res,
      res.digest);

  SpanLog log;
  Digest traced;
  double vertex_rounds = 0.0, edges = 0.0, replicas = 0.0;
  log.open("pass");
  for (exp::Family f : kSweepFamilies) {
    for (std::size_t n : exp::pow2_sizes(w.lo, w.hi)) {
      std::uint64_t point_rounds = 0;
      for (std::size_t s = 0; s < w.seeds; ++s) {
        Scope replica(&log, "exp.replica");
        graph::Graph g;
        {
          Scope span(&log, "graph.build");
          g = sweep_graph(f, n, cycle_seed(0), s);
        }
        const ReplicaOut r =
            solve(g, exp::sweep_seed(cycle_seed(0), f, n, s),
                  core::KernelKind::Auto, 1, &log);
        ++res.attempted;
        if (!r.ok) res.fail("traced sweep replica not an MIS");
        point_rounds += r.rounds;
        vertex_rounds += static_cast<double>(g.vertex_count()) *
                         static_cast<double>(r.rounds);
        edges += static_cast<double>(g.edge_count());
        ++replicas;
      }
      traced.add(point_rounds, 0);
    }
  }
  log.close();
  res.expect_digest(traced, res.digest, "sweep traced replay");

  const std::vector<double> build_ms =
      log.durations_ms("graph.build", 0, log.size());
  res.add("graph.build_ms", median(build_ms), "ms");
  res.add("graph.edges_per_s", edges / (1e-3 * sum(build_ms)), "1/s");
  add_round_layers(res, log, 0, log.size(), vertex_rounds);
  res.add("core.rounds_per_replica",
          static_cast<double>(traced.rounds) / static_cast<double>(replicas),
          "count");
  // Fault and shard probes on the cycle's largest er-avg8 graph.
  const std::size_t top = std::size_t{1} << w.hi;
  const graph::Graph g =
      sweep_graph(exp::Family::ErdosRenyiAvg8, top, cycle_seed(0), 0);
  Digest faults;
  add_fault_layers(g, mix(opt.seed, 0xfa17, 0), kWaveBatch, "faults", res,
                   log, faults);
  add_shard_layers(g, mix(opt.seed, 0x5a4d, 0), res);
  add_trace_context(opt, res, log, 0, "exp.replica", pool.serial_s,
                    pool.cpu_util);
}

// ------------------------------------------------------------------ recovery

/// One er-avg8 instance and one watched engine, stabilized in set-up, then
/// waves of corrupt_random(n/100) → re-stabilization → verified MIS.
struct Recovery {
  std::size_t n;
  std::size_t prefix;  ///< waves in the digest (and the trace pass);
                       ///< a whole number of batches
};

/// A recovery set-up: the graph and the watched engine on it.
struct Instance {
  Instance(std::size_t n, std::uint64_t seed, std::vector<double>& build_s)
      : graph(build_er(n, seed, build_s)), watched(graph, seed, true, nullptr) {}
  graph::Graph graph;
  Watched watched;
};

void run_recovery(const Options& opt, Result& res) {
  const Recovery w =
      opt.smoke ? Recovery{1u << 12, 120} : Recovery{1u << 17, 120};
  std::vector<double> build_s;
  if (!opt.trace) {
    std::vector<double> setup_s;
    const auto set_up = [&]() {
      const StealFreeWall clock;
      auto instance = std::make_unique<Instance>(w.n, opt.seed, build_s);
      setup_s.push_back(clock.seconds());
      ++res.attempted;
      if (!instance->watched.stabilized())
        res.fail("initial stabilization failed");
      return instance;
    };
    const std::unique_ptr<Instance> main = set_up();
    // The other set-ups build identical spares, timed and dropped, while
    // the first instance keeps taking waves.
    std::vector<double> ms;
    closed_loop(
        opt.seconds, w.prefix / kWaveBatch, kSetups - 1, set_up,
        [&](std::size_t b) {
          const std::vector<double> batch =
              waves(main->watched, kWaveBatch, res,
                    b * kWaveBatch < w.prefix ? &res.digest : nullptr,
                    nullptr);
          ms.insert(ms.end(), batch.begin(), batch.end());
        });
    const std::string verdict = main->watched.observer_verdict();
    if (!verdict.empty()) res.fail(verdict);
    res.add("setup_s", median(setup_s), "s");
    res.add("time_to_mis_s", 1e-3 * median(ms), "s");
    return;
  }
  graph::Graph g;
  while (build_s.size() < kSetups) {
    g = graph::Graph{};
    g = build_er(w.n, opt.seed, build_s);
  }
  // The digest prefix is the traced pass: the fault pass on the workload's
  // own graph and seed.
  SpanLog log;
  const FaultPass pass =
      add_fault_layers(g, opt.seed, w.prefix, "pass", res, log, res.digest);
  const std::size_t to = log.subtree_end(pass.root);
  add_build_layers(res, g, build_s);
  add_round_layers(res, log, pass.root, to,
                   static_cast<double>(g.vertex_count()) *
                       static_cast<double>(pass.init_rounds +
                                           res.digest.rounds));
  res.add("core.rounds_per_replica", static_cast<double>(pass.init_rounds),
          "count");
  add_shard_layers(g, mix(opt.seed, 0x5a4d, 0), res);
  add_pool_probe(w.n, mix(opt.seed, 0x9001, 0), res);
  add_trace_context(opt, res, log, pass.root, "wave", pass.untraced_s,
                    pass.cpu_util);
}

// ---------------------------------------------------------------------- main

void print_json(const Options& opt, const Result& res, double loadavg1,
                double steal_share) {
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"trace\":%d,\"smoke\":%s,\"digest\":\"%s\","
              "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"metrics\":{",
              opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0,
              opt.smoke ? "true" : "false", res.digest.str().c_str(),
              res.attempted, res.failed);
  for (std::size_t i = 0; i < res.metrics.size(); ++i)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i == 0 ? "" : ",", res.metrics[i].name.c_str(),
                res.metrics[i].value, res.metrics[i].unit);
  std::printf("},\"percentiles\":{");
  for (std::size_t i = 0; i < res.percentiles.size(); ++i)
    std::printf("%s\"%s\":{\"samples\":%zu,\"beyond\":%zu}", i == 0 ? "" : ",",
                res.percentiles[i].name.c_str(), res.percentiles[i].samples,
                res.percentiles[i].beyond);
  std::printf("},\"host\":{\"nproc\":%zu,\"loadavg1\":%.17g,"
              "\"steal_share\":%.17g},\"errors\":[",
              hardware_threads(), loadavg1, steal_share);
  for (std::size_t i = 0; i < res.errors.size(); ++i)
    std::printf("%s\"%s\"", i == 0 ? "" : ",", res.errors[i].c_str());
  std::printf("]}\n");
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt->smoke = true;
    } else if (a == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt->trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans-out" && has_value) {
      opt->spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return opt->workload == "giant" || opt->workload == "sweep" ||
         opt->workload == "recovery";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload giant|sweep|recovery "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--spans-out FILE]\n");
    return 2;
  }
  const double loadavg1 = read_loadavg1();
  const CpuTimes cpu0 = read_proc_stat();
  Result res;
  if (opt.workload == "giant") run_giant(opt, res);
  else if (opt.workload == "sweep") run_sweep(opt, res);
  else run_recovery(opt, res);
  const CpuTimes cpu1 = read_proc_stat();
  const double steal_share =
      cpu1.total > cpu0.total
          ? static_cast<double>(cpu1.steal - cpu0.steal) /
                static_cast<double>(cpu1.total - cpu0.total)
          : 0.0;
  if (!opt.trace) {
    res.add("peak_rss_mb",
            static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0),
            "MiB");
  } else {
    res.add("host.nproc", static_cast<double>(hardware_threads()), "count");
    res.add("host.loadavg1", loadavg1, "count");
    res.add("host.steal_share", steal_share, "ratio");
  }
  print_json(opt, res, loadavg1, steal_share);
  return res.failed == 0 && res.errors.empty() ? 0 : 1;
}
