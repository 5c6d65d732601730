#include "src/obs/progress.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/obs/json.hpp"

namespace beepmis::obs {
namespace {

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

}  // namespace

ProgressWriter::ProgressWriter(std::string path, std::size_t keep)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  if (!to_stderr()) ring_.resize(std::max<std::size_t>(keep, 1));
}

void ProgressWriter::beat(const ProgressSample& sample) {
  if (!ok()) return;
  if (to_stderr()) {
    ++beats_;
    std::ostringstream line;
    progress_write_text(line, sample);
    std::fprintf(stderr, "%s\n", line.str().c_str());
    return;
  }
  ring_[head_] = sample;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++beats_;

  const std::size_t cap = ring_.size();
  const bool wrapped = beats_ > cap;
  const std::size_t have = wrapped ? cap : static_cast<std::size_t>(beats_);
  const std::size_t first = wrapped ? head_ : 0;
  {
    std::ofstream out(tmp_path_, std::ios::trunc);
    if (!out) {
      error_ = "cannot open " + tmp_path_;
      return;
    }
    for (std::size_t i = 0; i < have; ++i) {
      progress_write_line(out, ring_[(first + i) % cap]);
      out << '\n';
    }
    out.flush();
    if (!out) {
      error_ = "write failed: " + tmp_path_;
      return;
    }
  }
  // Atomic replace: rename(2) within a directory is atomic on POSIX, so a
  // concurrent reader sees either the previous snapshot or this one.
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0)
    error_ = "rename failed: " + tmp_path_ + " -> " + path_;
}

void progress_write_line(std::ostream& os, const ProgressSample& s) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.progress.v1");
  w.field("round", s.round);
  w.field("budget", s.budget);
  w.field("active", s.active);
  w.field("mis", s.mis);
  w.key("timing").begin_object();
  w.field("rounds_per_sec", s.rounds_per_sec);
  w.field("eta_s", s.eta_s);
  w.field("imbalance", s.imbalance);
  w.field("peak_rss_bytes", s.peak_rss_bytes);
  w.field("trace_dropped", s.trace_dropped);
  w.end_object();
  w.end_object();
}

void progress_write_text(std::ostream& os, const ProgressSample& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[beepmis] round=%llu budget=%llu active=%llu mis=%llu "
                "rate=%.1f/s eta=%.1fs imbalance=%.2f rss=%.1fMiB "
                "trace-dropped=%llu",
                static_cast<unsigned long long>(s.round),
                static_cast<unsigned long long>(s.budget),
                static_cast<unsigned long long>(s.active),
                static_cast<unsigned long long>(s.mis), s.rounds_per_sec,
                s.eta_s, s.imbalance,
                static_cast<double>(s.peak_rss_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(s.trace_dropped));
  os << buf;
}

bool progress_validate_line(const JsonValue& line, std::string* error) {
  if (!line.is_object() ||
      line.get("schema").as_string() != "beepmis.progress.v1")
    return fail(error, "not a beepmis.progress.v1 line");
  for (const char* k : {"round", "budget", "active", "mis"})
    if (line.get(k).type != JsonValue::Type::Number)
      return fail(error, std::string("progress.v1: \"") + k +
                             "\" must be a number");
  const JsonValue& timing = line.get("timing");
  if (!timing.is_object())
    return fail(error, "progress.v1: \"timing\" must be an object");
  for (const char* k : {"rounds_per_sec", "eta_s", "imbalance",
                        "peak_rss_bytes", "trace_dropped"})
    if (timing.get(k).type != JsonValue::Type::Number)
      return fail(error, std::string("progress.v1: timing.\"") + k +
                             "\" must be a number");
  return true;
}

bool progress_write_canonical_line(const JsonValue& line, std::ostream& os,
                                   std::string* error) {
  if (!progress_validate_line(line, error)) return false;
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.progress.v1");
  for (const char* k : {"round", "budget", "active", "mis"})
    w.field(k, static_cast<std::uint64_t>(line.get(k).as_number()));
  w.end_object();
  return true;
}

}  // namespace beepmis::obs
