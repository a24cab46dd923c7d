// Shared plumbing of the end-to-end benchmark: options, the in-memory
// span tracer, percentile helpers and the result record every workload
// fills in. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/wire.hpp"
#include "trace/load_gen.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Seed of the service workloads' floors (`trace::synthetic_floor`,
/// plus the WLAN index). Floors are fixed, the site; --seed drives the
/// events, so the per-op work does not change from seed to seed.
inline constexpr std::uint64_t kFloorSeed = 1000003;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Pooled shard workers of the in-process daemon. The default keeps
  /// the thread count (generator + loop + 2 workers) within 4 vCPUs.
  int workers = 2;
};

/// Requests in flight during pipelined phases.
inline constexpr int kWindow = 64;
/// Scratch directory for sockets, state dirs and span dumps, relative to
/// the working directory (the repository root) so socket paths stay
/// short.
inline const std::string kWorkDir = ".bench_build/work";

/// Spans recorded around calls into each layer, kept in memory and
/// written out when the run ends. Recording is off unless enabled, in
/// which case begin()/end() cost two clock reads and a vector push.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  // index + 1 of the parent span, 0 = root
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Name id that records nothing, for call sites that trace only
  /// some of their calls.
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

  bool enabled = false;

  std::uint32_t name_id(const std::string& name);
  /// Returns a handle for end(); 0 when tracing is off.
  std::uint32_t begin(std::uint32_t name, std::uint64_t op,
                      std::uint32_t parent = 0) {
    if (!enabled || name == kNoSpan) return 0;
    spans_.push_back(Span{name, parent, op, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t handle) {
    if (handle != 0) spans_[handle - 1].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (us) of every closed span named `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Mean self time (us) of spans named `name`: duration minus the part
  /// covered by their direct children.
  double mean_self_us(const std::string& name) const;
  /// Write every span as one CSV line: name,start_ns,end_ns,parent,op.
  void write_csv(const std::string& path) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span on the process tracer.
class ScopedSpan {
 public:
  ScopedSpan(std::uint32_t name, std::uint64_t op, std::uint32_t parent = 0)
      : handle_(tracer().begin(name, op, parent)) {}
  ~ScopedSpan() { tracer().end(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t handle() const { return handle_; }

 private:
  std::uint32_t handle_;
};

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Peak resident set size of this process since the last
/// reset_peak_rss() (VmHWM), MB. Workloads reset it once their inputs
/// are generated, so the figure is the program's set-up and timed phase
/// plus the inputs they hold, not the generator's transient buffers.
double peak_rss_mb();
void reset_peak_rss();

/// One run's outcome. Metrics are printed in insertion order; context
/// and deterministic values are printed as raw JSON values.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<std::pair<std::string, std::string>> deterministic;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void ctx(const std::string& key, double value);
  void ctx(const std::string& key, const std::string& value);
  void det(const std::string& key, double value);
  void det(const std::string& key, const std::string& value);
  /// Record a failed output check (printed to stderr at the end).
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  bool correct() const { return errors.empty() && failed == 0; }
  std::string json() const;
};

/// Share of a run's rounds each reported figure is taken over.
inline constexpr double kQuietShare = 0.25;

/// A timed phase split into short rounds. The host's other tenants only
/// ever slow a round down, and on the reference VM they do so in bursts
/// that cover anything from part of a round to most of a run. So each
/// figure is a selected-rounds statistic over the quieter kQuietShare of
/// the rounds: ops_per_s is the ops of the fastest rounds over their
/// seconds, and each latency percentile is taken over the pooled samples
/// of the rounds lowest in that percentile. A regression that slows more
/// than the noisier share of a run moves every figure. Medians over all
/// rounds are kept as context.
struct Rounds {
  struct Round {
    double ops = 0.0;
    double seconds = 0.0;
    std::vector<double> latency_us;
  };
  std::vector<Round> rounds;

  void add(double ops, double seconds, std::vector<double> latency_us) {
    rounds.push_back(Round{ops, seconds, std::move(latency_us)});
  }
  /// ops_per_s, latency_p50_us and latency_p90_us, plus context.
  void report(Report& r) const;
};

/// 64-bit FNV-1a, for plan fingerprints.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// setup_s: the median of a run's set-up repetitions.
void add_setup(Report& r, const std::vector<double>& setup_s);
/// Whether a set-up repetition follows timed round `round` of `rounds`,
/// so that `reps` repetitions (the first before the timed phase) are
/// spread over the whole run.
inline bool setup_rep_after(int round, int rounds, int reps) {
  const int gaps = std::max(1, rounds / std::max(1, reps - 1));
  return reps > 1 && (round + 1) % gaps == 0 &&
         (round + 1) / gaps < reps;
}
/// ok_frac: ops answered correctly / ops attempted.
void add_ok_frac(Report& r);
/// The trace.* metrics: the workload's root span (`root`) with the
/// client-side spans under it, and the tracing overhead from per-chunk
/// rates measured untraced and traced.
void add_trace_metrics(Report& r, const std::string& root,
                       const std::vector<double>& untraced,
                       const std::vector<double>& traced);

/// Runs six chunks of `ops` ops each, alternating untraced and traced
/// (`chunk(index)` runs one), then reports add_trace_metrics.
template <typename ChunkFn>
void trace_overhead(Report& r, const std::string& root, double ops,
                    ChunkFn chunk) {
  std::vector<double> rates[2];
  for (int c = 0; c < 6; ++c) {
    const bool traced = (c % 2) == 1;
    tracer().enabled = traced;
    const Clock::time_point t0 = Clock::now();
    chunk(c);
    rates[traced].push_back(ops / seconds_since(t0));
  }
  tracer().enabled = true;
  add_trace_metrics(r, root, rates[0], rates[1]);
}

/// statfs type name of `path` (ext4, tmpfs, overlay, ...).
std::string fs_type(const std::string& path);
/// Median pwrite + fdatasync latency of a scratch file in `dir`, us.
double fdatasync_us(const std::string& dir, int iters = 32);
/// Recursively remove `path` (no error when missing).
void remove_tree(const std::string& path);

// ---- Churn inputs, shared by the churn workloads and the layer probes --

/// The fleet's first `num_wlans` floors (fixed, see kFloorSeed).
std::vector<std::string> churn_floors(int num_wlans);
/// The seeded fleet trace for `num_wlans` WLANs, exactly `need` events.
std::vector<acorn::trace::LoadEvent> churn_trace(std::uint64_t seed,
                                                 std::uint32_t num_wlans,
                                                 std::size_t need);
acorn::service::Message to_message(const acorn::trace::LoadEvent& e);

// ---- Driving an in-process daemon, shared by workloads and probes ------

/// A service::Daemon on a Unix socket in kWorkDir with one connected
/// Client; shutdown() stops both and removes the state dir.
struct Service {
  std::string sock;
  std::string state_dir;
  std::unique_ptr<acorn::service::Daemon> daemon;
  acorn::service::Client client;

  ~Service() { shutdown(); }
  void shutdown();
};

/// Starts a daemon (plans only on ForceReconfigure) named by `tag`, with
/// a fresh state dir when `durable`.
std::unique_ptr<Service> start_service(const Options& opts,
                                       const std::string& tag, bool durable);

/// Registers floors[w] as WLAN w + 1 (set-up, not timed ops).
void register_all(Service& s, const std::vector<std::string>& floors,
                  Report& r);

inline const acorn::service::Message& as_message(
    const acorn::service::Message& m) {
  return m;
}
inline acorn::service::Message as_message(const acorn::trace::LoadEvent& e) {
  return to_message(e);
}

/// Closed-loop pipelining of msgs[begin, end): keep up to kWindow
/// requests in flight; every reply that is not an OkReply counts as
/// failed.
template <typename Seq>
void pipeline(acorn::service::Client& client, const Seq& msgs,
              std::size_t begin, std::size_t end, Report& r) {
  std::size_t sent = begin;
  std::size_t recvd = begin;
  while (recvd < end) {
    while (sent < end && sent - recvd < static_cast<std::size_t>(kWindow)) {
      client.send(as_message(msgs[sent]));
      ++sent;
    }
    const acorn::service::Frame f = client.recv();
    ++r.attempted;
    if (!std::holds_alternative<acorn::service::OkReply>(f.msg)) ++r.failed;
    ++recvd;
  }
}

/// One request in flight, traced as a `root` span with the client's
/// send and receive under it. Returns the round trip in microseconds.
double round_trip(acorn::service::Client& client,
                  const acorn::service::Message& msg, std::uint32_t root,
                  std::uint64_t op, Report& r);

// ---- Workloads (one per run) and the traced run's layer probes --------

Report run_churn(const Options& opts, bool durable);
Report run_replan(const Options& opts);
Report run_phy_sweep(const Options& opts);
/// Every per-layer metric, measured by calling each layer's public
/// functions on seed-derived inputs shaped like the workloads.
void run_layer_probes(const Options& opts, Report& report);

}  // namespace perfbench
