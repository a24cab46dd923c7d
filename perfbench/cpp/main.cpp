// perfbench: one workload run of the ACORN end-to-end benchmark.
//
//   perfbench --workload fleet_churn|durable_churn|replan|phy_sweep
//             --seed N --seconds S --trace 0|1
//             [--workers M]
//
// Prints progress to stderr and, as the last stdout line, one JSON
// object: correct / attempted / failed / metrics plus the run's context
// and its deterministic outputs. perfbench/run.py builds this binary and
// reduces that line to the benchmark's result format.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint32_t Tracer::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && names_[s.name] == name) {
      out.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::mean_self_us(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0 || names_[s.name] != name) continue;
    total += 1e-3 * static_cast<double>(s.end_ns - s.start_ns -
                                        child_ns[i + 1]);
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

void Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "name,start_ns,end_ns,parent,op\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%u,%llu\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fclose(f);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

void reset_peak_rss() {
  // "5" resets the kernel's peak-RSS mark (Linux >= 4.0).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long kb = 0;
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::ctx(const std::string& key, double value) {
  context.push_back({key, json_number(value)});
}
void Report::ctx(const std::string& key, const std::string& value) {
  context.push_back({key, json_string(value)});
}
void Report::det(const std::string& key, double value) {
  deterministic.push_back({key, json_number(value)});
}
void Report::det(const std::string& key, const std::string& value) {
  deterministic.push_back({key, json_string(value)});
}

std::string Report::json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << json_string(metrics[i].first)
      << ": {\"value\": " << json_number(metrics[i].second.first)
      << ", \"unit\": " << json_string(metrics[i].second.second) << "}";
  }
  o << "}";
  const auto object = [&o](const char* key, const auto& kv) {
    o << ", \"" << key << "\": {";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      o << (i ? ", " : "") << json_string(kv[i].first) << ": "
        << kv[i].second;
    }
    o << "}";
  };
  object("context", context);
  object("deterministic", deterministic);
  o << ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    o << (i ? ", " : "") << json_string(errors[i]);
  }
  o << "]}";
  return o.str();
}

void Rounds::report(Report& r) const {
  // The quieter share of the rounds: ranked by throughput, or by the
  // percentile being reported.
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(kQuietShare * static_cast<double>(rounds.size()))));
  std::vector<std::size_t> order(rounds.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> rates, p50s, p90s, all;
  for (const Round& round : rounds) {
    rates.push_back(round.ops / round.seconds);
    p50s.push_back(percentile(round.latency_us, 0.50));
    p90s.push_back(percentile(round.latency_us, 0.90));
    all.insert(all.end(), round.latency_us.begin(), round.latency_us.end());
  }

  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rates[a] > rates[b]; });
  double ops = 0.0;
  double seconds = 0.0;
  for (std::size_t k = 0; k < keep; ++k) {
    ops += rounds[order[k]].ops;
    seconds += rounds[order[k]].seconds;
  }

  const auto quieter = [&](const std::vector<double>& key, double p) {
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
    std::vector<double> pooled;
    for (std::size_t k = 0; k < keep; ++k) {
      const Round& round = rounds[order[k]];
      pooled.insert(pooled.end(), round.latency_us.begin(),
                    round.latency_us.end());
    }
    return std::make_pair(percentile(pooled, p), pooled.size());
  };
  const auto [p50, n50] = quieter(p50s, 0.50);
  const auto [p90, n90] = quieter(p90s, 0.90);

  r.metric("ops_per_s", ops / seconds, "1/s");
  r.metric("latency_p50_us", p50, "us");
  r.metric("latency_p90_us", p90, "us");

  const double n = static_cast<double>(n90);
  const double total = static_cast<double>(all.size());
  r.ctx("rounds", static_cast<double>(rounds.size()));
  r.ctx("rounds_kept", static_cast<double>(keep));
  r.ctx("latency_p50_samples", static_cast<double>(n50));
  r.ctx("latency_p90_samples", n);
  r.ctx("latency_beyond_p90", n - std::ceil(0.90 * n));
  double all_ops = 0.0;
  double all_seconds = 0.0;
  for (const Round& round : rounds) {
    all_ops += round.ops;
    all_seconds += round.seconds;
  }
  r.ctx("all_rounds_ops_per_s", all_ops / all_seconds);
  r.ctx("round_median_ops_per_s", median(rates));
  r.ctx("round_median_p50_us", median(p50s));
  r.ctx("all_rounds_p50_us_diag", percentile(all, 0.50));
  r.ctx("all_rounds_p90_us_diag", percentile(all, 0.90));
  r.ctx("all_rounds_p99_us_diag", percentile(all, 0.99));
  r.ctx("all_rounds_beyond_p99_diag", total - std::ceil(0.99 * total));
}

void add_setup(Report& r, const std::vector<double>& setup_s) {
  r.metric("setup_s", median(setup_s), "s");
  r.ctx("setup_reps", static_cast<double>(setup_s.size()));
  r.ctx("setup_min_s", *std::min_element(setup_s.begin(), setup_s.end()));
  r.ctx("setup_max_s", *std::max_element(setup_s.begin(), setup_s.end()));
}

void add_ok_frac(Report& r) {
  r.metric("ok_frac",
           static_cast<double>(r.attempted - r.failed) /
               static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
           "frac");
}

void add_trace_metrics(Report& r, const std::string& root,
                       const std::vector<double>& untraced,
                       const std::vector<double>& traced) {
  const std::vector<double> d = tracer().durations_us(root);
  const double n = static_cast<double>(d.size());
  r.metric("trace.root_p50_us", percentile(d, 0.5), "us");
  r.metric("trace.root_p99_us", percentile(d, 0.99), "us");
  r.metric("trace.root_p99_count", n - std::ceil(0.99 * n), "count");
  r.metric("trace.root_self_us", tracer().mean_self_us(root), "us");
  r.metric("trace.client_send_us",
           tracer().mean_self_us("service.client.send"), "us");
  r.metric("trace.client_recv_us",
           tracer().mean_self_us("service.client.recv"), "us");
  const double u = median(untraced);
  const double t = median(traced);
  r.metric("trace.untraced_ops_per_s", u, "1/s");
  r.metric("trace.traced_ops_per_s", t, "1/s");
  r.metric("trace.overhead_pct", t > 0.0 ? 100.0 * (u / t - 1.0) : 0.0, "%");
  r.metric("trace.spans", static_cast<double>(tracer().spans().size()),
           "count");
}

std::string Fnv::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

double fdatasync_us(const std::string& dir, int iters) {
  const std::string path = dir + "/fdatasync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return -1.0;
  char block[512];
  std::memset(block, 'x', sizeof(block));
  std::vector<double> us;
  for (int i = 0; i <= iters; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (::pwrite(fd, block, sizeof(block), 0) < 0 || ::fdatasync(fd) != 0) {
      ::close(fd);
      ::unlink(path.c_str());
      return -1.0;
    }
    if (i > 0) us.push_back(us_between(t0, Clock::now()));  // 0 warms up
  }
  ::close(fd);
  ::unlink(path.c_str());
  return median(std::move(us));
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet_churn|durable_churn|replan|phy_sweep --seed N "
               "--seconds S --trace 0|1 [--workers M]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--workers") {
      o.workers = std::stoi(v);
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 120.0) usage("bad --seconds");
  if (o.workers < 1) usage("bad --workers");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(kWorkDir, ec);
  tracer().enabled = opts.trace;

  Report report;
  try {
    if (opts.workload == "fleet_churn") {
      report = run_churn(opts, false);
    } else if (opts.workload == "durable_churn") {
      report = run_churn(opts, true);
    } else if (opts.workload == "replan") {
      report = run_replan(opts);
    } else if (opts.workload == "phy_sweep") {
      report = run_phy_sweep(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
    if (opts.trace) run_layer_probes(opts, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!opts.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  report.ctx("workload", opts.workload);
  report.ctx("seed", static_cast<double>(opts.seed));
  report.ctx("seconds", opts.seconds);
  report.ctx("trace", opts.trace ? 1.0 : 0.0);
  report.ctx("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  if (opts.trace) {
    const std::string path = kWorkDir + "/spans-" + opts.workload +
                             "-s" + std::to_string(opts.seed) + ".csv";
    tracer().write_csv(path);
    report.ctx("spans_file", path);
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return 0;
}
