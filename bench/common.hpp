// Shared helpers for the experiment benches: banner printing, the canned
// deployments of the paper's evaluation section, a tiny command-line
// parser (--threads N, --smoke) and the machine-readable row writer that
// appends JSON lines to the tracked BENCH_*.json files (ACORN_BENCH_JSON
// overrides the file, ACORN_BENCH_LABEL the row label) so the perf
// trajectory of every layer is tracked across PRs.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "sim/scenario.hpp"
#include "util/table.hpp"

namespace acorn::bench {

inline constexpr std::uint64_t kDefaultSeed = 0xAC0121;

/// Options shared by the baseband benches. `--threads N` sets the packet
/// driver's thread count (0 = hardware concurrency); `--smoke` shrinks
/// packet counts so the bench doubles as a CTest perf_smoke target.
struct BenchOptions {
  int threads = 1;
  bool smoke = false;
};

namespace detail {
/// Row label when neither the caller nor ACORN_BENCH_LABEL names one:
/// "smoke" once parse_options() has seen --smoke, so smoke-sized rows
/// can never land in a tracked file labelled "current".
inline const char*& default_label() {
  static const char* label = "current";
  return label;
}
}  // namespace detail

inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
      detail::default_label() = "smoke";
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      opts.threads = std::atoi(argv[++i]);
    }
  }
  return opts;
}

/// Monotonic stopwatch for the throughput records.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Hardware context stamped into every emitted JSON row, so records
/// taken on a 1-core box are distinguishable from multi-core runs
/// without hand-maintained row relabelling (the old `*_determinism_1core`
/// convention).
struct HwContext {
  int hw_threads = 0;
  std::string cpu;  // "model name" from /proc/cpuinfo; empty if unreadable
};

inline const HwContext& hw_context() {
  static const HwContext ctx = [] {
    HwContext c;
    c.hw_threads = static_cast<int>(std::thread::hardware_concurrency());
    std::FILE* f = std::fopen("/proc/cpuinfo", "r");
    if (f != nullptr) {
      char line[256];
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "model name", 10) != 0) continue;
        const char* colon = std::strchr(line, ':');
        if (colon != nullptr) {
          std::string name = colon + 1;
          // Trim edges and drop anything that would break the JSON
          // string (quotes, backslashes, control bytes).
          std::string clean;
          for (const char ch : name) {
            if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20) {
              continue;
            }
            clean += ch;
          }
          const std::size_t b = clean.find_first_not_of(' ');
          const std::size_t e = clean.find_last_not_of(' ');
          if (b != std::string::npos) c.cpu = clean.substr(b, e - b + 1);
        }
        break;
      }
      std::fclose(f);
    }
    return c;
  }();
  return ctx;
}

/// The hardware fields every emitter appends, leading comma included.
inline const std::string& hw_json_fields() {
  static const std::string fields = [] {
    const HwContext& c = hw_context();
    char buf[320];
    std::snprintf(buf, sizeof(buf), ",\"hw_threads\":%d,\"cpu\":\"%s\"",
                  c.hw_threads, c.cpu.c_str());
    return std::string(buf);
  }();
  return fields;
}

namespace detail {

/// The one JSON row writer behind every emitter: appends
/// {"bench","case","label"<fields><hw_json_fields>} as one line to
/// ACORN_BENCH_JSON, or to `default_file` when that is unset.
/// `label_override == nullptr` falls back to ACORN_BENCH_LABEL, then to
/// default_label(). `fields` must be empty or start with ','.
inline void append_row(const char* default_file, const std::string& bench,
                       const std::string& case_name,
                       const char* label_override,
                       const std::string& fields) {
  const char* path = std::getenv("ACORN_BENCH_JSON");
  const char* label = label_override != nullptr
                          ? label_override
                          : std::getenv("ACORN_BENCH_LABEL");
  std::FILE* f = std::fopen(path != nullptr ? path : default_file, "a");
  if (f == nullptr) return;
  std::fprintf(f, "{\"bench\":\"%s\",\"case\":\"%s\",\"label\":\"%s\"%s%s}\n",
               bench.c_str(), case_name.c_str(),
               label != nullptr ? label : default_label(), fields.c_str(),
               hw_json_fields().c_str());
  std::fclose(f);
}

/// printf into a std::string (the per-family row fields).
[[gnu::format(printf, 1, 2)]] inline std::string format(const char* fmt,
                                                        ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

inline double per_sec(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

}  // namespace detail

/// Baseband rows (BENCH_baseband.json): `samples` counts complex
/// baseband samples pushed through the chain, so msamples_per_sec
/// tracks the sample-level work independent of packet size.
inline void emit_throughput(const std::string& bench,
                            const std::string& case_name, double seconds,
                            std::int64_t packets, std::int64_t samples,
                            int threads) {
  detail::append_row(
      "BENCH_baseband.json", bench, case_name, nullptr,
      detail::format(
          ",\"threads\":%d,\"packets\":%lld,\"seconds\":%.6f,"
          "\"packets_per_sec\":%.1f,\"msamples_per_sec\":%.3f",
          threads, static_cast<long long>(packets), seconds,
          detail::per_sec(static_cast<double>(packets), seconds),
          detail::per_sec(static_cast<double>(samples), seconds) / 1e6));
}

/// Network-layer rows (BENCH_network.json): `evals` counts full-network
/// Wlan evaluations pushed through the engine. The label is usually
/// passed explicitly ("seed" for the reference evaluator rows, "after"
/// for the flat engine) because one bench run times both.
inline void emit_evals(const std::string& bench,
                       const std::string& case_name, double seconds,
                       std::int64_t evals, int threads,
                       const char* label_override = nullptr) {
  detail::append_row(
      "BENCH_network.json", bench, case_name, label_override,
      detail::format(",\"threads\":%d,\"evals\":%lld,\"seconds\":%.6f,"
                     "\"evals_per_sec\":%.1f",
                     threads, static_cast<long long>(evals), seconds,
                     detail::per_sec(static_cast<double>(evals), seconds)));
}

/// acornd protocol rows (BENCH_service.json): `events` counts request
/// frames fully round-tripped (sent, dispatched, replied). `extra_json`
/// attaches bench-specific fields (fleet size, worker count, epoch
/// percentiles); it must be empty or start with ','.
inline void emit_events(const std::string& bench,
                        const std::string& case_name, double seconds,
                        std::int64_t events,
                        const char* label_override = nullptr,
                        const std::string& extra_json = std::string()) {
  detail::append_row(
      "BENCH_service.json", bench, case_name, label_override,
      detail::format(",\"events\":%lld,\"seconds\":%.6f,"
                     "\"events_per_sec\":%.1f",
                     static_cast<long long>(events), seconds,
                     detail::per_sec(static_cast<double>(events), seconds)) +
          extra_json);
}

inline void banner(const std::string& experiment,
                   const std::string& paper_claim,
                   std::uint64_t seed = kDefaultSeed) {
  std::printf("\n==================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("seed: %llu\n", static_cast<unsigned long long>(seed));
  std::printf("==================================================\n");
}

inline std::string mbps(double bps, int precision = 2) {
  return util::TextTable::num(bps / 1e6, precision);
}

/// The paper's Topology 1: AP0 serves poor clients, AP1 good ones,
/// cells isolated from each other.
inline sim::ScenarioBuilder topology1() {
  sim::ScenarioBuilder b;
  b.cells = {
      sim::CellSpec{{sim::kPoorLinkLoss, sim::kPoorLinkLoss + 0.2}},
      sim::CellSpec{{sim::kGoodLinkLoss, sim::kGoodLinkLoss + 2.0}}};
  return b;
}

/// The paper's Topology 2: five APs mixing good, marginal and poor cells.
inline sim::ScenarioBuilder topology2() {
  sim::ScenarioBuilder b;
  b.cells = {
      sim::CellSpec{{sim::kGoodLinkLoss, sim::kGoodLinkLoss + 2.0}},
      sim::CellSpec{{sim::kGoodLinkLoss + 1.0}},
      sim::CellSpec{{sim::kGoodLinkLoss + 3.0}},
      sim::CellSpec{{sim::kPoorLinkLoss, sim::kPoorLinkLoss + 0.2}},
      sim::CellSpec{{sim::kWeakLinkLoss}},
  };
  return b;
}

/// The Fig. 11 dense deployment: three mutually contending APs, one good
/// client and two poor ones.
inline sim::ScenarioBuilder dense3() {
  sim::ScenarioBuilder b;
  b.cells = {sim::CellSpec{{sim::kGoodLinkLoss}},
             sim::CellSpec{{sim::kPoorLinkLoss}},
             sim::CellSpec{{sim::kPoorLinkLoss + 0.5}}};
  b.ap_ap_loss_db = 85.0;
  return b;
}

}  // namespace acorn::bench
