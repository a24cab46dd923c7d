// The phy_sweep workload: the coded 802.11n baseband chain
// (baseband::phy_chain_roundtrip) over MCS 0-7 x {20, 40} MHz with 1500 B
// packets, one packet at a time on one thread. No service or core code
// runs here.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "baseband/channel.hpp"
#include "baseband/fft.hpp"
#include "baseband/phy_chain.hpp"
#include "bench.hpp"
#include "phy/mcs.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace acorn;

namespace {

constexpr int kMcsCount = 8;
constexpr int kConfigs = 2 * kMcsCount;
constexpr int kPacketBytes = 1500;
/// Large-scale loss of the swept link: ~23 dB mean SNR at 20 MHz and
/// ~20 dB at 40 MHz, so PER climbs from ~0 at MCS 0 to most packets
/// lost at MCS 7 under Rayleigh fading.
constexpr double kPathLossDb = 88.0;
constexpr double kPacketsPerS = 460.0;  // nominal, sizes the fixed count
constexpr int kWarmupPerConfig = 3;
constexpr int kSetupReps = 15;
/// Sweeps per round: 112 packets, ~0.25 s.
constexpr std::uint64_t kSweepsPerRound = 7;

baseband::PhyChainConfig chain_config(int c, double path_loss_db,
                                      bool rayleigh) {
  baseband::PhyChainConfig cfg;
  cfg.mcs_index = c % kMcsCount;
  cfg.width = c < kMcsCount ? phy::ChannelWidth::k20MHz
                            : phy::ChannelWidth::k40MHz;
  cfg.packet_bytes = kPacketBytes;
  cfg.path_loss_db = path_loss_db;
  cfg.rayleigh = rayleigh;
  cfg.num_threads = 1;
  return cfg;
}

baseband::ChannelConfig channel_config(const baseband::PhyChainConfig& cfg) {
  baseband::ChannelConfig ch;
  ch.sample_rate_hz = phy::width_hz(cfg.width);
  ch.noise_psd_dbm_per_hz = cfg.noise_psd_dbm_per_hz;
  ch.noise_figure_db = cfg.noise_figure_db;
  ch.path_loss_db = cfg.path_loss_db;
  ch.num_taps = cfg.num_taps;
  ch.rayleigh = cfg.rayleigh;
  return ch;
}

/// One sweep position: its chain config and a fading channel that is
/// redrawn per packet.
struct Lane {
  baseband::PhyChainConfig cfg;
  baseband::FadingChannel channel;
};

std::vector<Lane> make_lanes(double path_loss_db, bool rayleigh) {
  std::vector<Lane> lanes;
  util::Rng rng(0);
  for (int c = 0; c < kConfigs; ++c) {
    const baseband::PhyChainConfig cfg =
        chain_config(c, path_loss_db, rayleigh);
    lanes.push_back(Lane{cfg, baseband::FadingChannel(channel_config(cfg),
                                                      rng)});
  }
  return lanes;
}

struct PacketOutcome {
  std::int64_t bit_errors = 0;
  double us = 0.0;
};

/// Packet `index` of the sweep: config index % 16, payload bits and
/// fading drawn from the packet's own derived stream.
PacketOutcome run_packet(std::vector<Lane>& lanes, std::uint64_t seed,
                         std::uint64_t index, std::vector<std::uint8_t>& bits,
                         std::uint32_t span_name) {
  Lane& lane = lanes[index % kConfigs];
  util::Rng rng = util::Rng::derive_stream(seed, index);
  rng.fill_bits(bits);
  lane.channel.redraw(rng);
  const ScopedSpan span(span_name, index);
  const Clock::time_point t0 = Clock::now();
  const std::vector<std::uint8_t> decoded =
      baseband::phy_chain_roundtrip(lane.cfg, bits, lane.channel, rng);
  PacketOutcome out;
  out.us = us_between(t0, Clock::now());
  if (decoded.size() != bits.size()) {
    out.bit_errors = -1;
    return out;
  }
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out.bit_errors += decoded[i] != bits[i];
  }
  return out;
}

}  // namespace

Report run_phy_sweep(const Options& opts) {
  Report r;
  // Every round is a whole number of sweeps (one packet per config).
  const std::uint64_t per_round = kConfigs * kSweepsPerRound;
  const auto n_rounds = static_cast<std::uint64_t>(std::max(
      4.0, std::round(opts.seconds * kPacketsPerS / per_round)));
  const std::uint64_t n_packets = per_round * n_rounds;
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(kPacketBytes) * 8);
  std::vector<Lane> lanes = make_lanes(kPathLossDb, true);
  reset_peak_rss();

  // Set-up: FFT plans (first rep) and warm-up packets through every
  // config. The first repetition runs before the timed phase, the others
  // between rounds so that they sample the whole run; the median is
  // reported.
  static const std::uint32_t kSetup = tracer().name_id("setup");
  std::vector<double> setup_s;
  const auto set_up = [&]() {
    const ScopedSpan span(kSetup, setup_s.size());
    const Clock::time_point t0 = Clock::now();
    (void)baseband::fft_plan(64);
    (void)baseband::fft_plan(128);
    for (std::uint64_t p = 0; p < kWarmupPerConfig * kConfigs; ++p) {
      // Warm-up packets draw from another seed's streams.
      (void)run_packet(lanes, opts.seed ^ 0x3a3a3a3aull, p, bits,
                       Tracer::kNoSpan);
    }
    setup_s.push_back(seconds_since(t0));
  };
  set_up();

  static const std::uint32_t kRoot = tracer().name_id("baseband.packet");
  std::vector<std::int64_t> bit_errors(kConfigs, 0);
  std::vector<std::int64_t> packet_errors(kConfigs, 0);
  // Every 257th packet (cycling through the configs), re-decoded below.
  std::vector<std::int64_t> sampled_errors;
  Rounds rounds;
  const Clock::time_point t_run = Clock::now();
  for (std::uint64_t p0 = 0; p0 < n_packets; p0 += per_round) {
    std::vector<double> lat_us;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t p = p0; p < p0 + per_round; ++p) {
      const PacketOutcome o = run_packet(lanes, opts.seed, p, bits, kRoot);
      ++r.attempted;
      lat_us.push_back(o.us);
      if (p % (kConfigs * 16 + 1) == 0) sampled_errors.push_back(o.bit_errors);
      if (o.bit_errors < 0) {
        ++r.failed;
        continue;
      }
      bit_errors[p % kConfigs] += o.bit_errors;
      packet_errors[p % kConfigs] += o.bit_errors > 0;
    }
    rounds.add(static_cast<double>(per_round), seconds_since(t0),
               std::move(lat_us));
    if (setup_rep_after(static_cast<int>(p0 / per_round),
                        static_cast<int>(n_rounds), kSetupReps)) {
      set_up();
    }
  }
  const double run_s = seconds_since(t_run) -
                      std::accumulate(setup_s.begin() + 1, setup_s.end(), 0.0);
  std::fprintf(stderr, "perfbench: phy_sweep %llu packets in %.2f s\n",
               static_cast<unsigned long long>(n_packets), run_s);

  // Checks. (1) Re-decoding a sample of packets gives the same errors.
  std::size_t k = 0;
  for (std::uint64_t p = 0; p < n_packets; p += kConfigs * 16 + 1, ++k) {
    ++r.attempted;
    const PacketOutcome o =
        run_packet(lanes, opts.seed, p, bits, Tracer::kNoSpan);
    if (o.bit_errors != sampled_errors[k]) {
      ++r.failed;
      r.check(false, "packet " + std::to_string(p) +
                         " decoded differently on a second run");
    }
  }
  // (2) Every config decodes error-free over a near-noiseless flat link.
  std::vector<Lane> clean = make_lanes(0.0, false);
  for (std::uint64_t c = 0; c < kConfigs; ++c) {
    ++r.attempted;
    const PacketOutcome o =
        run_packet(clean, opts.seed ^ 0xc1ea4ull, c, bits, Tracer::kNoSpan);
    if (o.bit_errors != 0) {
      ++r.failed;
      r.check(false, "config " + std::to_string(c) +
                         " has bit errors on a noiseless link");
    }
  }
  // (3) The most robust config loses few packets at this SNR.
  const double per_mcs0 =
      static_cast<double>(packet_errors[0]) /
      static_cast<double>(n_packets / kConfigs);
  r.check(per_mcs0 < 0.2, "MCS 0 / 20 MHz PER " + std::to_string(per_mcs0) +
                              " is implausibly high");

  double goodput_mbps = 0.0;
  std::int64_t total_bit_errors = 0;
  std::int64_t total_packet_errors = 0;
  std::string per_config;
  for (int c = 0; c < kConfigs; ++c) {
    const double per = static_cast<double>(packet_errors[c]) /
                       static_cast<double>(n_packets / kConfigs);
    const baseband::PhyChainConfig cfg = chain_config(c, kPathLossDb, true);
    goodput_mbps += (1.0 - per) *
                    phy::mcs(cfg.mcs_index)
                        .rate_bps(cfg.width, phy::GuardInterval::kLong800ns) /
                    1e6;
    total_bit_errors += bit_errors[c];
    total_packet_errors += packet_errors[c];
    per_config += (c ? " " : "") + std::to_string(packet_errors[c]);
  }
  r.det("goodput_mbps", goodput_mbps);
  r.det("bit_errors", static_cast<double>(total_bit_errors));
  r.det("packet_errors", static_cast<double>(total_packet_errors));
  r.det("packet_errors_per_config", per_config);

  if (opts.trace) {
    const std::uint64_t chunk =
        std::max<std::uint64_t>(kConfigs, n_packets / 12);
    trace_overhead(r, "baseband.packet", static_cast<double>(chunk),
                   [&](int c) {
                     const std::uint64_t from = n_packets + c * chunk;
                     for (std::uint64_t i = from; i < from + chunk; ++i) {
                       (void)run_packet(lanes, opts.seed, i, bits, kRoot);
                     }
                   });
  } else {
    add_setup(r, setup_s);
    rounds.report(r);
    add_ok_frac(r);
    r.metric("goodput_mbps", goodput_mbps, "Mbps");
  }
  r.ctx("packets", static_cast<double>(n_packets));
  r.ctx("packet_bytes", kPacketBytes);
  r.ctx("path_loss_db", kPathLossDb);
  r.ctx("threads", 1);
  return r;
}

}  // namespace perfbench
