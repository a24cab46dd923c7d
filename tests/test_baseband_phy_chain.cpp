#include "baseband/phy_chain.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "phy/link.hpp"

namespace acorn::baseband {
namespace {

PhyChainConfig clean_config(int mcs) {
  PhyChainConfig cfg;
  cfg.mcs_index = mcs;
  cfg.tx_dbm = 15.0;
  cfg.path_loss_db = 70.0;  // enormous SNR
  cfg.rayleigh = false;
  cfg.num_taps = 1;
  cfg.packet_bytes = 200;
  return cfg;
}

TEST(PhyChain, RejectsMultiStreamMcs) {
  util::Rng rng(1);
  PhyChainConfig cfg = clean_config(8);
  EXPECT_THROW(run_phy_chain(cfg, 1, rng), std::invalid_argument);
}

TEST(PhyChain, RejectsBadCounts) {
  util::Rng rng(1);
  PhyChainConfig cfg = clean_config(0);
  EXPECT_THROW(run_phy_chain(cfg, 0, rng), std::invalid_argument);
  cfg.packet_bytes = 0;
  EXPECT_THROW(run_phy_chain(cfg, 1, rng), std::invalid_argument);
}

TEST(PhyChain, LosslessAtHighSnrForEveryMcs) {
  for (int mcs = 0; mcs <= 7; ++mcs) {
    util::Rng rng(2);
    const PhyChainResult r = run_phy_chain(clean_config(mcs), 5, rng);
    EXPECT_EQ(r.bit_errors, 0) << "MCS " << mcs;
    EXPECT_EQ(r.packet_errors, 0) << "MCS " << mcs;
  }
}

TEST(PhyChain, BothWidthsWork) {
  for (const auto width :
       {phy::ChannelWidth::k20MHz, phy::ChannelWidth::k40MHz}) {
    util::Rng rng(3);
    PhyChainConfig cfg = clean_config(4);
    cfg.width = width;
    const PhyChainResult r = run_phy_chain(cfg, 3, rng);
    EXPECT_EQ(r.packet_errors, 0) << to_string(width);
  }
}

TEST(PhyChain, DeterministicPerSeed) {
  PhyChainConfig cfg = clean_config(2);
  cfg.path_loss_db = 97.0;
  cfg.rayleigh = true;
  util::Rng r1(4);
  util::Rng r2(4);
  const PhyChainResult a = run_phy_chain(cfg, 10, r1);
  const PhyChainResult b = run_phy_chain(cfg, 10, r2);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
}

TEST(PhyChain, FailsAtAbysmalSnr) {
  util::Rng rng(5);
  PhyChainConfig cfg = clean_config(7);
  cfg.path_loss_db = 115.0;
  const PhyChainResult r = run_phy_chain(cfg, 5, rng);
  EXPECT_EQ(r.packet_errors, r.packets_sent);
}

TEST(PhyChain, FortyMhzFailsBeforeTwentyAtFixedTx) {
  // The paper's central micro-effect, measured end to end through the
  // *coded* chain: same Tx, the bonded channel loses packets first.
  PhyChainConfig cfg;
  cfg.mcs_index = 2;
  cfg.tx_dbm = 0.0;
  cfg.path_loss_db = 93.0;
  cfg.rayleigh = false;
  cfg.num_taps = 1;
  cfg.packet_bytes = 400;
  util::Rng r1(6);
  const PhyChainResult on20 = run_phy_chain(cfg, 15, r1);
  cfg.width = phy::ChannelWidth::k40MHz;
  util::Rng r2(6);
  const PhyChainResult on40 = run_phy_chain(cfg, 15, r2);
  EXPECT_LT(on20.per(), on40.per());
  EXPECT_NEAR(on20.mean_snr_db - on40.mean_snr_db, 3.17, 0.4);
}

TEST(PhyChain, MeasuredWaterfallTracksAnalyticModel) {
  // Calibration: the SNR at which the measured PER crosses 0.5 should be
  // within ~2 dB of where the analytic link model (no fading margin, no
  // MIMO adjustment) predicts it for the same MCS.
  phy::LinkConfig lc;
  lc.shadow_db = 0.0;
  lc.stbc_gain_db = 0.0;
  lc.noise_figure_db = 0.0;
  const phy::LinkModel model(lc);
  for (int mcs : {0, 2, 4}) {
    // Analytic 50% point.
    double predicted = -10.0;
    for (double snr = -5.0; snr <= 35.0; snr += 0.1) {
      if (model.per(phy::mcs(mcs), snr) < 0.5) {
        predicted = snr;
        break;
      }
    }
    // Measured 50% point via path-loss sweep (static channel).
    double measured = -100.0;
    for (double pl = 110.0; pl >= 80.0; pl -= 1.0) {
      PhyChainConfig cfg;
      cfg.mcs_index = mcs;
      cfg.tx_dbm = 0.0;
      cfg.path_loss_db = pl;
      cfg.rayleigh = false;
      cfg.num_taps = 1;
      cfg.packet_bytes = 200;
      util::Rng rng(7);
      const PhyChainResult r = run_phy_chain(cfg, 8, rng);
      if (r.per() < 0.5) {
        measured = r.mean_snr_db;
        break;
      }
    }
    EXPECT_NEAR(measured, predicted, 2.5) << "MCS " << mcs;
  }
}

TEST(PhyChain, SoftDecisionBeatsHardAtMarginalSnr) {
  PhyChainConfig cfg;
  cfg.mcs_index = 2;
  cfg.tx_dbm = 0.0;
  cfg.path_loss_db = 95.5;
  cfg.rayleigh = false;
  cfg.num_taps = 1;
  cfg.packet_bytes = 300;
  util::Rng r1(9);
  const PhyChainResult hard = run_phy_chain(cfg, 15, r1);
  cfg.soft_decision = true;
  util::Rng r2(9);
  const PhyChainResult soft = run_phy_chain(cfg, 15, r2);
  EXPECT_LT(soft.per(), hard.per());
}

TEST(PhyChain, SoftDecisionLosslessAtHighSnr) {
  PhyChainConfig cfg = clean_config(6);
  cfg.soft_decision = true;
  util::Rng rng(10);
  const PhyChainResult r = run_phy_chain(cfg, 4, rng);
  EXPECT_EQ(r.packet_errors, 0);
}

TEST(PhyChain, RoundTripFunctionMatchesRunLoop) {
  PhyChainConfig cfg = clean_config(1);
  util::Rng rng(8);
  FadingChannel channel(
      ChannelConfig{phy::width_hz(cfg.width), cfg.noise_psd_dbm_per_hz,
                    cfg.noise_figure_db, cfg.path_loss_db, cfg.num_taps,
                    2.0, cfg.rayleigh},
      rng);
  std::vector<std::uint8_t> bits(800);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u64() & 1u);
  const auto decoded = phy_chain_roundtrip(cfg, bits, channel, rng);
  EXPECT_EQ(decoded, bits);
}

// The per-thread workspace is reshaped between shapes: a packet decodes
// the same after a call of another MCS, width, length or decision mode
// (larger and smaller buffers, a different zero pad) as it did before.
TEST(PhyChain, RoundTripIndependentOfPreviousShape) {
  const auto run = [](const PhyChainConfig& cfg, std::uint64_t seed) {
    util::Rng rng(seed);
    FadingChannel channel(
        ChannelConfig{phy::width_hz(cfg.width), cfg.noise_psd_dbm_per_hz,
                      cfg.noise_figure_db, cfg.path_loss_db, cfg.num_taps,
                      2.0, cfg.rayleigh},
        rng);
    std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(cfg.packet_bytes) * 8);
    rng.fill_bits(bits);
    return phy_chain_roundtrip(cfg, bits, channel, rng);
  };
  PhyChainConfig noisy = clean_config(4);
  noisy.path_loss_db = 96.0;  // some bit errors: decoding depends on noise
  noisy.rayleigh = true;
  noisy.num_taps = 3;
  PhyChainConfig other = clean_config(0);
  other.width = phy::ChannelWidth::k40MHz;
  other.packet_bytes = 700;
  PhyChainConfig small = clean_config(7);
  small.packet_bytes = 40;

  PhyChainConfig soft = noisy;
  soft.soft_decision = true;

  const auto first = run(noisy, 21);
  (void)run(other, 22);
  EXPECT_EQ(run(noisy, 21), first);
  (void)run(small, 23);
  EXPECT_EQ(run(noisy, 21), first);
  const auto first_soft = run(soft, 21);
  EXPECT_EQ(run(noisy, 21), first);
  (void)run(other, 22);
  EXPECT_EQ(run(soft, 21), first_soft);
}

}  // namespace
}  // namespace acorn::baseband
