// The flat-engine contract: sim::NetSnapshot must reproduce the legacy
// object-at-a-time evaluator (Wlan::evaluate_reference) bit-for-bit —
// every ApStats field of every cell, on randomized deployments covering
// all four combos of sinr_interference x weighted_contention, both
// transports, and degenerate associations (roamed / disconnected
// clients).
#include "sim/netkernel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/allocation.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace acorn::sim {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

// Random deployment: 1-5 APs with 0-3 clients each, random link
// qualities, random AP-AP and cross-cell losses (spanning isolated,
// contending and hidden-interferer regimes). Mirrors the oracle-cache
// equivalence test's generator.
ScenarioBuilder random_builder(util::Rng& rng, bool sinr, bool weighted) {
  ScenarioBuilder b;
  const int n_aps = static_cast<int>(rng.uniform_int(1, 5));
  for (int a = 0; a < n_aps; ++a) {
    CellSpec spec;
    const int n_clients = static_cast<int>(rng.uniform_int(0, 3));
    for (int c = 0; c < n_clients; ++c) {
      spec.client_losses_db.push_back(rng.uniform(78.0, 112.0));
    }
    b.cells.push_back(spec);
  }
  b.ap_ap_loss_db = rng.uniform(80.0, 140.0);
  b.cross_loss_db = rng.uniform(95.0, 140.0);
  b.config.sinr_interference = sinr;
  b.config.weighted_contention = weighted;
  return b;
}

net::Association random_association(const ScenarioBuilder& b,
                                    util::Rng& rng) {
  net::Association assoc = b.intended_association();
  const int n_aps = static_cast<int>(b.cells.size());
  for (int& owner : assoc) {
    const double roll = rng.uniform();
    if (roll < 0.15) {
      owner = net::kUnassociated;
    } else if (roll < 0.35) {
      owner = static_cast<int>(rng.uniform_int(0, n_aps - 1));
    }
  }
  return assoc;
}

void expect_identical(const Evaluation& got, const Evaluation& expected) {
  EXPECT_EQ(got.total_goodput_bps, expected.total_goodput_bps);
  ASSERT_EQ(got.per_ap.size(), expected.per_ap.size());
  for (std::size_t a = 0; a < got.per_ap.size(); ++a) {
    const ApStats& g = got.per_ap[a];
    const ApStats& e = expected.per_ap[a];
    EXPECT_EQ(g.ap_id, e.ap_id);
    EXPECT_EQ(g.num_clients, e.num_clients);
    EXPECT_EQ(g.medium_share, e.medium_share);
    EXPECT_EQ(g.atd_s_per_bit, e.atd_s_per_bit);
    EXPECT_EQ(g.mac_throughput_bps, e.mac_throughput_bps);
    EXPECT_EQ(g.goodput_bps, e.goodput_bps);
    EXPECT_EQ(g.client_ids, e.client_ids);
    EXPECT_EQ(g.client_delay_s_per_bit, e.client_delay_s_per_bit);
    EXPECT_EQ(g.client_goodput_bps, e.client_goodput_bps);
  }
}

TEST(NetSnapshot, BitIdenticalToReferenceOnRandomTopologies) {
  util::Rng rng(0xF1A7);
  int scenarios = 0;
  for (int trial = 0; trial < 56; ++trial) {
    const bool sinr = (trial % 2) == 1;
    const bool weighted = (trial / 2 % 2) == 1;
    const ScenarioBuilder b = random_builder(rng, sinr, weighted);
    const Wlan wlan = b.build();
    const net::Association assoc = random_association(b, rng);
    const NetSnapshot snap(wlan, assoc);
    const core::ChannelAllocator alloc{net::ChannelPlan(6)};
    for (int rep = 0; rep < 5; ++rep) {
      const net::ChannelAssignment f =
          alloc.random_assignment(wlan.topology().num_aps(), rng);
      const mac::TrafficType traffic =
          (rep % 2) == 0 ? mac::TrafficType::kUdp : mac::TrafficType::kTcp;
      const Evaluation expected =
          wlan.evaluate_reference(assoc, f, traffic);
      SCOPED_TRACE("trial " + std::to_string(trial) + " rep " +
                   std::to_string(rep) + " sinr=" + std::to_string(sinr) +
                   " weighted=" + std::to_string(weighted));
      expect_identical(snap.evaluate(f, traffic), expected);
      // And the public entry point, which delegates to a fresh snapshot.
      expect_identical(wlan.evaluate(assoc, f, traffic), expected);
      // And the per-cell entry point the width fallback runs on the
      // RateTable route, at the reference's shares.
      const std::vector<std::vector<int>> clients = wlan.clients_by_ap(assoc);
      Evaluation cells;
      for (const ApStats& e : expected.per_ap) {
        cells.per_ap.push_back(wlan.evaluate_cell_in(
            e.ap_id, clients[static_cast<std::size_t>(e.ap_id)],
            e.medium_share, snap.graph(), f, traffic));
        cells.total_goodput_bps += cells.per_ap.back().goodput_bps;
      }
      expect_identical(cells, expected);
    }
    ++scenarios;
  }
  EXPECT_GE(scenarios, 50);
}

TEST(NetSnapshot, CellClientsMatchClientsOf) {
  util::Rng rng(0xCE11);
  const ScenarioBuilder b = random_builder(rng, false, false);
  const Wlan wlan = b.build();
  const net::Association assoc = random_association(b, rng);
  const NetSnapshot snap(wlan, assoc);
  for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
    const std::vector<int> expected = wlan.clients_of(assoc, ap);
    const std::span<const int> got = snap.cell_clients(ap);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]);
    }
  }
}

TEST(NetSnapshot, SharesMatchInterferenceHelpers) {
  util::Rng rng(0x54A2);
  for (int trial = 0; trial < 10; ++trial) {
    const ScenarioBuilder b = random_builder(rng, false, false);
    const Wlan wlan = b.build();
    const net::Association assoc = b.intended_association();
    const NetSnapshot snap(wlan, assoc);
    const core::ChannelAllocator alloc{net::ChannelPlan(6)};
    const net::ChannelAssignment f =
        alloc.random_assignment(wlan.topology().num_aps(), rng);
    std::vector<double> activity;
    snap.unweighted_shares(f, activity);
    ASSERT_EQ(activity.size(),
              static_cast<std::size_t>(wlan.topology().num_aps()));
    for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
      EXPECT_EQ(activity[static_cast<std::size_t>(ap)],
                net::medium_access_share(snap.graph(), f, ap));
      EXPECT_EQ(snap.weighted_share(f, ap),
                net::medium_access_share_weighted(snap.graph(), f, ap));
    }
  }
}

TEST(NetSnapshot, RejectsMalformedInputsLikeTheReference) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  EXPECT_THROW(NetSnapshot(wlan, net::Association{0}),
               std::invalid_argument);
  const NetSnapshot snap(wlan, b.intended_association());
  EXPECT_THROW(snap.evaluate({net::Channel::basic(0)}),
               std::invalid_argument);
  EXPECT_THROW(
      wlan.evaluate(net::Association{0}, {net::Channel::basic(0)}),
      std::invalid_argument);
}

// The consolidated rate helper behind client_delay_s_per_bit must still
// agree with deriving the delay from client_rate by hand.
TEST(Wlan, ClientDelayConsistentWithClientRate) {
  const ScenarioBuilder b = testutil::topology1_builder();
  const Wlan wlan = b.build();
  for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
    for (int c = 0; c < wlan.topology().num_clients(); ++c) {
      for (const phy::ChannelWidth width :
           {phy::ChannelWidth::k20MHz, phy::ChannelWidth::k40MHz}) {
        const phy::RateDecision rate = wlan.client_rate(ap, c, width);
        const phy::McsEntry& entry = phy::mcs(rate.mcs_index);
        const double expected = mac::per_bit_delay_s(
            wlan.config().timing, entry.rate_bps(width, wlan.config().gi),
            wlan.config().payload_bytes * 8, rate.per);
        EXPECT_EQ(wlan.client_delay_s_per_bit(ap, c, width), expected);
      }
    }
  }
}

}  // namespace
}  // namespace acorn::sim
