#include "core/association.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/width_switch.hpp"
#include "mac/airtime.hpp"
#include "phy/noise.hpp"
#include "phy/rate_table.hpp"
#include "sim/mgmt.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace acorn::core {
namespace {

using testutil::CellSpec;
using testutil::ScenarioBuilder;

// Two APs both audible to every client (cross_loss picks the visibility).
ScenarioBuilder open_builder(double cross_loss) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{testutil::kGoodLinkLoss}}};
  b.cross_loss_db = cross_loss;
  return b;
}

TEST(Association, NoApInRangeReturnsNullopt) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kIsolatedLoss}}};
  const sim::Wlan wlan = b.build();
  const UserAssociation ua;
  net::Association assoc = {net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::basic(0)};
  EXPECT_FALSE(ua.select_ap(wlan, assoc, ch, 0).has_value());
}

TEST(Association, SingleVisibleApIsChosen) {
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss}},
             CellSpec{{}}};
  const sim::Wlan wlan = b.build();
  const UserAssociation ua;
  net::Association assoc = {net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(1)};
  EXPECT_EQ(ua.select_ap(wlan, assoc, ch, 0), std::optional<int>(0));
}

TEST(Association, UtilitiesComputedForAllInRange) {
  ScenarioBuilder b = open_builder(82.0);
  const sim::Wlan wlan = b.build();
  const UserAssociation ua;
  net::Association assoc = {net::kUnassociated, net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(1)};
  const auto utils = ua.candidate_utilities(wlan, assoc, ch, 0);
  EXPECT_EQ(utils.size(), 2u);
  for (const CandidateUtility& u : utils) {
    EXPECT_GT(u.x_with, 0.0);
    EXPECT_GT(u.utility, 0.0);
  }
}

TEST(Association, JoinsEmptierOfTwoEqualAps) {
  // AP0 already serves a client; an identical new client should join AP1
  // (network throughput is higher with one client per AP).
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss, testutil::kGoodLinkLoss}},
             CellSpec{{}}};
  b.cross_loss_db = testutil::kGoodLinkLoss + 1.0;  // both APs audible
  const sim::Wlan wlan = b.build();
  const UserAssociation ua;
  net::Association assoc = {0, net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(2)};
  EXPECT_EQ(ua.select_ap(wlan, assoc, ch, 1), std::optional<int>(1));
}

TEST(Association, GroupsPoorClientWithPoorCell) {
  // The ACORN signature behaviour: a poor client joins the AP already
  // serving poor clients rather than wrecking the good cell, even when
  // the good AP's signal is somewhat stronger.
  net::Topology topo;
  topo.add_ap({0, 0});
  topo.add_ap({60, 0});
  topo.add_client({1, 1});    // good client of AP0
  topo.add_client({59, 1});   // poor client of AP1
  topo.add_client({30, 10});  // joining poor client
  util::Rng rng(3);
  net::PathLossModel plm;
  net::LinkBudget budget(topo, plm, rng);
  budget.set_ap_ap_loss_db(0, 1, testutil::kIsolatedLoss);
  budget.set_ap_client_loss_db(0, 0, testutil::kGoodLinkLoss);
  budget.set_ap_client_loss_db(1, 0, testutil::kIsolatedLoss);
  budget.set_ap_client_loss_db(1, 1, testutil::kPoorLinkLoss);
  budget.set_ap_client_loss_db(0, 1, testutil::kIsolatedLoss);
  // The joiner is poor to both APs (slightly stronger toward AP0).
  budget.set_ap_client_loss_db(0, 2, testutil::kPoorLinkLoss - 1.0);
  budget.set_ap_client_loss_db(1, 2, testutil::kPoorLinkLoss);
  const sim::Wlan wlan(topo, budget, sim::WlanConfig{});
  const UserAssociation ua;
  net::Association assoc = {0, 1, net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::bonded(0),
                                     net::Channel::basic(4)};
  EXPECT_EQ(ua.select_ap(wlan, assoc, ch, 2), std::optional<int>(1));
}

TEST(Association, UtilityMatchesEquationFour) {
  // Hand-check Eq. 4 on a tiny instance: one AP with one existing client
  // plus the joiner; a second AP out of the client's range.
  ScenarioBuilder b;
  b.cells = {CellSpec{{testutil::kGoodLinkLoss, testutil::kGoodLinkLoss}},
             CellSpec{{}}};
  const sim::Wlan wlan = b.build();
  const UserAssociation ua;
  net::Association assoc = {0, net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(1)};
  const auto utils = ua.candidate_utilities(wlan, assoc, ch, 1);
  ASSERT_EQ(utils.size(), 1u);
  // U = K_i * X_w with no other APs in range; K_i = 2.
  EXPECT_NEAR(utils[0].utility, 2.0 * utils[0].x_with, 1e-9);
}

TEST(Association, XWithoutExceedsXWith) {
  // Removing the joiner's delay raises the per-client throughput.
  ScenarioBuilder b = open_builder(90.0);
  const sim::Wlan wlan = b.build();
  const UserAssociation ua;
  net::Association assoc = {0, net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(1)};
  const auto utils = ua.candidate_utilities(wlan, assoc, ch, 1);
  for (const CandidateUtility& u : utils) {
    if (u.ap_id == 0) {
      // AP0 already serves client 0: removing the joiner's delay raises
      // the per-client throughput.
      EXPECT_GE(u.x_without, u.x_with);
    } else {
      // AP1 would be empty without the joiner; X_wo is the 0 sentinel.
      EXPECT_EQ(u.x_without, 0.0);
    }
  }
}

TEST(Association, RespectsRssThresholdConfig) {
  ScenarioBuilder b = open_builder(90.0);
  const sim::Wlan wlan = b.build();
  AssociationConfig cfg;
  cfg.min_rss_dbm = -70.0;  // strict: only the home AP (loss 80) is heard
  const UserAssociation ua(cfg);
  net::Association assoc = {net::kUnassociated, net::kUnassociated};
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(1)};
  const auto utils = ua.candidate_utilities(wlan, assoc, ch, 0);
  EXPECT_EQ(utils.size(), 1u);
}

// ---- Rate edges: the RateTable route against the best_rate spec ----------

// Noise figure that makes the per-subcarrier noise floor exactly 0 dBm,
// and per-width Tx powers whose per-subcarrier share is exactly 0 dBm: a
// link then has SNR == -loss bit for bit, so a test can place an SNR on
// any double it likes (here: RateTable segment starts).
double zero_noise_figure_db() {
  double nf = -phy::noise_per_subcarrier_dbm(0.0);
  for (int i = 0; i < 8 && phy::noise_per_subcarrier_dbm(nf) != 0.0; ++i) {
    nf -= phy::noise_per_subcarrier_dbm(nf);
  }
  return nf;
}

double zero_subcarrier_tx_dbm(phy::ChannelWidth width) {
  double tx = -phy::tx_per_subcarrier_dbm(0.0, width);
  for (int i = 0; i < 8 && phy::tx_per_subcarrier_dbm(tx, width) != 0.0;
       ++i) {
    tx -= phy::tx_per_subcarrier_dbm(tx, width);
  }
  return tx;
}

// Cell goodput derived by hand from Wlan::client_rate (the best_rate
// spec): the MAC anomaly model over the spec's rate and PER per client.
double spec_cell_bps(const sim::Wlan& wlan, int ap,
                     const std::vector<int>& clients, phy::ChannelWidth width,
                     double medium_share) {
  if (clients.empty()) return 0.0;
  const sim::WlanConfig& cfg = wlan.config();
  std::vector<mac::CellClient> cell;
  for (const int c : clients) {
    const phy::RateDecision rate = wlan.client_rate(ap, c, width);
    cell.push_back(mac::CellClient{
        c, phy::mcs(rate.mcs_index).rate_bps(width, cfg.gi), rate.per});
  }
  const mac::CellThroughput r = mac::anomaly_throughput(
      cfg.timing, cell, medium_share, cfg.payload_bytes * 8);
  double total = 0.0;
  for (const mac::CellClient& cl : cell) {
    total += mac::transport_goodput_bps(cfg.traffic, mac::TrafficType::kUdp,
                                        r.per_client_bps, cl.per);
  }
  return total;
}

double spec_delay(const sim::Wlan& wlan, int ap, int c,
                  phy::ChannelWidth width) {
  const sim::WlanConfig& cfg = wlan.config();
  const phy::RateDecision rate = wlan.client_rate(ap, c, width);
  return mac::per_bit_delay_s(cfg.timing,
                              phy::mcs(rate.mcs_index).rate_bps(width, cfg.gi),
                              cfg.payload_bytes * 8, rate.per);
}

// Eq. 4 over beacons built by hand from spec delays, in the operation
// order of UserAssociation::candidate_utilities.
std::vector<CandidateUtility> spec_utilities(
    const sim::Wlan& wlan, const net::Association& assoc,
    const net::ChannelAssignment& assignment, int u) {
  const std::vector<int> in_range =
      sim::aps_in_range(wlan, u, AssociationConfig{}.min_rss_dbm);
  const net::InterferenceGraph graph(wlan.topology(), wlan.budget(), assoc,
                                     wlan.config().interference);
  std::vector<double> share, atd, d_u;
  std::vector<int> k;
  for (const int ap : in_range) {
    std::vector<int> clients = wlan.clients_of(assoc, ap);
    if (std::find(clients.begin(), clients.end(), u) == clients.end()) {
      clients.push_back(u);
    }
    const phy::ChannelWidth width =
        assignment[static_cast<std::size_t>(ap)].width();
    double sum = 0.0;
    for (const int c : clients) sum += spec_delay(wlan, ap, c, width);
    share.push_back(net::medium_access_share(graph, assignment, ap));
    atd.push_back(sum);
    d_u.push_back(spec_delay(wlan, ap, u, width));
    k.push_back(static_cast<int>(clients.size()));
  }
  std::vector<CandidateUtility> out;
  for (std::size_t i = 0; i < in_range.size(); ++i) {
    CandidateUtility cu;
    cu.ap_id = in_range[i];
    cu.x_with = share[i] / atd[i];
    const double atd_without = atd[i] - d_u[i];
    cu.x_without = atd_without > 0.0 ? share[i] / atd_without : 0.0;
    cu.utility = k[i] * cu.x_with;
    for (std::size_t j = 0; j < in_range.size(); ++j) {
      if (j == i) continue;
      const double atd_wo = atd[j] - d_u[j];
      const double x_wo = atd_wo > 0.0 ? share[j] / atd_wo : 0.0;
      cu.utility += (k[j] - 1) * x_wo;
    }
    out.push_back(cu);
  }
  return out;
}

// Algorithm 1's join utilities and both width-fallback forms take their
// rates from phy::RateTable; they must equal the values derived by hand
// from the best_rate spec bit for bit — including SNRs placed exactly on
// every table segment start and one double below it, where a threshold
// scan that compares with the wrong strictness picks the neighbouring row.
TEST(Association, RateTableRouteMatchesBestRateSpecAtSegmentEdges) {
  constexpr int kAps = 3;
  constexpr int kClients = 6;
  const phy::ChannelWidth kWidths[] = {phy::ChannelWidth::k20MHz,
                                       phy::ChannelWidth::k40MHz};
  sim::WlanConfig config;
  config.link.noise_figure_db = zero_noise_figure_db();

  // Every segment start of each width's table, and the double below it.
  std::vector<double> edges[2];
  {
    net::Topology topo;
    topo.add_ap({0, 0});
    util::Rng rng(1);
    const sim::Wlan probe(topo, net::LinkBudget(topo, {}, rng), config);
    for (int w = 0; w < 2; ++w) {
      const auto table = phy::RateTable::shared(probe.link_model(),
                                                kWidths[w], config.gi);
      ASSERT_GT(table->segments().size(), 3u);
      for (std::size_t i = 1; i < table->segments().size(); ++i) {
        const double start = table->segments()[i].start_snr_db;
        edges[w].push_back(start);
        edges[w].push_back(
            std::nextafter(start, -std::numeric_limits<double>::infinity()));
      }
    }
  }

  util::Rng rng(0xED6E5);
  for (int trial = 0; trial < 60; ++trial) {
    net::Topology topo;
    int exact[kAps];  // the width whose SNRs this AP pins exactly
    for (int a = 0; a < kAps; ++a) {
      exact[a] = static_cast<int>(rng.uniform_int(0, 1));
      topo.add_ap({100.0 * a, 0.0}, zero_subcarrier_tx_dbm(kWidths[exact[a]]));
    }
    for (int c = 0; c < kClients; ++c) topo.add_client({1.0, 1.0 + c});
    util::Rng budget_rng(2);
    net::LinkBudget budget(topo, {}, budget_rng);
    std::vector<std::vector<double>> snr(kAps);
    for (int a = 0; a < kAps; ++a) {
      for (int b = a + 1; b < kAps; ++b) {
        budget.set_ap_ap_loss_db(a, b, rng.uniform() < 0.5 ? 60.0 : 140.0);
      }
      const std::vector<double>& pool = edges[exact[a]];
      for (int c = 0; c < kClients; ++c) {
        const double pick = rng.uniform();
        const double s =
            pick < 0.75 ? pool[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(pool.size()) - 1))]
            : pick < 0.9 ? rng.uniform(-5.0, 45.0)
                         : -140.0;  // out of association range
        budget.set_ap_client_loss_db(a, c, -s);
        snr[static_cast<std::size_t>(a)].push_back(s);
      }
    }
    const sim::Wlan wlan(topo, budget, config);
    for (int a = 0; a < kAps; ++a) {
      for (int c = 0; c < kClients; ++c) {
        ASSERT_EQ(wlan.client_snr_db(a, c, kWidths[exact[a]]),
                  snr[static_cast<std::size_t>(a)]
                     [static_cast<std::size_t>(c)]);
      }
    }

    // Each AP operates at its exact width for the join; half the APs
    // share channel 0 (or its bond) so M_i < 1 where they contend.
    net::ChannelAssignment assignment;
    for (int a = 0; a < kAps; ++a) {
      const int slot = rng.uniform() < 0.5 ? 0 : 1 + a;
      assignment.push_back(exact[a] == 1 ? net::Channel::bonded(slot)
                                         : net::Channel::basic(2 * slot));
    }
    net::Association assoc(kClients, net::kUnassociated);
    for (int c = 0; c < kClients; ++c) {
      if (rng.uniform() < 0.7) {
        assoc[static_cast<std::size_t>(c)] =
            static_cast<int>(rng.uniform_int(0, kAps - 1));
      }
    }
    const int u = static_cast<int>(rng.uniform_int(0, kClients - 1));
    assoc[static_cast<std::size_t>(u)] = net::kUnassociated;

    const std::vector<CandidateUtility> got =
        UserAssociation{}.candidate_utilities(wlan, assoc, assignment, u);
    const std::vector<CandidateUtility> want =
        spec_utilities(wlan, assoc, assignment, u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ap_id, want[i].ap_id);
      EXPECT_EQ(got[i].x_with, want[i].x_with) << "trial " << trial;
      EXPECT_EQ(got[i].x_without, want[i].x_without) << "trial " << trial;
      EXPECT_EQ(got[i].utility, want[i].utility) << "trial " << trial;
    }

    // Width fallback on each AP's bond (graph form) and width-only form.
    const net::InterferenceGraph graph(wlan.topology(), wlan.budget(), assoc,
                                       config.interference);
    for (int a = 0; a < kAps; ++a) {
      const std::vector<int> clients = wlan.clients_of(assoc, a);
      net::ChannelAssignment bonded = assignment;
      bonded[static_cast<std::size_t>(a)] = net::Channel::bonded(a);
      const double share = net::medium_access_share(graph, bonded, a);
      const double want40 = spec_cell_bps(
          wlan, a, clients, phy::ChannelWidth::k40MHz, share);
      const double want20 = spec_cell_bps(
          wlan, a, clients, phy::ChannelWidth::k20MHz, share);
      const WidthDecision d =
          decide_width(wlan, a, clients, graph, bonded, share);
      EXPECT_EQ(d.cell_bps_40, want40) << "trial " << trial << " ap " << a;
      EXPECT_EQ(d.cell_bps_20_primary, want20);
      EXPECT_EQ(d.cell_bps_20_secondary, want20);
      EXPECT_EQ(d.width, want40 >= want20 ? phy::ChannelWidth::k40MHz
                                          : phy::ChannelWidth::k20MHz);

      const WidthDecision iso = decide_width(wlan, a, clients, share);
      EXPECT_EQ(iso.cell_bps_40,
                share * spec_cell_bps(wlan, a, clients,
                                      phy::ChannelWidth::k40MHz, 1.0));
      EXPECT_EQ(iso.cell_bps_20,
                share * spec_cell_bps(wlan, a, clients,
                                      phy::ChannelWidth::k20MHz, 1.0));
    }
  }
}

}  // namespace
}  // namespace acorn::core
