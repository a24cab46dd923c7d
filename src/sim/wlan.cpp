#include "sim/wlan.hpp"

#include <algorithm>
#include <stdexcept>

#include "phy/noise.hpp"
#include "phy/rate_table.hpp"
#include "sim/netkernel.hpp"
#include "util/units.hpp"

namespace acorn::sim {

namespace {
phy::LinkConfig patched_link(const WlanConfig& cfg) {
  phy::LinkConfig lc = cfg.link;
  lc.payload_bytes = cfg.payload_bytes;
  return lc;
}
}  // namespace

Wlan::Wlan(net::Topology topology, net::LinkBudget budget, WlanConfig config)
    : topology_(std::move(topology)),
      budget_(std::move(budget)),
      config_(config),
      link_model_(patched_link(config)) {}

double Wlan::client_snr_db(int ap, int client, phy::ChannelWidth width) const {
  return link_model_.snr_db(topology_.ap(ap).tx_dbm,
                            budget_.ap_client_loss_db(ap, client), width);
}

phy::RateDecision Wlan::client_rate(int ap, int client,
                                    phy::ChannelWidth width) const {
  return phy::best_rate(link_model_, width, client_snr_db(ap, client, width),
                        config_.gi);
}

Wlan::ClientLink Wlan::client_link(const phy::RateTable* table,
                                   phy::ChannelWidth width,
                                   double snr_db) const {
  if (table != nullptr) {
    const phy::RateTable::Segment& seg = table->segment_for_snr(snr_db);
    return ClientLink{seg.rate_bps,
                      link_model_.per(phy::mcs(seg.mcs_index), snr_db)};
  }
  const phy::RateDecision rate =
      phy::best_rate(link_model_, width, snr_db, config_.gi);
  return ClientLink{phy::mcs(rate.mcs_index).rate_bps(width, config_.gi),
                    rate.per};
}

double Wlan::client_delay_s_per_bit(int ap, int client,
                                    phy::ChannelWidth width) const {
  return client_delays_s_per_bit(ap, {client}, width).front();
}

std::vector<double> Wlan::client_delays_s_per_bit(
    int ap, const std::vector<int>& clients, phy::ChannelWidth width) const {
  std::vector<double> out;
  out.reserve(clients.size());
  if (clients.empty()) return out;
  const auto table = phy::RateTable::shared(link_model_, width, config_.gi);
  for (int c : clients) {
    const ClientLink link =
        client_link(table.get(), width, client_snr_db(ap, c, width));
    out.push_back(mac::per_bit_delay_s(config_.timing, link.rate_bps,
                                       config_.payload_bytes * 8, link.per));
  }
  return out;
}

std::vector<int> Wlan::clients_of(const net::Association& assoc, int ap) const {
  std::vector<int> out;
  for (int c = 0; c < topology_.num_clients(); ++c) {
    if (assoc[static_cast<std::size_t>(c)] == ap) out.push_back(c);
  }
  return out;
}

std::vector<std::vector<int>> Wlan::clients_by_ap(
    const net::Association& assoc) const {
  std::vector<std::vector<int>> out(
      static_cast<std::size_t>(topology_.num_aps()));
  for (int c = 0; c < topology_.num_clients(); ++c) {
    const int ap = assoc[static_cast<std::size_t>(c)];
    if (ap >= 0 && ap < topology_.num_aps()) {
      out[static_cast<std::size_t>(ap)].push_back(c);
    }
  }
  return out;
}

double Wlan::hidden_interference_mw(
    int serving_ap, int client, const net::Channel& channel,
    const net::InterferenceGraph& graph,
    const net::ChannelAssignment& assignment) const {
  double total_mw = 0.0;
  for (int other = 0; other < topology_.num_aps(); ++other) {
    if (other == serving_ap) continue;
    // Contending APs defer to each other (already charged via M_a);
    // only hidden co-channel APs add concurrent interference.
    if (graph.adjacent(serving_ap, other)) continue;
    const net::Channel& other_ch =
        assignment[static_cast<std::size_t>(other)];
    const double captured = other_ch.overlap_fraction(channel);
    if (captured <= 0.0) continue;
    const double rx_mw = util::dbm_to_mw(
        budget_.rx_at_client_dbm(topology_, other, client));
    // Activity factor: the interferer transmits for its medium share.
    const double activity =
        net::medium_access_share(graph, assignment, other);
    // Spread over the interferer's data subcarriers; captured fraction
    // falls inside this channel.
    total_mw += captured * activity * rx_mw /
                phy::data_subcarriers(other_ch.width());
  }
  return total_mw;
}

ApStats Wlan::evaluate_cell(int ap, const std::vector<int>& clients,
                            phy::ChannelWidth width, double medium_share,
                            mac::TrafficType traffic, RateRoute route,
                            const CellContext* context) const {
  ApStats stats;
  stats.ap_id = ap;
  stats.num_clients = static_cast<int>(clients.size());
  stats.medium_share = medium_share;
  if (clients.empty()) return stats;

  const auto table = route == RateRoute::kSpec ? nullptr
                     : phy::RateTable::shared(link_model_, width, config_.gi);
  std::vector<mac::CellClient> cell;
  cell.reserve(clients.size());
  for (int c : clients) {
    double snr_db = client_snr_db(ap, c, width);
    if (config_.sinr_interference && context != nullptr) {
      // Raise the per-subcarrier noise floor by the hidden interference.
      const double noise_mw = util::dbm_to_mw(
          phy::noise_per_subcarrier_dbm(config_.link.noise_figure_db));
      const double interference_mw = hidden_interference_mw(
          ap, c, context->channel, *context->graph, *context->assignment);
      snr_db -= util::lin_to_db((noise_mw + interference_mw) / noise_mw);
    }
    const ClientLink link = client_link(table.get(), width, snr_db);
    cell.push_back(mac::CellClient{c, link.rate_bps, link.per});
  }
  const mac::CellThroughput mac_result = mac::anomaly_throughput(
      config_.timing, cell, medium_share, config_.payload_bytes * 8);

  stats.atd_s_per_bit = mac_result.atd_s_per_bit;
  stats.mac_throughput_bps = mac_result.cell_bps;
  stats.client_ids = clients;
  stats.client_delay_s_per_bit = mac_result.client_delay_s_per_bit;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const double goodput = mac::transport_goodput_bps(
        config_.traffic, traffic, mac_result.per_client_bps, cell[i].per);
    stats.client_goodput_bps.push_back(goodput);
    stats.goodput_bps += goodput;
  }
  return stats;
}

double Wlan::isolated_cell_bps(int ap, const std::vector<int>& clients,
                               phy::ChannelWidth width,
                               mac::TrafficType traffic) const {
  return evaluate_cell(ap, clients, width, 1.0, traffic, RateRoute::kTable)
      .goodput_bps;
}

double Wlan::isolated_cell_bps_reference(int ap,
                                         const std::vector<int>& clients,
                                         phy::ChannelWidth width,
                                         mac::TrafficType traffic) const {
  return evaluate_cell(ap, clients, width, 1.0, traffic, RateRoute::kSpec)
      .goodput_bps;
}

double Wlan::isolated_best_bps(int ap, const std::vector<int>& clients,
                               mac::TrafficType traffic) const {
  return std::max(
      isolated_cell_bps(ap, clients, phy::ChannelWidth::k20MHz, traffic),
      isolated_cell_bps(ap, clients, phy::ChannelWidth::k40MHz, traffic));
}

ApStats Wlan::evaluate_cell_in(int ap, const std::vector<int>& clients,
                               double medium_share,
                               const net::InterferenceGraph& graph,
                               const net::ChannelAssignment& assignment,
                               mac::TrafficType traffic) const {
  const CellContext context{&graph, &assignment,
                            assignment[static_cast<std::size_t>(ap)]};
  return evaluate_cell(ap, clients, context.channel.width(), medium_share,
                       traffic, RateRoute::kTable, &context);
}

Evaluation Wlan::evaluate(const net::Association& assoc,
                          const net::ChannelAssignment& assignment,
                          mac::TrafficType traffic) const {
  // One-shot snapshot build + flat evaluation. The snapshot constructor
  // and NetSnapshot::evaluate throw the same invalid_argument messages
  // (in the same order) as evaluate_reference on malformed inputs.
  return NetSnapshot(*this, assoc).evaluate(assignment, traffic);
}

Evaluation Wlan::evaluate_reference(const net::Association& assoc,
                                    const net::ChannelAssignment& assignment,
                                    mac::TrafficType traffic) const {
  if (static_cast<int>(assoc.size()) != topology_.num_clients()) {
    throw std::invalid_argument("association size != client count");
  }
  if (static_cast<int>(assignment.size()) != topology_.num_aps()) {
    throw std::invalid_argument("assignment size != AP count");
  }
  const net::InterferenceGraph graph(topology_, budget_, assoc,
                                     config_.interference);
  const std::vector<std::vector<int>> clients = clients_by_ap(assoc);
  Evaluation eval;
  eval.per_ap.reserve(static_cast<std::size_t>(topology_.num_aps()));
  for (int ap = 0; ap < topology_.num_aps(); ++ap) {
    const double share =
        config_.weighted_contention
            ? net::medium_access_share_weighted(graph, assignment, ap)
            : net::medium_access_share(graph, assignment, ap);
    const CellContext context{&graph, &assignment,
                              assignment[static_cast<std::size_t>(ap)]};
    const ApStats stats =
        evaluate_cell(ap, clients[static_cast<std::size_t>(ap)],
                      context.channel.width(), share, traffic,
                      RateRoute::kSpec, &context);
    eval.total_goodput_bps += stats.goodput_bps;
    eval.per_ap.push_back(stats);
  }
  return eval;
}

}  // namespace acorn::sim
