#include "sim/mgmt.hpp"

#include <algorithm>

namespace acorn::sim {

int co_channel_neighbors(const net::InterferenceGraph& graph,
                         const net::ChannelAssignment& assignment, int ap) {
  return static_cast<int>(net::contenders(graph, assignment, ap).size());
}

namespace {
Beacon build_beacon(const Wlan& wlan, const net::InterferenceGraph& graph,
                    const net::ChannelAssignment& assignment, int ap,
                    const std::vector<int>& clients) {
  Beacon beacon;
  beacon.ap_id = ap;
  beacon.channel = assignment[static_cast<std::size_t>(ap)];
  beacon.num_clients = static_cast<int>(clients.size());
  beacon.access_share = net::medium_access_share(graph, assignment, ap);
  const phy::ChannelWidth width = beacon.channel.width();
  beacon.client_ids = clients;
  beacon.client_delays_s_per_bit =
      wlan.client_delays_s_per_bit(ap, clients, width);
  for (const double d : beacon.client_delays_s_per_bit) {
    beacon.atd_s_per_bit += d;
  }
  return beacon;
}
}  // namespace

Beacon make_beacon(const Wlan& wlan, const net::InterferenceGraph& graph,
                   const net::Association& assoc,
                   const net::ChannelAssignment& assignment, int ap) {
  return build_beacon(wlan, graph, assignment, ap, wlan.clients_of(assoc, ap));
}

Beacon make_beacon_with_client(const Wlan& wlan,
                               const net::InterferenceGraph& graph,
                               const net::Association& assoc,
                               const net::ChannelAssignment& assignment,
                               int ap, int joining_client) {
  std::vector<int> clients = wlan.clients_of(assoc, ap);
  if (std::find(clients.begin(), clients.end(), joining_client) ==
      clients.end()) {
    clients.push_back(joining_client);
  }
  return build_beacon(wlan, graph, assignment, ap, clients);
}

std::vector<int> aps_in_range(const Wlan& wlan, int client,
                              double min_rss_dbm) {
  std::vector<int> out;
  for (int ap = 0; ap < wlan.topology().num_aps(); ++ap) {
    const double rss =
        wlan.budget().rx_at_client_dbm(wlan.topology(), ap, client);
    if (rss >= min_rss_dbm) out.push_back(ap);
  }
  return out;
}

}  // namespace acorn::sim
