// Flow-level WLAN evaluator: given a deployment (topology + link budget),
// a user association and a channel assignment, compute what every cell
// and the whole network achieve under saturated downlink traffic.
//
// The pipeline per AP is the paper's measurement chain in reverse:
// client SNR at the assigned width -> auto-rate (MCS + SDM/STBC mode and
// its PER) -> per-client transmission delay -> performance-anomaly cell
// throughput scaled by the contention share M_a -> transport goodput.
#pragma once

#include <vector>

#include "mac/anomaly.hpp"
#include "mac/traffic.hpp"
#include "net/interference.hpp"
#include "phy/rate_control.hpp"

namespace acorn::phy {
class RateTable;
}  // namespace acorn::phy

namespace acorn::sim {

struct WlanConfig {
  phy::LinkConfig link;
  mac::MacTiming timing;
  mac::TrafficModel traffic;
  net::InterferenceConfig interference;
  int payload_bytes = 1500;
  phy::GuardInterval gi = phy::GuardInterval::kLong800ns;
  /// Contention model: false = the paper's M = 1/(|con|+1); true = the
  /// overlap-weighted variant (partial spectral overlap costs a partial
  /// contention slot). See the contention-model ablation bench.
  bool weighted_contention = false;
  /// Hidden-interference model: when true, co-channel APs *outside*
  /// carrier-sense range raise the effective noise floor at each client
  /// (SINR instead of SNR), weighted by the interferer's busy fraction.
  /// Captures the paper's §1 point that wider bands both project and
  /// suffer more interference. Off by default (the paper's evaluation
  /// topologies are contention- or isolation-dominated).
  bool sinr_interference = false;
};

/// Everything measured about one AP's cell in one evaluation.
struct ApStats {
  int ap_id = 0;
  int num_clients = 0;            // K_i
  double medium_share = 0.0;      // M_i
  double atd_s_per_bit = 0.0;     // ATD_i
  double mac_throughput_bps = 0.0;
  double goodput_bps = 0.0;       // transport-level cell goodput
  std::vector<int> client_ids;
  std::vector<double> client_delay_s_per_bit;  // d_cl, same order
  std::vector<double> client_goodput_bps;
};

struct Evaluation {
  std::vector<ApStats> per_ap;
  double total_goodput_bps = 0.0;
};

class Wlan {
 public:
  Wlan(net::Topology topology, net::LinkBudget budget, WlanConfig config);

  const net::Topology& topology() const { return topology_; }
  const net::LinkBudget& budget() const { return budget_; }
  net::LinkBudget& budget() { return budget_; }
  const WlanConfig& config() const { return config_; }
  const phy::LinkModel& link_model() const { return link_model_; }

  /// Per-subcarrier SNR of the AP->client link at a width.
  double client_snr_db(int ap, int client, phy::ChannelWidth width) const;

  /// Auto-rate decision (MCS, mode, PER, goodput) for a client at a width.
  /// Runs `phy::best_rate`'s 16-row goodput sweep: the executable spec of
  /// rate selection. Production code never calls it; the tests derive
  /// delays, cell goodputs and Algorithm 1 utilities from it by hand and
  /// pin the RateTable route below against them bit for bit.
  phy::RateDecision client_rate(int ap, int client,
                                phy::ChannelWidth width) const;

  /// Per-client transmission delay d_u (s/bit) at a width. Production
  /// route: the winning row comes from the shared `phy::RateTable`
  /// (threshold scan + one PER evaluation); bit-identical to the delay
  /// derived from `client_rate`.
  double client_delay_s_per_bit(int ap, int client,
                                phy::ChannelWidth width) const;

  /// `client_delay_s_per_bit` for every client of `clients` (in order) at
  /// AP `ap`, fetching the RateTable once for the whole list. Algorithm 1's
  /// beacons (sim::make_beacon*) take their delay lists from here.
  std::vector<double> client_delays_s_per_bit(
      int ap, const std::vector<int>& clients, phy::ChannelWidth width) const;

  /// Evaluate one cell in isolation (medium share 1) at a given width;
  /// used for the isolated-throughput bound Y* (paper §4.2, Fig. 14) and
  /// the width-only `core::decide_width`. The same per-cell body as
  /// `evaluate_cell_in` at share 1 on the RateTable route; bit-identical to
  /// `isolated_cell_bps_reference`.
  double isolated_cell_bps(int ap, const std::vector<int>& clients,
                           phy::ChannelWidth width,
                           mac::TrafficType traffic =
                               mac::TrafficType::kUdp) const;

  /// The same cell body on the `best_rate` route (`client_rate`), kept as
  /// the executable specification the RateTable route is property-tested
  /// against (tests/test_sim_wlan.cpp asserts bit-identity).
  double isolated_cell_bps_reference(int ap, const std::vector<int>& clients,
                                     phy::ChannelWidth width,
                                     mac::TrafficType traffic =
                                         mac::TrafficType::kUdp) const;

  /// max over widths of the isolated cell throughput, X_i^isol.
  double isolated_best_bps(int ap, const std::vector<int>& clients,
                           mac::TrafficType traffic =
                               mac::TrafficType::kUdp) const;

  /// Full-network evaluation under an association + channel assignment.
  /// Delegates to a one-shot sim::NetSnapshot (flat-array kernel);
  /// bit-identical to `evaluate_reference`. Callers scoring many
  /// assignments under one association should build the snapshot once
  /// themselves instead.
  Evaluation evaluate(const net::Association& assoc,
                      const net::ChannelAssignment& assignment,
                      mac::TrafficType traffic =
                          mac::TrafficType::kUdp) const;

  /// The original object-at-a-time evaluation path with `best_rate` rate
  /// selection, kept as the executable specification the flat engine and
  /// the RateTable route are property-tested against
  /// (tests/test_sim_netkernel.cpp asserts bit-identical Evaluations).
  Evaluation evaluate_reference(const net::Association& assoc,
                                const net::ChannelAssignment& assignment,
                                mac::TrafficType traffic =
                                    mac::TrafficType::kUdp) const;

  /// Clients of an AP under an association.
  std::vector<int> clients_of(const net::Association& assoc, int ap) const;

  /// All per-AP client lists in one O(num_clients) pass (ascending client
  /// ids, exactly what `clients_of` returns per AP). Delta hook for
  /// incremental oracles that group clients once per association instead
  /// of rescanning every client for every cell.
  std::vector<std::vector<int>> clients_by_ap(
      const net::Association& assoc) const;

  /// Evaluate AP `ap`'s cell exactly as `evaluate` would under
  /// (assignment, graph): width and hidden-interference context come from
  /// the assignment, `medium_share` is supplied by the caller (who may
  /// have computed or cached it). Used by the context-aware width fallback
  /// (`core::decide_width`) on the RateTable route; the result is
  /// bit-identical to the corresponding `evaluate` entry.
  ApStats evaluate_cell_in(int ap, const std::vector<int>& clients,
                           double medium_share,
                           const net::InterferenceGraph& graph,
                           const net::ChannelAssignment& assignment,
                           mac::TrafficType traffic =
                               mac::TrafficType::kUdp) const;

  /// Per-subcarrier interference power (mW) a client would see on
  /// `channel` from co-channel APs that its serving AP does NOT contend
  /// with (hidden interferers), each weighted by its busy fraction
  /// (1 - its medium share is idle; we charge its share as activity).
  double hidden_interference_mw(int serving_ap, int client,
                                const net::Channel& channel,
                                const net::InterferenceGraph& graph,
                                const net::ChannelAssignment& assignment)
      const;

 private:
  /// One client's auto-rate outcome, expanded to what the MAC model
  /// consumes: the PHY rate at the configured GI and the packet error
  /// rate. `table` non-null is the production route (its segment's rate
  /// plus one PER evaluation); null runs the `best_rate` spec. Both give
  /// the same bits.
  struct ClientLink {
    double rate_bps = 0.0;
    double per = 0.0;
  };
  ClientLink client_link(const phy::RateTable* table, phy::ChannelWidth width,
                         double snr_db) const;

  /// The rate route a cell evaluation takes: kTable fetches the shared
  /// RateTable once per cell (every public evaluator), kSpec runs
  /// `best_rate` per client (the `*_reference` specifications only).
  enum class RateRoute { kTable, kSpec };

  struct CellContext {
    const net::InterferenceGraph* graph = nullptr;
    const net::ChannelAssignment* assignment = nullptr;
    net::Channel channel = net::Channel::basic(0);
  };
  ApStats evaluate_cell(int ap, const std::vector<int>& clients,
                        phy::ChannelWidth width, double medium_share,
                        mac::TrafficType traffic, RateRoute route,
                        const CellContext* context = nullptr) const;

  net::Topology topology_;
  net::LinkBudget budget_;
  WlanConfig config_;
  phy::LinkModel link_model_;
};

}  // namespace acorn::sim
