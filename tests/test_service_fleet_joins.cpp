// Concurrent Algorithm 1 joins on a cold rate-table cache.
//
// A join scores every in-range AP with a trial beacon whose delays come
// from the process-wide phy::RateTable cache: each beacon fetches its
// width's table once through RateTable::shared, and the first fetch of a
// link config builds the table under the cache's lock. This binary holds
// only this test, so the cache starts cold: the fleet's first joins run on
// several pooled workers at once (the TSan lane runs this binary), and
// every WLAN must still end where a never-started shard replaying the same
// joins ends — the reference recovery runs.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/eventlog.hpp"
#include "service/shard.hpp"
#include "service/snapshot.hpp"
#include "trace/load_gen.hpp"

namespace acorn::service {
namespace {

void discard_reply(std::uint64_t, std::chrono::steady_clock::time_point,
                   std::vector<std::uint8_t>) {}

TEST(ServiceFleetJoins, ConcurrentColdCacheJoinsMatchReplay) {
  constexpr int kWlans = 24;
  constexpr int kClients = 10;
  constexpr int kWindow = 128;
  const std::string floor = trace::synthetic_floor(4, kClients, 5);

  DaemonConfig config;
  config.unix_path = "/tmp/acorn_fleet_joins_" +
                     std::to_string(::getpid()) + ".sock";
  config.epoch_s = 0.0;
  config.workers = 4;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);

  std::int64_t sent = 0;
  std::int64_t recvd = 0;
  const auto pump = [&](const Message& msg) {
    client.send(msg);
    if (++sent - recvd >= kWindow) {
      (void)client.recv();
      ++recvd;
    }
  };
  for (int w = 0; w < kWlans; ++w) {
    pump(RegisterWlan{static_cast<std::uint32_t>(1 + w), floor});
  }
  // Round-robin over the fleet, so every worker's first pass is a join.
  for (int c = 0; c < kClients; ++c) {
    for (int w = 0; w < kWlans; ++w) {
      pump(ClientJoin{static_cast<std::uint32_t>(1 + w),
                      static_cast<std::uint32_t>(c)});
    }
  }
  while (recvd < sent) {
    (void)client.recv();
    ++recvd;
  }
  std::vector<WlanSnapshot> pooled;
  for (int w = 0; w < kWlans; ++w) {
    const auto state = daemon.wlan_state(static_cast<std::uint32_t>(1 + w));
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(state->events_applied, static_cast<std::uint64_t>(kClients));
    EXPECT_NE(std::count(state->association.begin(),
                         state->association.end(), net::kUnassociated),
              kClients)
        << "wlan " << (1 + w) << ": no join associated";
    pooled.push_back(*state);
  }
  client.close();
  daemon.stop();

  for (int w = 0; w < kWlans; ++w) {
    const auto id = static_cast<std::uint32_t>(1 + w);
    std::vector<WalRecord> log;
    for (int c = 0; c < kClients; ++c) {
      log.push_back(WalRecord{
          log.size() + 1,
          encode_payload(0, ClientJoin{id, static_cast<std::uint32_t>(c)})});
    }
    WlanSnapshot fresh;
    fresh.wlan_id = id;
    fresh.deployment = floor;
    const WlanShard reference(ShardOptions{}, fresh, discard_reply, log);
    const WlanSnapshot want = reference.state_snapshot();
    ASSERT_EQ(want.events_applied, static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(encode_snapshot(pooled[static_cast<std::size_t>(w)]),
              encode_snapshot(want))
        << "wlan " << id << " diverged from its replay";
  }
}

}  // namespace
}  // namespace acorn::service
