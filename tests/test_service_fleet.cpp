// Fleet-scale acornd: the pooled shard executor must be observationally
// identical to the single-threaded WAL replay that recovery runs.
//
// All events ride one pipelined connection, so each shard's mailbox
// order is the send order no matter how many workers the pool has or
// how they interleave across shards — which makes "identical" checkable
// to the byte: after the same schedule, every WLAN's snapshot encoding
// must match the reference exactly, at every worker count. The
// reference groups each WLAN's messages into the WAL records a durable
// shard would log and replays them through a never-started WlanShard's
// constructor, exactly as recovery does after a crash.
//
// The fleet_smoke test (256 WLANs over 4 pooled workers, trace-driven
// churn) is additionally labelled `fleet_smoke` so CI can run it alone
// in the tier-1, ASan and TSan lanes.
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/eventlog.hpp"
#include "service/shard.hpp"
#include "service/snapshot.hpp"
#include "trace/load_gen.hpp"
#include "util/rng.hpp"

namespace acorn::service {
namespace {

constexpr int kWindow = 64;

std::string sock_path(const char* tag, int workers) {
  return "/tmp/acorn_fleet_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(workers) + ".sock";
}

Message to_message(const trace::LoadEvent& e) {
  switch (e.kind) {
    case trace::LoadEventKind::kJoin:
      return ClientJoin{e.wlan_id, e.client};
    case trace::LoadEventKind::kLeave:
      return ClientLeave{e.wlan_id, e.client};
    case trace::LoadEventKind::kSnr:
      return SnrUpdate{e.wlan_id, e.ap, e.client, e.value};
    case trace::LoadEventKind::kLoad:
      return LoadUpdate{e.wlan_id, e.client, e.value};
  }
  throw std::logic_error("unknown load event kind");
}

/// One message of a schedule, tagged with the WLAN it is routed to.
struct Routed {
  std::uint32_t wlan_id = 0;
  Message msg;
};

/// The message stream for `events`: a ForceReconfigure for a rotating
/// WLAN is interleaved every `reconfigure_stride` events — in-stream, so
/// it lands at the same position in that WLAN's mailbox in every run.
std::vector<Routed> schedule_messages(
    int num_wlans, const std::vector<trace::LoadEvent>& events,
    int reconfigure_stride) {
  std::vector<Routed> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    out.push_back(Routed{events[i].wlan_id, to_message(events[i])});
    if (reconfigure_stride > 0 &&
        (i + 1) % static_cast<std::size_t>(reconfigure_stride) == 0) {
      const auto w = static_cast<std::uint32_t>(
          1 + (i / static_cast<std::size_t>(reconfigure_stride)) %
                  static_cast<std::size_t>(num_wlans));
      out.push_back(Routed{w, ForceReconfigure{w}});
    }
  }
  return out;
}

/// Run `messages` against a fresh daemon over `workers` pooled workers
/// and return every WLAN's snapshot bytes.
std::vector<std::vector<std::uint8_t>> run_schedule(
    const char* tag, int workers, int num_wlans, const std::string& floor,
    const std::vector<Routed>& messages) {
  DaemonConfig config;
  config.unix_path = sock_path(tag, workers);
  config.epoch_s = 0.0;  // no timer epochs: the schedule is the clock
  config.workers = workers;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);

  std::int64_t sent = 0;
  std::int64_t recvd = 0;
  const auto pump = [&](const Message& msg) {
    client.send(msg);
    ++sent;
    if (sent - recvd >= kWindow) {
      (void)client.recv();
      ++recvd;
    }
  };
  for (int w = 0; w < num_wlans; ++w) {
    pump(RegisterWlan{static_cast<std::uint32_t>(1 + w), floor});
  }
  for (const Routed& m : messages) pump(m.msg);
  while (recvd < sent) {
    (void)client.recv();
    ++recvd;
  }

  std::vector<std::vector<std::uint8_t>> snaps;
  snaps.reserve(static_cast<std::size_t>(num_wlans));
  for (int w = 0; w < num_wlans; ++w) {
    const auto state = daemon.wlan_state(static_cast<std::uint32_t>(1 + w));
    EXPECT_TRUE(state.has_value());
    snaps.push_back(state ? encode_snapshot(*state)
                          : std::vector<std::uint8_t>{});
  }
  client.close();
  daemon.stop();
  return snaps;
}

void discard_reply(std::uint64_t, std::chrono::steady_clock::time_point,
                   std::vector<std::uint8_t>) {}

WlanSnapshot fresh_wlan(std::uint32_t id, const std::string& floor) {
  WlanSnapshot state;
  state.wlan_id = id;
  state.deployment = floor;
  return state;
}

/// The reference: each WLAN's messages become WAL records
/// (seq = events-applied ordinal, payload as the shard logs it), and a
/// never-started shard over the fresh registration replays them in its
/// constructor — the loop recovery runs. Every record must apply, so a
/// replay that stops early cannot pass.
std::vector<std::vector<std::uint8_t>> replay_schedule(
    int num_wlans, const std::string& floor,
    const std::vector<Routed>& messages) {
  std::vector<std::vector<WalRecord>> records(
      static_cast<std::size_t>(num_wlans));
  for (const Routed& m : messages) {
    auto& log = records[m.wlan_id - 1];
    log.push_back(WalRecord{log.size() + 1, encode_payload(0, m.msg)});
  }
  std::vector<std::vector<std::uint8_t>> snaps;
  snaps.reserve(records.size());
  for (int w = 0; w < num_wlans; ++w) {
    const auto& log = records[static_cast<std::size_t>(w)];
    const WlanShard shard(
        ShardOptions{},
        fresh_wlan(static_cast<std::uint32_t>(1 + w), floor), discard_reply,
        log);
    const WlanSnapshot state = shard.state_snapshot();
    EXPECT_EQ(state.events_applied, log.size())
        << "wlan " << (1 + w) << " replay stopped early";
    snaps.push_back(encode_snapshot(state));
  }
  return snaps;
}

/// Seeded random mutating schedule: joins, leaves, SNR drift and load
/// hints scattered across the fleet (heavier on mutation than the trace
/// generator, including double-joins and leaves of absent clients).
std::vector<trace::LoadEvent> random_schedule(int num_wlans, int clients,
                                              int aps, int count,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<trace::LoadEvent> events;
  events.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    trace::LoadEvent e;
    e.t_s = static_cast<double>(i);
    e.wlan_id = static_cast<std::uint32_t>(
        rng.uniform_int(1, num_wlans));
    e.client = static_cast<std::uint32_t>(
        rng.uniform_int(0, clients - 1));
    const double kind = rng.uniform();
    if (kind < 0.30) {
      e.kind = trace::LoadEventKind::kJoin;
    } else if (kind < 0.45) {
      e.kind = trace::LoadEventKind::kLeave;
    } else if (kind < 0.80) {
      e.kind = trace::LoadEventKind::kSnr;
      e.ap = static_cast<std::uint32_t>(rng.uniform_int(0, aps - 1));
      e.value = rng.uniform(70.0, 115.0);
    } else {
      e.kind = trace::LoadEventKind::kLoad;
      e.value = rng.uniform();
    }
    events.push_back(e);
  }
  return events;
}

TEST(ServiceFleet, PooledMatchesReferenceOnRandomSchedules) {
  constexpr int kWlans = 6;
  constexpr int kClients = 6;
  constexpr int kAps = 3;
  const std::string floor = trace::synthetic_floor(kAps, kClients, 11);
  const std::vector<Routed> messages = schedule_messages(
      kWlans, random_schedule(kWlans, kClients, kAps, 800, 0xF1EE7), 37);

  const auto reference = replay_schedule(kWlans, floor, messages);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kWlans));
  for (const int workers : {1, 2, 4}) {
    const auto pooled = run_schedule("rand", workers, kWlans, floor, messages);
    ASSERT_EQ(pooled.size(), reference.size());
    for (int w = 0; w < kWlans; ++w) {
      EXPECT_EQ(pooled[static_cast<std::size_t>(w)],
                reference[static_cast<std::size_t>(w)])
          << "wlan " << (1 + w) << " diverged at " << workers
          << " pooled workers";
    }
  }
}

TEST(ServiceFleet, FleetSmoke256WlansOver4PooledWorkers) {
  constexpr int kWlans = 256;
  const std::string floor = trace::synthetic_floor(3, 8, 7);

  trace::FleetLoadConfig lc;
  lc.num_wlans = kWlans;
  lc.clients_per_wlan = 8;
  lc.aps_per_wlan = 3;
  lc.horizon_s = 400.0;
  lc.duration_scale = 0.1;
  lc.seed = 42;
  std::vector<trace::LoadEvent> events = trace::generate_fleet_load(lc);
  ASSERT_GT(events.size(), 1000u);
  if (events.size() > 4000) events.resize(4000);
  const std::vector<Routed> messages = schedule_messages(kWlans, events, 64);

  const auto reference = replay_schedule(kWlans, floor, messages);
  const auto pooled = run_schedule("smoke", 4, kWlans, floor, messages);
  ASSERT_EQ(pooled.size(), reference.size());
  for (int w = 0; w < kWlans; ++w) {
    EXPECT_EQ(pooled[static_cast<std::size_t>(w)],
              reference[static_cast<std::size_t>(w)])
        << "wlan " << (1 + w) << " diverged under the pooled executor";
  }
}

TEST(ServiceFleet, StartWithoutExecutorThrowsAndShardStaysValid) {
  const std::string floor = trace::synthetic_floor(2, 4, 3);
  WlanShard shard(ShardOptions{}, fresh_wlan(5, floor), discard_reply);
  EXPECT_THROW(shard.start(), std::invalid_argument);

  // The never-started shard still answers state queries with the fresh
  // registration's state, and stop() (run again by the destructor) is a
  // no-op.
  shard.stop();
  const WlanSnapshot state = shard.state_snapshot();
  EXPECT_EQ(state.wlan_id, 5u);
  EXPECT_EQ(state.deployment, floor);
  EXPECT_EQ(state.events_applied, 0u);
  EXPECT_EQ(state.association.size(), 4u);
  EXPECT_EQ(state.allocated.size(), 2u);
  const std::vector<std::uint8_t> bytes = encode_snapshot(state);
  EXPECT_EQ(encode_snapshot(decode_snapshot(bytes)), bytes);
}

TEST(ServiceFleet, PooledTimerEpochsFire) {
  DaemonConfig config;
  config.unix_path = sock_path("timer", 2);
  config.epoch_s = 0.05;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);
  client.call(RegisterWlan{1, trace::synthetic_floor(2, 4, 3)});
  client.call(ClientJoin{1, 0});

  // The pool's timer wheel, not a dedicated shard thread, must drive
  // the periodic epoch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t epochs = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const Message reply = client.call(QueryStats{});
    epochs = std::get<StatsReply>(reply).epochs_total;
    if (epochs >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(epochs, 2u);
  client.close();
  daemon.stop();
}

TEST(ServiceFleet, RemoveAndReregisterUnderPooledExecutor) {
  DaemonConfig config;
  config.unix_path = sock_path("remove", 2);
  config.epoch_s = 0.0;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();
  Client client = Client::connect_unix(config.unix_path);
  const std::string floor = trace::synthetic_floor(2, 4, 3);

  // Register/apply/remove cycles exercise the detach path (quiesce,
  // timer cancel) while other shards stay live on the same workers.
  client.call(RegisterWlan{7, floor});
  for (int round = 0; round < 5; ++round) {
    client.call(RegisterWlan{1, floor});
    client.call(ClientJoin{1, 0});
    client.call(SnrUpdate{1, 0, 0, 90.0});
    client.call(ForceReconfigure{1});
    client.call(RemoveWlan{1});
    client.call(ClientJoin{7, static_cast<std::uint32_t>(round % 4)});
  }
  const Message reply = client.call(QueryStats{});
  EXPECT_EQ(std::get<StatsReply>(reply).num_wlans, 1u);
  const auto state = daemon.wlan_state(7);
  ASSERT_TRUE(state.has_value());
  EXPECT_GT(state->events_applied, 0u);
  client.close();
  daemon.stop();
}

}  // namespace
}  // namespace acorn::service
