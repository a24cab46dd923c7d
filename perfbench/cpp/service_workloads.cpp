// The acornd workloads: fleet_churn, durable_churn and replan. Each runs
// an in-process service::Daemon (the code acornd runs) on a Unix socket
// and drives it closed-loop through one service::Client connection.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bench.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/snapshot.hpp"
#include "trace/load_gen.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace acorn;
using namespace acorn::service;

namespace {

// Nominal rates on the reference VM (see README.md); they size each
// phase's fixed op count from --seconds, so the same seed and seconds
// always replay the same ops and produce the same plan.
constexpr int kChurnWlans = 256;
constexpr double kChurnDurationScale = 0.3;
constexpr double kChurnPipeRate = 100000.0;  // events/s
constexpr double kChurnSerialUs = 100.0;   // mean, one in flight
constexpr double kDurablePipeRate = 40000.0;
constexpr double kDurableSerialUs = 300.0;
constexpr int kChurnSetupReps = 25;
constexpr int kDurableSetupReps = 9;  // each writes 256 snapshots
/// Rounds per second of --seconds (each ~0.3 s of pipelined + serial work).
constexpr double kRoundsPerS = 3.0;
constexpr int kReplanWlans = 8;
constexpr int kReplanAps = 16;
constexpr int kReplanClients = 64;
constexpr int kReplanBurst = 4;
constexpr double kReplanPlansPerS = 40.0;
constexpr int kReplanSetupReps = 3;
/// Plans per round (~0.5 s).
constexpr std::size_t kReplanPerRound = 20;
constexpr long kRecvTimeoutMs = 20000;

struct PlanSummary {
  double goodput_mbps = 0.0;
  std::string fingerprint;
  StatsReply stats;
};

/// The checked end state: one final ForceReconfigure per WLAN (the plan
/// in force), then every WLAN's config. `expected_events[w]` is the
/// number of WLAN-scoped events sent to WLAN w before this call; each
/// WLAN must report exactly that many + 1 applied.
PlanSummary final_plan(Service& s, std::uint32_t num_wlans,
                       const std::vector<std::uint64_t>& expected_events,
                       Report& r) {
  std::vector<Message> reqs;
  for (std::uint32_t w = 1; w <= num_wlans; ++w) {
    reqs.push_back(ForceReconfigure{w});
  }
  pipeline(s.client, reqs, 0, reqs.size(), r);

  PlanSummary out;
  Fnv fp;
  for (std::uint32_t w = 1; w <= num_wlans; ++w) {
    ++r.attempted;
    const Message m = s.client.call(QueryConfig{w});
    const auto* c = std::get_if<ConfigReply>(&m);
    if (c == nullptr || c->wlan_id != w) {
      ++r.failed;
      r.check(false, "QueryConfig " + std::to_string(w) + ": bad reply");
      continue;
    }
    if (c->events_applied != expected_events[w] + 1) {
      ++r.failed;
      r.check(false, "wlan " + std::to_string(w) + " applied " +
                         std::to_string(c->events_applied) +
                         " events, sent " +
                         std::to_string(expected_events[w] + 1));
    }
    out.goodput_mbps += c->total_goodput_bps / 1e6;
    fp.value(c->wlan_id);
    fp.value(c->epoch);
    fp.value(c->events_applied);
    fp.value(c->total_goodput_bps);
    for (const int a : c->association) fp.value(a);
    for (const auto* plan : {&c->allocated, &c->operating}) {
      for (const net::Channel& ch : *plan) {
        fp.value(ch.primary());
        fp.value(ch.is_bonded());
      }
    }
  }
  out.fingerprint = fp.hex();
  ++r.attempted;
  const Message st = s.client.call(QueryStats{});
  if (const auto* sr = std::get_if<StatsReply>(&st)) {
    out.stats = *sr;
    r.check(sr->protocol_errors == 0, "daemon reported protocol errors");
    r.check(sr->num_wlans == num_wlans, "daemon lost WLANs");
  } else {
    ++r.failed;
    r.check(false, "QueryStats: bad reply");
  }
  return out;
}

void add_plan(Report& r, const PlanSummary& p) {
  r.det("goodput_mbps", p.goodput_mbps);
  r.det("plan_fingerprint", p.fingerprint);
  r.det("core.alloc.evaluations", static_cast<double>(p.stats.alloc_evaluations));
  r.det("core.alloc.switches", static_cast<double>(p.stats.channel_switches));
  r.det("core.assoc.changes", static_cast<double>(p.stats.assoc_changes));
  r.det("events_total", static_cast<double>(p.stats.events_total));
}

/// The first plan of every WLAN (set-up, not a timed op).
void first_plans(Service& s, std::uint32_t num_wlans, Report& r) {
  std::vector<Message> reqs;
  for (std::uint32_t w = 1; w <= num_wlans; ++w) {
    reqs.push_back(ForceReconfigure{w});
  }
  Report setup;
  pipeline(s.client, reqs, 0, reqs.size(), setup);
  r.check(setup.failed == 0, "first plan failed");
}

/// durable_churn's recovery check: copy the live state dir (every
/// acknowledged event is on disk by then), recover the copy in a fresh
/// Daemon and require every WLAN's state to equal the live one.
void check_recovery(const Options& opts, Service& s, Report& r) {
  const std::string copy = s.state_dir + ".recovered";
  remove_tree(copy);
  std::filesystem::copy(s.state_dir, copy,
                        std::filesystem::copy_options::recursive);
  DaemonConfig config;
  config.state_dir = copy;
  config.epoch_s = 0.0;
  config.workers = opts.workers;
  Daemon recovered(config);
  recovered.start();
  std::size_t mismatched = 0;
  const std::vector<std::uint32_t> ids = s.daemon->wlan_ids();
  for (const std::uint32_t id : ids) {
    ++r.attempted;
    const std::optional<WlanSnapshot> live = s.daemon->wlan_state(id);
    const std::optional<WlanSnapshot> back = recovered.wlan_state(id);
    if (!live || !back || encode_snapshot(*live) != encode_snapshot(*back)) {
      ++mismatched;
      ++r.failed;
    }
  }
  r.check(recovered.wlan_ids() == ids, "recovered WLAN set differs");
  recovered.stop();
  remove_tree(copy);
  r.check(mismatched == 0, std::to_string(mismatched) + " of " +
                               std::to_string(ids.size()) +
                               " WLANs recovered a different state");
}

}  // namespace

void Service::shutdown() {
  client.close();
  if (daemon) daemon->stop();
  daemon.reset();
  if (!state_dir.empty()) remove_tree(state_dir);
}

std::unique_ptr<Service> start_service(const Options& opts,
                                       const std::string& tag,
                                       bool durable) {
  auto s = std::make_unique<Service>();
  const std::string base = kWorkDir + "/" + std::to_string(::getpid()) +
                           "-" + tag;
  s->sock = base + ".sock";
  if (durable) {
    s->state_dir = base + ".state";
    remove_tree(s->state_dir);
  }
  DaemonConfig config;
  config.unix_path = s->sock;
  config.state_dir = s->state_dir;
  config.epoch_s = 0.0;  // plans only on ForceReconfigure: deterministic
  config.workers = opts.workers;
  s->daemon = std::make_unique<Daemon>(config);
  s->daemon->start();
  s->client = Client::connect_unix(s->sock);
  s->client.set_recv_timeout_ms(kRecvTimeoutMs);
  return s;
}

void register_all(Service& s, const std::vector<std::string>& floors,
                  Report& r) {
  std::vector<Message> reqs;
  for (std::size_t w = 0; w < floors.size(); ++w) {
    reqs.push_back(RegisterWlan{static_cast<std::uint32_t>(w + 1), floors[w]});
  }
  Report setup;  // registration is set-up, not a timed op
  pipeline(s.client, reqs, 0, reqs.size(), setup);
  r.check(setup.failed == 0, "WLAN registration failed");
}

double round_trip(Client& client, const Message& msg, std::uint32_t root,
                  std::uint64_t op, Report& r) {
  static const std::uint32_t kSend = tracer().name_id("service.client.send");
  static const std::uint32_t kRecv = tracer().name_id("service.client.recv");
  const ScopedSpan span(root, op);
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan s(kSend, op, span.handle());
    client.send(msg);
  }
  Frame f;
  {
    const ScopedSpan s(kRecv, op, span.handle());
    f = client.recv();
  }
  const double us = us_between(t0, Clock::now());
  ++r.attempted;
  if (!std::holds_alternative<OkReply>(f.msg)) ++r.failed;
  return us;
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
      break;
  }
  return LoadUpdate{e.wlan_id, e.client, e.value};
}

std::vector<std::string> churn_floors(int num_wlans) {
  std::vector<std::string> floors;
  for (int w = 0; w < num_wlans; ++w) {
    floors.push_back(trace::synthetic_floor(
        3, 8, kFloorSeed + static_cast<std::uint64_t>(w)));
  }
  return floors;
}

std::vector<trace::LoadEvent> churn_trace(std::uint64_t seed,
                                          std::uint32_t num_wlans,
                                          std::size_t need) {
  trace::FleetLoadConfig lc;
  lc.num_wlans = num_wlans;
  lc.clients_per_wlan = 8;
  lc.aps_per_wlan = 3;
  lc.seed = seed;
  // ~10 min sessions: joins are ~4% of events, so the p90 of the
  // one-in-flight phase sits inside the cheap-event mode instead of on
  // the edge of the (Algorithm 1) join mode.
  lc.duration_scale = kChurnDurationScale;
  lc.horizon_s = 600.0;
  std::vector<trace::LoadEvent> events = trace::generate_fleet_load(lc);
  while (events.size() < need) {
    lc.horizon_s *= 1.2 * static_cast<double>(need) /
                    static_cast<double>(std::max<std::size_t>(1, events.size()));
    events = trace::generate_fleet_load(lc);
  }
  // An exact-size copy: the generator's buffers are freed on return.
  return std::vector<trace::LoadEvent>(events.begin(), events.begin() + need);
}

Report run_churn(const Options& opts, bool durable) {
  Report r;
  const double pipe_rate = durable ? kDurablePipeRate : kChurnPipeRate;
  const double serial_us = durable ? kDurableSerialUs : kChurnSerialUs;
  const auto n_pipe =
      static_cast<std::size_t>(0.5 * opts.seconds * pipe_rate);
  const auto n_serial =
      static_cast<std::size_t>(0.5 * opts.seconds * 1e6 / serial_us);
  const int n_rounds =
      std::max(4, static_cast<int>(std::round(opts.seconds * kRoundsPerS)));
  const std::size_t pipe_per = n_pipe / n_rounds;
  const std::size_t serial_per = n_serial / n_rounds;
  const std::size_t n_timed = n_rounds * (pipe_per + serial_per);
  // The traced run replays six more one-in-flight slices, alternately
  // untraced and traced, to price the tracing. The trace is generated
  // with them either way: a longer horizon would change the events, and
  // so the plan.
  const std::size_t n_overhead = 6 * serial_per;

  // Inputs first, outside setup_s.
  const std::vector<std::string> floors = churn_floors(kChurnWlans);
  const std::vector<trace::LoadEvent> events =
      churn_trace(opts.seed, kChurnWlans, n_timed + n_overhead);

  reset_peak_rss();

  // Set-up: the first repetition brings up the daemon the timed phase
  // drives; the others bring up throwaway daemons between rounds, so the
  // repetitions sample the whole run.
  static const std::uint32_t kSetup = tracer().name_id("setup");
  std::vector<double> setup_s;
  const int setup_reps = durable ? kDurableSetupReps : kChurnSetupReps;
  const auto set_up = [&]() {
    const auto rep = static_cast<std::uint64_t>(setup_s.size());
    const ScopedSpan span(kSetup, rep);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Service> svc =
        start_service(opts, "churn" + std::to_string(rep), durable);
    register_all(*svc, floors, r);
    first_plans(*svc, kChurnWlans, r);
    setup_s.push_back(seconds_since(t0));
    return svc;
  };
  const std::unique_ptr<Service> s = set_up();

  std::vector<std::uint64_t> sent_to(kChurnWlans + 1, 1);  // first plan
  std::size_t joins = 0;
  for (std::size_t i = 0; i < n_timed; ++i) {
    ++sent_to[events[i].wlan_id];
    joins += events[i].kind == trace::LoadEventKind::kJoin;
  }

  // Timed phase: n_rounds rounds, each a pipelined slice (throughput at
  // a fixed window) followed by a one-in-flight slice (acknowledged-reply
  // latency) of the next events; see Rounds for how they are reduced.
  static const std::uint32_t kPipe = tracer().name_id("churn.pipelined");
  static const std::uint32_t kRoot = tracer().name_id("churn.roundtrip");
  Rounds rounds;
  std::size_t at = 0;
  const Clock::time_point t_timed = Clock::now();
  for (int k = 0; k < n_rounds; ++k) {
    double pipe_s = 0.0;
    {
      const ScopedSpan span(kPipe, static_cast<std::uint64_t>(k));
      const Clock::time_point t0 = Clock::now();
      pipeline(s->client, events, at, at + pipe_per, r);
      pipe_s = seconds_since(t0);
    }
    at += pipe_per;
    std::vector<double> lat_us;
    for (std::size_t i = at; i < at + serial_per; ++i) {
      lat_us.push_back(
          round_trip(s->client, to_message(events[i]), kRoot, i, r));
    }
    at += serial_per;
    rounds.add(static_cast<double>(pipe_per), pipe_s, std::move(lat_us));
    if (setup_rep_after(k, n_rounds, setup_reps)) set_up()->shutdown();
  }
  const double timed_s =
      seconds_since(t_timed) -
      std::accumulate(setup_s.begin() + 1, setup_s.end(), 0.0);
  std::fprintf(stderr, "perfbench: %s %d rounds of %zu pipelined + %zu "
               "serial events in %.2f s\n", opts.workload.c_str(), n_rounds,
               pipe_per, serial_per, timed_s);

  if (durable) check_recovery(opts, *s, r);
  const PlanSummary plan =
      final_plan(*s, kChurnWlans, sent_to, r);
  add_plan(r, plan);

  if (opts.trace) {
    Report scratch;  // replies are still checked below
    trace_overhead(r, "churn.roundtrip", static_cast<double>(serial_per),
                   [&](int c) {
                     const std::size_t from = n_timed + c * serial_per;
                     for (std::size_t i = from; i < from + serial_per; ++i) {
                       (void)round_trip(s->client, to_message(events[i]),
                                        kRoot, i, scratch);
                     }
                   });
    r.check(scratch.failed == 0, "overhead chunks: failed replies");
  } else {
    add_setup(r, setup_s);
    rounds.report(r);
    add_ok_frac(r);
    r.metric("goodput_mbps", plan.goodput_mbps, "Mbps");
  }

  r.ctx("wlans", kChurnWlans);
  r.ctx("workers", opts.workers);
  r.ctx("window", kWindow);
  r.ctx("pipelined_events", static_cast<double>(pipe_per * n_rounds));
  r.ctx("serial_events", static_cast<double>(serial_per * n_rounds));
  r.ctx("timed_s", timed_s);
  r.ctx("join_frac", static_cast<double>(joins) /
                         static_cast<double>(std::max<std::size_t>(1, n_timed)));
  r.ctx("state_dir", durable ? s->state_dir : std::string("none"));
  r.ctx("state_dir_fs", fs_type(kWorkDir));
  r.ctx("state_dir_fdatasync_us", fdatasync_us(kWorkDir));
  if (durable) {
    const StatsReply& st = plan.stats;
    r.ctx("wal_syncs", static_cast<double>(st.wal_syncs));
    r.ctx("wal_events_per_sync",
          st.wal_syncs ? static_cast<double>(st.wal_coalesced_events) /
                             static_cast<double>(st.wal_syncs)
                       : 0.0);
  }
  return r;
}

Report run_replan(const Options& opts) {
  Report r;
  const auto n_rounds = static_cast<std::size_t>(std::max(
      4.0, std::round(opts.seconds * kReplanPlansPerS / kReplanPerRound)));
  const std::size_t n_ops = n_rounds * kReplanPerRound;
  const std::size_t n_overhead = opts.trace ? std::max<std::size_t>(6, n_ops / 2) : 0;

  // Inputs: floors, joins and every op's SNR-drift burst.
  std::vector<std::string> floors;
  for (int w = 0; w < kReplanWlans; ++w) {
    floors.push_back(trace::synthetic_floor(
        kReplanAps, kReplanClients,
        kFloorSeed + static_cast<std::uint64_t>(w)));
  }
  std::vector<Message> joins;
  for (std::uint32_t c = 0; c < kReplanClients; ++c) {
    for (std::uint32_t w = 1; w <= kReplanWlans; ++w) {
      joins.push_back(ClientJoin{w, c});
    }
  }
  std::vector<std::vector<Message>> bursts(n_ops + n_overhead);
  util::Rng rng(opts.seed ^ 0x7e91a2ull);
  for (std::size_t k = 0; k < bursts.size(); ++k) {
    const auto w = static_cast<std::uint32_t>(1 + k % kReplanWlans);
    for (int b = 0; b < kReplanBurst; ++b) {
      bursts[k].push_back(SnrUpdate{
          w, static_cast<std::uint32_t>(rng.uniform_int(0, kReplanAps - 1)),
          static_cast<std::uint32_t>(rng.uniform_int(0, kReplanClients - 1)),
          rng.uniform(65.0, 95.0)});
    }
  }

  reset_peak_rss();

  // Set-up repetitions spread over the run, as in run_churn.
  static const std::uint32_t kSetup = tracer().name_id("setup");
  std::vector<double> setup_s;
  const auto set_up = [&]() {
    const auto rep = static_cast<std::uint64_t>(setup_s.size());
    const ScopedSpan span(kSetup, rep);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Service> svc =
        start_service(opts, "replan" + std::to_string(rep), true);
    register_all(*svc, floors, r);
    Report setup;
    pipeline(svc->client, joins, 0, joins.size(), setup);
    first_plans(*svc, kReplanWlans, setup);
    r.check(setup.failed == 0, "replan set-up: joins or first plan failed");
    setup_s.push_back(seconds_since(t0));
    return svc;
  };
  const std::unique_ptr<Service> s = set_up();

  std::vector<std::uint64_t> sent_to(kReplanWlans + 1,
                                     kReplanClients + 1);  // joins + plan
  static const std::uint32_t kRoot = tracer().name_id("replan.plan");
  // One op: the SNR-drift burst (pipelined), then the plan, timed.
  const auto run_op = [&](std::size_t k, Report& rep) {
    pipeline(s->client, bursts[k], 0, bursts[k].size(), rep);
    const auto w = static_cast<std::uint32_t>(1 + k % kReplanWlans);
    return round_trip(s->client, ForceReconfigure{w}, kRoot, k, rep);
  };

  Rounds rounds;
  const Clock::time_point t_ops = Clock::now();
  for (std::size_t k0 = 0; k0 < n_ops; k0 += kReplanPerRound) {
    std::vector<double> lat_us;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = k0; k < k0 + kReplanPerRound; ++k) {
      lat_us.push_back(run_op(k, r));
      sent_to[1 + k % kReplanWlans] += kReplanBurst + 1;
    }
    rounds.add(static_cast<double>(kReplanPerRound), seconds_since(t0),
               std::move(lat_us));
    if (setup_rep_after(static_cast<int>(k0 / kReplanPerRound),
                        static_cast<int>(n_rounds), kReplanSetupReps)) {
      set_up()->shutdown();
    }
  }
  const double ops_s = seconds_since(t_ops) -
                      std::accumulate(setup_s.begin() + 1, setup_s.end(), 0.0);
  std::fprintf(stderr, "perfbench: replan %zu plans in %.2f s\n", n_ops,
               ops_s);

  const PlanSummary plan =
      final_plan(*s, kReplanWlans, sent_to, r);
  add_plan(r, plan);

  if (opts.trace) {
    const std::size_t chunk = n_overhead / 6;
    Report scratch;
    trace_overhead(r, "replan.plan", static_cast<double>(chunk),
                   [&](int c) {
                     for (std::size_t k = 0; k < chunk; ++k) {
                       (void)run_op(n_ops + c * chunk + k, scratch);
                     }
                   });
    r.check(scratch.failed == 0, "overhead chunks: failed replies");
  } else {
    add_setup(r, setup_s);
    rounds.report(r);
    add_ok_frac(r);
    r.metric("goodput_mbps", plan.goodput_mbps, "Mbps");
  }
  r.ctx("wlans", kReplanWlans);
  r.ctx("aps_per_wlan", kReplanAps);
  r.ctx("clients_per_wlan", kReplanClients);
  r.ctx("burst", kReplanBurst);
  r.ctx("workers", opts.workers);
  r.ctx("window", kWindow);
  r.ctx("state_dir", s->state_dir);
  r.ctx("state_dir_fs", fs_type(kWorkDir));
  r.ctx("state_dir_fdatasync_us", fdatasync_us(kWorkDir));
  r.ctx("epochs_total", static_cast<double>(plan.stats.epochs_total));
  return r;
}

}  // namespace perfbench
