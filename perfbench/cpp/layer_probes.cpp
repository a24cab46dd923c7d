// The traced run's per-layer metrics. Each probe calls one layer's
// public functions directly from here, on seed-derived inputs shaped
// like the workloads (the churn fleet's per-WLAN slices, the replan
// floors, the phy_sweep packets), and records a span per timed call.
// README.md maps every metric to the end-to-end metric it should move.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "baseband/channel.hpp"
#include "baseband/convolutional.hpp"
#include "baseband/fft.hpp"
#include "baseband/interleaver.hpp"
#include "baseband/phy_chain.hpp"
#include "baseband/qam.hpp"
#include "bench.hpp"
#include "core/controller.hpp"
#include "core/oracle_cache.hpp"
#include "core/width_switch.hpp"
#include "phy/rate_table.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/eventlog.hpp"
#include "service/shard.hpp"
#include "service/snapshot.hpp"
#include "service/sync_coordinator.hpp"
#include "sim/deployment_file.hpp"
#include "sim/netkernel.hpp"
#include "trace/load_gen.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace perfbench {

using namespace acorn;
using namespace acorn::service;

namespace {

constexpr int kProbeWlans = 16;
constexpr std::size_t kProbeEvents = 20000;

/// Time `fn` `reps` times; median seconds per call.
template <typename Fn>
double median_s(int reps, Fn fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

/// Keeps a computed value observable so the timed work is not elided.
std::atomic<std::uint64_t> g_sink{0};
void sink(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

/// The churn workloads' first WLANs: their floors and a trace of the
/// same generator and seed.
struct ChurnSlice {
  std::vector<std::string> floors;
  std::vector<Message> events;
};

ChurnSlice churn_slice(std::uint64_t seed) {
  ChurnSlice s;
  s.floors = churn_floors(kProbeWlans);
  for (const trace::LoadEvent& e :
       churn_trace(seed, kProbeWlans, kProbeEvents)) {
    s.events.push_back(to_message(e));
  }
  return s;
}

std::string replan_floor(int w) {
  return trace::synthetic_floor(16, 64,
                                kFloorSeed + static_cast<std::uint64_t>(w));
}

// ---- service.wire -------------------------------------------------------

struct WireCosts {
  double request_ns = 0.0;  // encode + decode of one request frame
  double reply_ns = 0.0;    // encode + decode of one reply frame
};

double decode_all_ns(const std::vector<std::vector<std::uint8_t>>& frames) {
  std::vector<std::uint8_t> stream;
  for (const auto& f : frames) stream.insert(stream.end(), f.begin(), f.end());
  const double s = median_s(5, [&] {
    FrameBuffer fb;
    std::uint64_t n = 0;
    for (std::size_t at = 0; at < stream.size(); at += 4096) {
      fb.append(stream.data() + at, std::min<std::size_t>(4096,
                                                          stream.size() - at));
      while (std::optional<Frame> f = fb.next()) n += f->seq;
    }
    sink(n);
  });
  return 1e9 * s / static_cast<double>(frames.size());
}

WireCosts probe_wire(const ChurnSlice& in, Report& r) {
  static const std::uint32_t kSpan = tracer().name_id("service.wire.probe");
  const ScopedSpan span(kSpan, 0);
  std::vector<std::vector<std::uint8_t>> requests(in.events.size());
  std::vector<std::vector<std::uint8_t>> replies(in.events.size());
  const double enc_s = median_s(5, [&] {
    for (std::size_t i = 0; i < in.events.size(); ++i) {
      requests[i] = encode_frame(static_cast<std::uint32_t>(i + 1),
                                 in.events[i]);
    }
  });
  const double reply_enc_s = median_s(5, [&] {
    for (std::size_t i = 0; i < in.events.size(); ++i) {
      replies[i] = encode_frame(static_cast<std::uint32_t>(i + 1),
                                OkReply{static_cast<std::int32_t>(i % 3)});
    }
  });
  const double n = static_cast<double>(in.events.size());
  const double encode_ns = 1e9 * enc_s / n;
  const double decode_ns = decode_all_ns(requests);
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    bytes += requests[i].size() + replies[i].size();
  }
  r.metric("service.wire.encode_ns", encode_ns, "ns");
  r.metric("service.wire.decode_ns", decode_ns, "ns");
  r.metric("service.wire.bytes_per_op", static_cast<double>(bytes) / n,
           "bytes");
  WireCosts c;
  c.request_ns = encode_ns + decode_ns;
  c.reply_ns = 1e9 * reply_enc_s / n + decode_all_ns(replies);
  return c;
}

// ---- service.shard + util.executor --------------------------------------

/// Completion sink for directly driven shards: the time each job's
/// reply was posted, indexed by the job's conn_id.
class Completions {
 public:
  explicit Completions(std::size_t n) : at_(n) {}
  void post(std::uint64_t id) {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    at_[id] = now;
    ++done_;
    cv_.notify_all();
  }
  void wait_for(std::size_t total) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ >= total; });
  }
  Clock::time_point at(std::size_t id) {
    const std::lock_guard<std::mutex> lock(mu_);
    return at_[id];
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Clock::time_point> at_;
  std::size_t done_ = 0;
};

std::unique_ptr<WlanShard> make_shard(util::PooledExecutor& exec,
                                      std::uint32_t id,
                                      const std::string& floor,
                                      Completions& done) {
  ShardOptions so;
  so.epoch_s = 0.0;
  so.executor = &exec;
  WlanSnapshot st;
  st.wlan_id = id;
  st.deployment = floor;
  auto shard = std::make_unique<WlanShard>(
      so, st,
      [&done](std::uint64_t conn, Clock::time_point,
              std::vector<std::uint8_t>) { done.post(conn); });
  shard->start();
  return shard;
}

WlanShard::Job job(std::uint64_t id, Message msg) {
  WlanShard::Job j;
  j.conn_id = id;
  j.seq = static_cast<std::uint32_t>(id + 1);
  j.t0 = Clock::now();
  j.msg = std::move(msg);
  return j;
}

/// Mean apply cost (us) over the churn mix, for the daemon's
/// unattributed share.
double probe_shard(const Options& opts, const ChurnSlice& in, Report& r) {
  static const std::uint32_t kSpan = tracer().name_id("service.shard.batch");
  util::PooledExecutor exec(1);
  const std::size_t n = in.events.size();
  Completions done(n + 4096);
  std::size_t submitted = 0;

  // apply_us per kind: each WLAN's slice submitted as one batch to an
  // idle shard; consecutive completion gaps are the amortised apply
  // cost of each job.
  std::map<std::string, std::pair<double, std::size_t>> per_kind;
  double all_us = 0.0;
  std::size_t all_n = 0;
  for (std::uint32_t w = 1; w <= kProbeWlans; ++w) {
    auto shard = make_shard(exec, w, in.floors[w - 1], done);
    std::vector<std::size_t> ids;
    const std::size_t first = submitted;
    const ScopedSpan span(kSpan, w);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (std::visit([](const auto& m) {
            if constexpr (requires { m.wlan_id; }) return m.wlan_id;
            return 0u;
          }, in.events[i]) != w) {
        continue;
      }
      ids.push_back(i);
      shard->submit(job(submitted++, in.events[i]));
    }
    done.wait_for(submitted);
    Clock::time_point prev = t0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const Clock::time_point t = done.at(first + k);
      const double us = us_between(prev, t);
      prev = t;
      if (k == 0) continue;  // includes the idle shard's wake-up
      const Message& m = in.events[ids[k]];
      const char* kind = std::holds_alternative<ClientJoin>(m)    ? "join"
                         : std::holds_alternative<ClientLeave>(m) ? "leave"
                         : std::holds_alternative<SnrUpdate>(m)   ? "snr"
                                                                  : "load";
      per_kind[kind].first += us;
      ++per_kind[kind].second;
      all_us += us;
      ++all_n;
    }
    shard->stop();
  }
  for (const char* kind : {"join", "leave", "snr", "load"}) {
    const auto& [us, count] = per_kind[kind];
    r.metric(std::string("service.shard.apply_us.") + kind,
             count ? us / static_cast<double>(count) : 0.0, "us");
  }

  // util.executor wake: one cheap message to an idle shard.
  {
    auto shard = make_shard(exec, 1, in.floors[0], done);
    std::vector<double> wake;
    for (int i = 0; i < 200; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      const Clock::time_point t0 = Clock::now();
      const std::size_t id = submitted++;
      shard->submit(job(id, LoadUpdate{1, 0, 0.5}));
      done.wait_for(submitted);
      wake.push_back(us_between(t0, done.at(id)));
    }
    shard->stop();
    r.metric("util.executor.wake_us", median(std::move(wake)), "us");
  }

  // epoch_ms on a replan-shaped shard: joins, then SNR bursts + plans.
  {
    auto shard = make_shard(exec, 1, replan_floor(0), done);
    for (std::uint32_t c = 0; c < 64; ++c) {
      shard->submit(job(submitted++, ClientJoin{1, c}));
    }
    shard->submit(job(submitted++, ForceReconfigure{1}));
    done.wait_for(submitted);
    util::Rng rng(opts.seed ^ 0x5a4d);
    std::vector<double> epoch_ms;
    for (int k = 0; k < 12; ++k) {
      for (int b = 0; b < 16; ++b) {
        shard->submit(job(submitted++,
                          SnrUpdate{1,
                                    static_cast<std::uint32_t>(
                                        rng.uniform_int(0, 15)),
                                    static_cast<std::uint32_t>(
                                        rng.uniform_int(0, 63)),
                                    rng.uniform(65.0, 95.0)}));
      }
      done.wait_for(submitted);
      const Clock::time_point t0 = Clock::now();
      const std::size_t id = submitted++;
      shard->submit(job(id, ForceReconfigure{1}));
      done.wait_for(submitted);
      epoch_ms.push_back(us_between(t0, done.at(id)) / 1e3);
    }
    shard->stop();
    r.metric("service.shard.epoch_ms", median(std::move(epoch_ms)), "ms");
  }
  return all_n ? all_us / static_cast<double>(all_n) : 0.0;
}

// ---- service.daemon -----------------------------------------------------

void probe_daemon(const Options& opts, const ChurnSlice& in,
                  const WireCosts& wire, double apply_us, Report& r) {
  static const std::uint32_t kRoot =
      tracer().name_id("service.daemon.roundtrip");
  const std::unique_ptr<Service> s = start_service(opts, "probe", false);
  register_all(*s, in.floors, r);
  Report calls;
  const StatsReply before = std::get<StatsReply>(s->client.call(QueryStats{}));
  std::vector<double> us;
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    us.push_back(round_trip(s->client, in.events[i], kRoot, i, calls));
  }
  const StatsReply after = std::get<StatsReply>(s->client.call(QueryStats{}));
  s->shutdown();
  r.check(calls.failed == 0, "daemon probe: failed replies");

  const double n = static_cast<double>(us.size());
  const double p50 = percentile(us, 0.5);
  r.metric("service.daemon.roundtrip_p50_us", p50, "us");
  r.metric("service.daemon.roundtrip_p99_us", percentile(us, 0.99), "us");
  r.metric("service.daemon.roundtrip_p99_count", n - std::ceil(0.99 * n),
           "count");
  r.metric("service.daemon.frames_rx",
           static_cast<double>(after.frames_rx - before.frames_rx), "count");
  r.metric("service.daemon.protocol_errors",
           static_cast<double>(after.protocol_errors - before.protocol_errors),
           "count");
  // The stages the benchmark can price on their own: wire codec both
  // ways and the shard's apply. The rest is socket, poll loop, mailbox
  // handoff and waiting.
  const double stages_us = (wire.request_ns + wire.reply_ns) / 1e3 + apply_us;
  r.metric("service.daemon.stages_us", stages_us, "us");
  r.metric("service.daemon.unattributed_us", p50 - stages_us, "us");
}

// ---- core, sim, phy, service.snapshot ------------------------------------

void probe_core(const Options& opts, Report& r) {
  static const std::uint32_t kAlloc = tracer().name_id("core.alloc.allocate");
  std::vector<double> build_ms, probe_us, oracle_ms, snap_us, alloc_ms,
      batch_ns, width_us, enc_us, write_us;
  double cell_hits = 0, cell_base = 0, share_hits = 0, share_base = 0;
  std::int64_t evaluations = 0;
  int switches = 0;
  int changes = 0;
  std::size_t snap_bytes = 0;
  double table_ms = 0.0;
  std::uint64_t table_probes = 0;
  const std::string snap_dir = kWorkDir + "/" +
                               std::to_string(::getpid()) + "-snapshots";
  remove_tree(snap_dir);
  std::filesystem::create_directories(snap_dir);

  for (int w = 0; w < 4; ++w) {
    const std::string text = replan_floor(w);
    Clock::time_point t0 = Clock::now();
    const sim::DeploymentSpec spec = sim::parse_deployment(text);
    sim::Wlan wlan = spec.build();
    build_ms.push_back(1e3 * seconds_since(t0));

    core::AcornConfig cfg;
    cfg.plan = net::ChannelPlan(spec.num_channels);
    const core::AcornController ctl(cfg);
    const int n_aps = wlan.topology().num_aps();
    const int n_clients = wlan.topology().num_clients();
    util::Rng rng(opts.seed * 31ull + static_cast<std::uint64_t>(w));
    const net::ChannelAssignment initial =
        ctl.allocation_module().random_assignment(n_aps, rng);
    net::Association assoc(static_cast<std::size_t>(n_clients),
                           net::kUnassociated);
    for (int u = 0; u < n_clients; ++u) {
      t0 = Clock::now();
      (void)ctl.associate_client(wlan, assoc, initial, u);
      probe_us.push_back(us_between(t0, Clock::now()));
    }

    t0 = Clock::now();
    const core::CachedOracle oracle(wlan, assoc);
    oracle_ms.push_back(1e3 * seconds_since(t0));
    snap_us.push_back(1e6 * median_s(5, [&] {
      const sim::NetSnapshot snap(wlan, assoc);
      sink(static_cast<std::uint64_t>(snap.graph().num_aps()));
    }));

    core::AllocationResult res;
    {
      const ScopedSpan span(kAlloc, static_cast<std::uint64_t>(w));
      t0 = Clock::now();
      res = ctl.allocation_module().allocate(wlan, assoc, initial, oracle);
      alloc_ms.push_back(1e3 * seconds_since(t0));
    }
    evaluations += res.evaluations;
    switches += res.switches;
    const core::OracleCacheStats os = oracle.stats();
    cell_hits += static_cast<double>(os.cell_hits);
    cell_base += static_cast<double>(os.cell_hits + os.cell_evals);
    share_hits += static_cast<double>(os.share_hits);
    share_base += static_cast<double>(os.share_hits + os.share_evals);

    std::vector<core::FlipCandidate> cands;
    for (int ap = 0; ap < n_aps; ++ap) {
      for (const net::Channel& ch : cfg.plan.all_channels()) {
        cands.push_back(core::FlipCandidate{ap, ch});
      }
    }
    std::vector<double> out(cands.size());
    batch_ns.push_back(1e9 * median_s(5, [&] {
      oracle.total_bps_batch(res.assignment, cands, out);
    }) / static_cast<double>(cands.size()));

    for (int ap = 0; ap < n_aps; ++ap) {
      if (!res.assignment[static_cast<std::size_t>(ap)].is_bonded()) continue;
      const std::vector<int> clients = wlan.clients_of(assoc, ap);
      t0 = Clock::now();
      const core::WidthDecision d = core::decide_width(
          wlan, ap, clients, oracle.graph(), res.assignment);
      width_us.push_back(us_between(t0, Clock::now()));
      sink(static_cast<std::uint64_t>(d.width));
    }

    // SNR drift on 16 links, then the epoch's re-probe of those clients.
    std::vector<int> dirty;
    for (int k = 0; k < 16; ++k) {
      const int ap = static_cast<int>(rng.uniform_int(0, n_aps - 1));
      const int c = static_cast<int>(rng.uniform_int(0, n_clients - 1));
      wlan.budget().set_ap_client_loss_db(ap, c, rng.uniform(65.0, 95.0));
      dirty.push_back(c);
    }
    for (const int c : dirty) {
      const std::size_t ci = static_cast<std::size_t>(c);
      const int before = assoc[ci];
      if (before == net::kUnassociated) continue;
      assoc[ci] = net::kUnassociated;
      if (!ctl.associate_client(wlan, assoc, res.assignment, c)) {
        assoc[ci] = before;
      }
      changes += assoc[ci] != before;
    }

    WlanSnapshot snap;
    snap.wlan_id = static_cast<std::uint32_t>(w + 1);
    snap.epoch = 1;
    snap.events_applied = static_cast<std::uint64_t>(n_clients + 1);
    snap.deployment = text;
    snap.association = assoc;
    snap.allocated = res.assignment;
    snap.operating = res.assignment;
    std::vector<std::uint8_t> bytes;
    enc_us.push_back(1e6 * median_s(20, [&] { bytes = encode_snapshot(snap); }));
    snap_bytes += bytes.size();
    write_us.push_back(1e6 * median_s(10, [&] {
      if (!write_snapshot(snap_dir, snap)) {
        r.check(false, "write_snapshot failed");
      }
    }));

    if (w == 0) {
      for (const phy::ChannelWidth width :
           {phy::ChannelWidth::k20MHz, phy::ChannelWidth::k40MHz}) {
        t0 = Clock::now();
        const phy::RateTable table(wlan.link_model(), width,
                                   phy::GuardInterval::kLong800ns);
        table_ms += 1e3 * seconds_since(t0);
        table_probes += table.construction_goodput_probes();
      }
    }
  }
  remove_tree(snap_dir);

  r.metric("core.assoc.probe_us", median(probe_us), "us");
  r.metric("core.assoc.changes", changes, "count");
  r.metric("core.alloc.ms", median(alloc_ms), "ms");
  r.metric("core.alloc.evaluations", static_cast<double>(evaluations), "count");
  r.metric("core.alloc.switches", switches, "count");
  r.metric("core.oracle.build_ms", median(oracle_ms), "ms");
  r.metric("core.oracle.cell_hit_ratio",
           cell_base > 0 ? cell_hits / cell_base : 0.0, "frac");
  r.metric("core.oracle.cell_hit_base", cell_base, "count");
  r.metric("core.oracle.share_hit_ratio",
           share_base > 0 ? share_hits / share_base : 0.0, "frac");
  r.metric("core.oracle.share_hit_base", share_base, "count");
  r.metric("core.width.decide_us", median(width_us), "us");
  r.metric("sim.netkernel.batch_ns_per_candidate", median(batch_ns), "ns");
  r.metric("sim.netkernel.snapshot_build_us", median(snap_us), "us");
  r.metric("sim.wlan.build_ms", median(build_ms), "ms");
  r.metric("phy.rate_table.build_ms", table_ms, "ms");
  r.metric("phy.rate_table.probes", static_cast<double>(table_probes),
           "count");
  r.metric("service.snapshot.encode_us", median(enc_us), "us");
  r.metric("service.snapshot.write_us", median(write_us), "us");
  r.metric("service.snapshot.bytes", static_cast<double>(snap_bytes) / 4.0,
           "bytes");
}

// ---- service.wal --------------------------------------------------------

void probe_wal(const Options& opts, const ChurnSlice& in, Report& r) {
  const std::string dir = kWorkDir + "/" + std::to_string(::getpid()) +
                          "-wal";
  remove_tree(dir);
  std::filesystem::create_directories(dir);
  r.metric("service.wal.fdatasync_us", fdatasync_us(dir, 64), "us");

  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    payloads.push_back(
        encode_payload(static_cast<std::uint32_t>(i + 1), in.events[i]));
  }
  {
    WalSegmentWriter writer;
    if (!writer.open(dir, 1)) throw std::runtime_error("cannot open segment");
    std::uint64_t bytes = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      bytes += encode_segment_record(1, i + 1, payloads[i]).size();
      writer.append(1, i + 1, payloads[i]);
    }
    const double s = seconds_since(t0);
    sink(bytes);
    r.check(writer.sync(), "segment sync failed");
    r.metric("service.wal.append_ns_per_record",
             1e9 * s / static_cast<double>(payloads.size()), "ns");
  }

  // SyncCoordinator::submit -> on_durable, one batch at a time.
  {
    ServiceMetrics metrics;
    SyncCoordinator::Options co;
    co.dir = dir + "/coord";
    co.metrics = &metrics;
    std::filesystem::create_directories(co.dir);
    SyncCoordinator coord(co);
    coord.start();
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      std::promise<void> durable;
      CommitBatch b;
      b.wlan_id = 1;
      b.records.push_back(WalRecord{static_cast<std::uint64_t>(i + 1),
                                    payloads[static_cast<std::size_t>(i)]});
      b.post = [](std::uint64_t, Clock::time_point,
                  std::vector<std::uint8_t>) {};
      b.on_durable = [&durable] { durable.set_value(); };
      std::future<void> f = durable.get_future();
      const Clock::time_point t0 = Clock::now();
      coord.submit(std::move(b));
      f.wait();
      us.push_back(us_between(t0, Clock::now()));
    }
    coord.stop();
    r.metric("service.wal.commit_us", median(std::move(us)), "us");
  }

  // Group commit under the churn mix: a durable daemon, pipelined.
  {
    const std::unique_ptr<Service> s = start_service(opts, "probe-wal", true);
    register_all(*s, in.floors, r);
    Report calls;
    const StatsReply before =
        std::get<StatsReply>(s->client.call(QueryStats{}));
    pipeline(s->client, in.events, 0, in.events.size(), calls);
    const StatsReply st = std::get<StatsReply>(s->client.call(QueryStats{}));
    s->shutdown();
    r.check(calls.failed == 0, "durable probe: failed replies");
    const double syncs = static_cast<double>(st.wal_syncs - before.wal_syncs);
    const double records = static_cast<double>(st.wal_coalesced_events -
                                               before.wal_coalesced_events);
    r.metric("service.wal.events_per_sync", syncs > 0 ? records / syncs : 0.0,
             "count");
    r.metric("service.wal.records", records, "count");
    r.metric("service.wal.syncs", syncs, "count");
    r.metric("service.wal.sync_us_p50",
             latency_percentile_us(st.wal_sync_us_log2, 0.5), "us");
  }
  remove_tree(dir);
}

// ---- baseband -----------------------------------------------------------

void probe_baseband(const Options& opts, Report& r) {
  using baseband::Cx;
  util::Rng rng(opts.seed ^ 0xbb);
  constexpr std::size_t kBits = 1500 * 8;
  const phy::Modulation mod = phy::Modulation::kQam16;  // MCS 4
  const phy::ChannelWidth width = phy::ChannelWidth::k20MHz;

  double fft_ns[2] = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    const std::size_t n = k == 0 ? 64 : 128;
    const baseband::FftPlan& plan = baseband::fft_plan(n);
    std::vector<Cx> data(n);
    for (Cx& x : data) x = Cx(rng.normal(), rng.normal());
    constexpr int kIters = 5000;
    fft_ns[k] = 1e9 * median_s(5, [&] {
      for (int i = 0; i < kIters; ++i) {
        plan.forward(data);
        plan.inverse(data);
      }
    }) / (2.0 * kIters);
  }
  r.metric("baseband.fft64_ns", fft_ns[0], "ns");
  r.metric("baseband.fft128_ns", fft_ns[1], "ns");

  std::vector<std::uint8_t> bits(kBits);
  rng.fill_bits(bits);
  const std::size_t k_bits = static_cast<std::size_t>(phy::bits_per_symbol(mod));
  std::vector<Cx> symbols(kBits / k_bits);
  std::vector<std::uint8_t> demapped(kBits);
  const double qam_ns = 1e9 * median_s(21, [&] {
    baseband::qam_modulate_into(bits, mod, symbols);
    baseband::qam_demodulate_into(symbols, mod, demapped);
  }) / static_cast<double>(symbols.size());
  r.check(demapped == bits, "QAM round trip changed the bits");
  r.metric("baseband.qam_ns_per_symbol", qam_ns, "ns");

  const baseband::ConvolutionalCode code;
  std::vector<std::uint8_t> coded(
      baseband::ConvolutionalCode::encoded_length(kBits));
  const double enc_ns = 1e9 * median_s(21, [&] {
    code.encode_into(bits, coded);
  }) / static_cast<double>(kBits);
  r.metric("baseband.conv_encode_ns_per_bit", enc_ns, "ns");
  std::vector<std::uint8_t> decoded(kBits);
  baseband::ViterbiWorkspace ws;
  const double vit_ns = 1e9 * median_s(9, [&] {
    code.decode_into(coded, decoded, ws);
  }) / static_cast<double>(kBits);
  r.check(decoded == bits, "Viterbi did not invert the encoder");
  r.metric("baseband.viterbi_ns_per_bit", vit_ns, "ns");

  const baseband::BlockInterleaver il =
      baseband::BlockInterleaver::for_ht(width, mod);
  const auto block = static_cast<std::size_t>(il.block_size());
  const std::size_t n_blocks = (kBits * 2 + block - 1) / block;
  std::vector<std::uint8_t> stream(n_blocks * block), inter(stream.size()),
      back(stream.size());
  rng.fill_bits(stream);
  const double il_ns = 1e9 * median_s(21, [&] {
    il.interleave_stream_into(stream, inter);
    il.deinterleave_stream_into(inter, back);
  }) / static_cast<double>(n_blocks);
  r.check(back == stream, "deinterleave did not invert interleave");
  r.metric("baseband.interleave_ns_per_symbol", il_ns, "ns");

  baseband::ChannelConfig cc;
  cc.sample_rate_hz = phy::width_hz(width);
  cc.path_loss_db = 88.0;
  cc.num_taps = 3;
  baseband::FadingChannel channel(cc, rng);
  std::vector<Cx> tx(80 * 80), rx(tx.size() + 2);
  for (Cx& x : tx) x = Cx(rng.normal(), rng.normal());
  const double ch_ns = 1e9 * median_s(21, [&] {
    channel.transmit_into(tx, rx, rng);
  }) / static_cast<double>(tx.size());
  r.metric("baseband.channel_ns_per_sample", ch_ns, "ns");

  // The span root: whole packets at MCS 4 / 20 MHz, and the part of a
  // packet the stage probes above do not price (scrambler, puncturing,
  // OFDM mapping and equalisation, allocation).
  static const std::uint32_t kRoot = tracer().name_id("baseband.packet.probe");
  baseband::PhyChainConfig pc;
  pc.mcs_index = 4;
  pc.width = width;
  pc.path_loss_db = 88.0;
  std::vector<double> packet_us;
  for (std::uint64_t p = 0; p < 48; ++p) {
    util::Rng prng = util::Rng::derive_stream(opts.seed ^ 0xbb, p);
    prng.fill_bits(bits);
    channel.redraw(prng);
    const ScopedSpan span(kRoot, p);
    const Clock::time_point t0 = Clock::now();
    sink(baseband::phy_chain_roundtrip(pc, bits, channel, prng).size());
    packet_us.push_back(us_between(t0, Clock::now()));
  }
  const double pkt = median(std::move(packet_us));
  // MCS 4: rate 3/4 keeps 2/3 of the 2 x (bits + 6) mother-code bits,
  // over 208-bit OFDM symbols of 52 QAM symbols; 80 samples and one FFT
  // each way per OFDM symbol.
  const double coded_bits = (kBits + 6) * 4.0 / 3.0;
  const double n_sym = std::ceil(coded_bits / static_cast<double>(block));
  const double stages_us =
      (enc_ns * kBits + vit_ns * kBits + qam_ns * n_sym * 52.0 +
       il_ns * n_sym + fft_ns[0] * 2.0 * n_sym + ch_ns * n_sym * 80.0) /
      1e3;
  r.metric("baseband.packet_us", pkt, "us");
  r.metric("baseband.stages_us", stages_us, "us");
  r.metric("baseband.unattributed_us", pkt - stages_us, "us");
}

}  // namespace

void run_layer_probes(const Options& opts, Report& r) {
  const Clock::time_point t0 = Clock::now();
  const ChurnSlice slice = churn_slice(opts.seed);
  const WireCosts wire = probe_wire(slice, r);
  const double apply_us = probe_shard(opts, slice, r);
  probe_daemon(opts, slice, wire, apply_us, r);
  probe_core(opts, r);
  probe_wal(opts, slice, r);
  probe_baseband(opts, r);
  r.ctx("layer_probes_s", seconds_since(t0));
}

}  // namespace perfbench
