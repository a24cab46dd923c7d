// Per-WLAN shard worker of acornd.
//
// Each registered WLAN gets one shard: a single-writer task owning the
// Wlan model, the live association and channel assignment, and an
// incremental CachedOracle. A started shard runs as a
// util::PooledExecutor task: one of M pooled workers drains its mailbox
// per scheduling pass and the executor's central timer wheel drives its
// epoch deadline; a cheap event that finds the shard idle may instead be
// applied on the submitting thread (run_or_submit, acornd's poll loop).
// A shard that is constructed but never started is a
// plain single-threaded replay of its snapshot + WAL records — the
// path recovery runs. Protocol events (join/leave/SNR/load) are applied
// immediately — Algorithm 1 associates a joining client on the spot —
// while the expensive work (Algorithm 2 channel re-allocation plus the
// opportunistic width fallback of core/width_switch) runs in periodic
// *reconfiguration epochs*, so a burst of events costs one epoch, not
// one full recompute per event. An epoch also re-probes — through the
// same Algorithm 1 trial association — exactly those clients whose
// links changed since the previous epoch (SNR updates mark them dirty),
// so mobility drives incremental re-association rather than a full
// re-association sweep.
//
// The CachedOracle/NetSnapshot pair is reused across epochs and config
// queries for as long as the association and link budget are unchanged;
// any state-changing event invalidates it (the snapshot's precomputed
// SNRs would be stale) and the next epoch rebuilds it once.
//
// Epoch hysteresis: Algorithm 2 already stops below the paper's 5%
// aggregate-improvement epsilon; the width fallback adds its own — a
// bonded AP switches its operating width only when the alternative wins
// by `width_hysteresis` (default 1.05), so a client hovering at the
// 20/40 crossover cannot make the AP flap every epoch.
//
// Durability: when a state directory is configured, the shard writes a
// versioned snapshot (write-temp + fsync + atomic rename) at the end of
// every epoch and once more on clean shutdown; see snapshot.hpp. The
// events *between* epochs are covered by a per-shard write-ahead log
// (eventlog.hpp): every applied mutating message is appended to the log
// and its reply is withheld until a group-commit fsync — issued when
// the mailbox drains, or after `wal_flush_us` under sustained backlog,
// so a pipelined burst pays one fsync, not one per event. A failed
// fsync withholds the batch and retries after a backoff; only after
// repeated failures is the WAL disabled (loudly), downgrading the
// shard to non-durable operation rather than hanging its clients. The
// epoch snapshot supersedes the
// log, which is truncated right after a successful snapshot write.
// Recovery = snapshot + replay of the log suffix (records whose ordinal
// exceeds the snapshot's events_applied) through apply_locked; the
// deterministic pipeline makes the result byte-identical to the
// pre-crash state.
//
// Followers: a connection subscribed via FollowLog is attached to every
// shard. On attach the shard emits its full state as a SnapshotFrame;
// afterwards every durable record is forwarded as a LogRecordFrame (in
// fsync batches, so a follower only ever sees acknowledged events).
// Epochs the timer starts internally are logged and forwarded as
// synthesized ForceReconfigure records, keeping replay and followers
// deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "core/controller.hpp"
#include "core/oracle_cache.hpp"
#include "service/eventlog.hpp"
#include "service/metrics.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "sim/deployment_file.hpp"
#include "util/worker_pool.hpp"

namespace acorn::service {

class SyncCoordinator;

struct ShardOptions {
  /// Reconfiguration period; <= 0 disables the timer (epochs then run
  /// only on ForceReconfigure and shutdown).
  double epoch_s = 1.0;
  /// Required advantage factor before the width fallback switches a
  /// bonded AP's operating width.
  double width_hysteresis = 1.05;
  /// Snapshot + WAL directory; empty disables persistence.
  std::string state_dir;
  /// Group-commit bound in microseconds: replies to logged events are
  /// withheld until the WAL fsyncs. The shard syncs as soon as its
  /// mailbox drains (an idle sync costs no batching opportunity);
  /// under a sustained backlog this bounds how long records may sit
  /// unflushed before a mid-backlog sync (0 = sync per event).
  std::uint32_t wal_flush_us = 200;
  /// Emit a one-line epoch summary to stderr.
  bool log_epochs = false;
  /// The executor a started shard runs on (one of its M workers drains
  /// the mailbox per pass); start() requires it. A shard that is never
  /// started needs none. The executor must outlive the shard's stop().
  util::PooledExecutor* executor = nullptr;
  /// When set, every reconfiguration epoch's wall time is recorded here
  /// (daemon-wide percentiles for --log and stats consumers).
  LatencyHistogram* epoch_latency = nullptr;
  /// Shared-WAL mode: when set, the shard never opens a private WAL
  /// file — it packages records + withheld replies into CommitBatches
  /// for this coordinator's fleet-wide group commit, and reports
  /// snapshot checkpoints for segment retirement. The coordinator must
  /// outlive the shard's stop(). Null keeps the per-shard WAL.
  SyncCoordinator* coordinator = nullptr;
  /// Group-commit observability (wal_syncs / coalesced events / sync
  /// latency). Per-shard mode records here on every local fsync; in
  /// shared mode the coordinator owns the recording.
  ServiceMetrics* metrics = nullptr;
};

/// Shard-local counters, aggregated into the daemon's StatsReply.
struct ShardCounters {
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_flushes = 0;
  std::uint64_t channel_switches = 0;
  std::uint64_t width_switches = 0;
  std::uint64_t assoc_changes = 0;
  /// Oracle evaluations spent in Algorithm 2 (64-bit at the source;
  /// clamped non-negative when folded in from AllocationResult).
  std::uint64_t alloc_evaluations = 0;
  std::uint64_t oracle_cell_evals = 0;
  std::uint64_t oracle_cell_hits = 0;
  std::uint64_t oracle_share_evals = 0;
  std::uint64_t oracle_share_hits = 0;
  double last_epoch_ms = 0.0;
};

class WlanShard : public util::PooledExecutor::Task {
 public:
  struct Job {
    enum class Kind {
      kMessage,
      kAttachFollower,  // conn_id subscribes: snapshot now, records after
      kDetachFollower,  // conn_id went away
    };
    Kind kind = Kind::kMessage;
    std::uint64_t conn_id = 0;
    std::uint32_t seq = 0;
    std::chrono::steady_clock::time_point t0;
    Message msg;
  };
  /// Invoked (from the shard's worker) with the encoded reply frame.
  using CompletionFn = std::function<void(
      std::uint64_t conn_id, std::chrono::steady_clock::time_point t0,
      std::vector<std::uint8_t> reply_frame)>;

  /// Build from registration or recovery state (`state.association`
  /// empty means a fresh WLAN: everyone unassociated, channels seeded
  /// deterministically from the deployment's RNG seed), then replay the
  /// WAL suffix (`replay` records whose seq exceeds the snapshot's
  /// events_applied, applied through apply_locked). Throws
  /// std::invalid_argument on a malformed deployment or snapshot.
  WlanShard(ShardOptions options, WlanSnapshot state, CompletionFn post,
            std::vector<WalRecord> replay = {});
  ~WlanShard();

  WlanShard(const WlanShard&) = delete;
  WlanShard& operator=(const WlanShard&) = delete;

  /// Checkpoints the current state (snapshot write + WAL truncate, so a
  /// fresh registration or a finished recovery is durable immediately),
  /// then attaches to options.executor. Throws std::invalid_argument
  /// when the executor is null.
  void start();
  /// Detaches from the executor, drains pending jobs on the caller's
  /// thread, flushes withheld replies and writes a final snapshot.
  void stop();

  void submit(Job job);
  /// submit() for a caller that holds no other request from the same
  /// client (acornd's poll loop when the frame is the last one it has
  /// buffered): a cheap event on an idle shard is applied on the calling
  /// thread through PooledExecutor::run_inline — no worker hand-off, no
  /// wake-up. Everything else, and every shard whose pass could fsync
  /// (per-shard WAL) or is busy, takes the submit() route.
  void run_or_submit(Job job);

  std::uint32_t id() const { return wlan_id_; }
  ShardCounters counters() const;
  /// Current durable state (what the next snapshot would contain).
  WlanSnapshot state_snapshot() const;

 private:
  /// PooledExecutor::Task: one scheduling pass — drain the mailbox,
  /// bounded per pass for fairness, and return the next deadline (epoch
  /// timer or WAL retry) for the executor's timer wheel.
  std::chrono::steady_clock::time_point run_pass() override;
  /// PooledExecutor::Task: the caller's-thread pass. Applies only cheap
  /// events (see runs_inline) and never an epoch, a follower snapshot or
  /// an fsync: when an epoch is due or anything else is queued it
  /// returns min(), and a worker runs the rest.
  std::chrono::steady_clock::time_point run_inline_pass() override;
  /// Join, leave, SNR and load messages: one Algorithm 1 probe at most.
  static bool runs_inline(const Job& job);
  /// Drain the remaining mailbox on the caller's thread (stop(), after
  /// the executor detach).
  void drain_inline();
  void process(Job& job);
  Message apply_locked(const Message& msg);
  void publish_counters_locked();
  void run_epoch();
  void run_epoch_locked();
  void ensure_oracle();
  void invalidate_oracle();
  void write_state_snapshot();
  bool write_snapshot_locked();
  WlanSnapshot build_snapshot_locked() const;
  std::vector<int> clients_of_locked(int ap) const;
  /// True for the message types the WAL records (state mutators).
  static bool loggable(const Message& msg);
  /// Mode dispatch: flush_wal (per-shard WAL) or flush_shared (shared
  /// segments via the SyncCoordinator).
  void flush(bool need_sync, bool final = false);
  /// Release withheld replies + forward durable records to followers.
  /// `need_sync` false when a snapshot already made everything durable.
  /// On fsync failure nothing is released or forwarded (followers must
  /// only see durable events): the flush retries after a backoff, and
  /// only after repeated failures is the WAL disabled — loudly — so
  /// replies and followers are not withheld forever on a dead disk.
  /// `final` (shutdown) skips the retries and always releases.
  void flush_wal(bool need_sync, bool final = false);
  /// Shared-mode counterpart: hands the pending records/replies to the
  /// coordinator as one CommitBatch (released on its commit thread, in
  /// submission order). With nothing in flight and no sync needed, the
  /// batch short-circuits to a direct release; otherwise even a no-sync
  /// release rides the queue so replies cannot overtake an in-flight
  /// batch. `final` (shutdown) waits for every in-flight batch.
  void flush_shared(bool need_sync, bool final = false);
  /// Post pending records to followers + pending replies, in order, on
  /// the calling thread (the tail of flush_wal, shared by the
  /// shared-mode short-circuit).
  void release_pending();
  /// Blocks until the coordinator has released every batch this shard
  /// submitted (shutdown: the shard must outlive its in-flight hooks).
  void wait_shared_drain();
  bool shared_mode() const { return options_.coordinator != nullptr; }
  bool shared_inflight() const {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    return commits_inflight_ > 0;
  }
  std::chrono::steady_clock::time_point flush_deadline() const;

  const ShardOptions options_;
  const std::uint32_t wlan_id_;
  const std::string deployment_text_;

  // Model + controller state; guarded by state_mutex_ (the shard's pass
  // writes, stats/state queries from other threads read).
  mutable std::mutex state_mutex_;
  sim::DeploymentSpec spec_;
  sim::Wlan wlan_;
  core::AcornController controller_;
  net::Association assoc_;
  std::vector<net::Channel> allocated_;
  std::vector<net::Channel> operating_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> loss_overrides_;
  std::map<std::uint32_t, double> loads_;
  /// Clients whose links changed since the last epoch; each gets an
  /// Algorithm 1 re-association probe when the next epoch runs.
  std::set<int> dirty_clients_;
  std::uint64_t epoch_ = 0;
  std::uint64_t events_applied_ = 0;
  ShardCounters counters_;
  std::shared_ptr<core::CachedOracle> oracle_;

  // Copy of counters_ (+ live oracle stats) republished after every
  // event/epoch so counters() never waits on an in-progress epoch.
  mutable std::mutex counters_mutex_;
  ShardCounters published_counters_;

  CompletionFn post_;

  // Write-ahead log + group-commit state. Everything below is touched
  // only from the shard's pass (construction/start/stop excepted, when
  // no worker is running), so it needs no lock of its own.
  WalWriter wal_;
  /// events_applied_ value the newest on-disk snapshot covers; records
  /// with seq <= this are redundant and are not appended.
  std::uint64_t wal_base_seq_ = 0;
  struct PendingReply {
    std::uint64_t conn_id = 0;
    std::chrono::steady_clock::time_point t0;
    std::vector<std::uint8_t> frame;
  };
  /// Replies withheld until the records they acknowledge are durable
  /// (WAL fsync or snapshot). FIFO, so per-connection order holds even
  /// for interleaved non-logged requests.
  std::vector<PendingReply> pending_replies_;
  /// Durable-records-in-waiting for follower forwarding.
  std::vector<WalRecord> pending_records_;
  std::uint64_t pending_max_seq_ = 0;
  bool wal_dirty_ = false;
  std::chrono::steady_clock::time_point first_unflushed_;
  /// Consecutive failed WAL fsyncs; past a small bound the log is
  /// disabled instead of withholding replies forever on a sick disk.
  std::uint32_t wal_sync_failures_ = 0;
  /// No flush retry before this instant (set after a failed fsync so a
  /// sick disk is not hammered in a tight loop).
  std::chrono::steady_clock::time_point wal_retry_after_{};
  /// Records appended since the last successful local fsync (per-shard
  /// mode batch-size observability).
  std::uint64_t wal_unsynced_records_ = 0;
  /// Shared mode: batches handed to the coordinator whose on_durable
  /// hook has not fired yet. Guarded by inflight_mutex_ (the hook runs
  /// on the coordinator's commit thread).
  std::uint32_t commits_inflight_ = 0;
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  /// Follower connections attached via Job::Kind::kAttachFollower.
  std::vector<std::uint64_t> followers_;
  /// Suppresses disk writes while the constructor replays the WAL.
  bool replaying_ = false;

  // Mailbox. running_: attached to options_.executor (start() set it
  // up, stop() has not yet detached). Guarded by queue_mutex_.
  std::mutex queue_mutex_;
  std::deque<Job> jobs_;
  bool running_ = false;
  std::chrono::steady_clock::time_point next_epoch_;
};

}  // namespace acorn::service
