// Serving engine: epoll event loops + snapshot checkouts + batched
// checkin application with group commit.
//
// The engine shapes the protocol around the workload (Section IV-B:
// checkouts vastly outnumber and out-size checkins; checkins are small
// but must serialize):
//
//   - a configurable pool of epoll EventLoops multiplexes all device
//     connections on a few threads (nonblocking frame state machines
//     reusing the net:: codec and deadline semantics);
//   - checkouts are served on the I/O thread from a ModelSnapshotBoard's
//     pre-encoded frame — no state lock, no serialization work, no
//     contention with updates;
//   - every other frame flows through a bounded CheckinQueue to the
//     applier of a ModelInstancePool (engine/instance_pool.hpp), which
//     applies in arrival order — the paper's serial update sequence —
//     group-commits the batch's WAL appends with a single fsync,
//     republishes the board, and only then releases the acks, so
//     acked => durable holds. A single-instance pool is the default; a
//     caller-built pool of k instances serves draw-and-discard;
//   - admission control: a full queue sheds with a machine-readable
//     "retry_after_ms" nack (net::retry_after_reason) that
//     ReconnectingDeviceSession honors as its next delay, so overload
//     degrades into scheduled retries instead of timeout storms.
//
// For the same arrival order the engine produces the same frames, acks
// and final (w, t) as dispatching every frame through
// core::ProtocolServer::handle directly (tests/engine_test.cpp,
// EngineParity). See docs/SCALING.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.hpp"
#include "core/monitor.hpp"
#include "core/protocol.hpp"
#include "engine/event_loop.hpp"
#include "engine/instance_pool.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crowdml::engine {

struct EngineConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral
  /// epoll I/O threads. One is right for most deployments (the loops are
  /// never CPU-bound before the applier is); more shards accepted
  /// connections round-robin.
  std::size_t io_threads = 1;
  /// Connection cap across all loops; beyond it, connections get a
  /// capacity nack with a retry hint and are closed.
  std::size_t max_connections = 256;
  int capacity_retry_after_ms = 250;
  /// Close connections silent for this long (a device silent past it
  /// reconnects on its next cycle); <= 0 disables.
  int idle_timeout_ms = -1;
  /// Bounded checkin queue: when full, requests are shed with a nack
  /// carrying this retry hint. The bound and the batch size below size
  /// the engine's own single-instance pool; a caller-built pool carries
  /// its own (PoolOptions).
  std::size_t checkin_queue_max = 1024;
  int queue_retry_after_ms = 50;
  /// Most checkins applied (and group-committed) per applier wakeup.
  std::size_t checkin_batch_max = 256;
  /// Group-commit hook of the engine's own single-instance pool, called
  /// once per drained batch after every update applied; returning false
  /// nacks the whole batch's acks ("durability failure"). Wire
  /// store::DurableStore::commit_group here (after set_group_commit(true));
  /// leave null when no durability layer is attached (or it appends per
  /// record). A caller-built pool commits through PoolOptions::on_commit.
  std::function<bool()> group_commit;
  /// Follower mode (read replica): when set to the leader's device
  /// address ("host:port"), checkins are refused on the I/O thread with
  /// net::not_leader_reason(checkin_redirect) — only the leader mutates
  /// the model — and the applier never publishes the snapshot board;
  /// the replication thread owns publication via republish(). Empty =
  /// normal leader behavior. Changeable at runtime via
  /// set_checkin_redirect (failover retargeting / promotion).
  std::string checkin_redirect;
  /// Bounded-staleness follower reads: when set, called on the I/O
  /// thread per checkout for the replica's applied-seq lag behind the
  /// leader's committed watermark; a lag above max_read_lag nacks the
  /// checkout with a parseable retry hint instead of serving arbitrarily
  /// stale parameters. Null or max_read_lag == 0 disables the check.
  std::function<std::uint64_t()> read_lag;
  std::uint64_t max_read_lag = 0;
  int stale_retry_after_ms = 100;
  /// Sharded deployments (src/shard/; docs/SHARDING.md): maps a
  /// checkin's device id to the owning shard's device address when that
  /// shard is NOT this server, nullopt when the device is ours. Called
  /// on the I/O thread before the checkin is enqueued, so — exactly
  /// like the follower redirect below — the "wrong shard;
  /// shard=<addr>" nack is issued before any application and the
  /// device can safely replay the same checkin at the target.
  /// Checkouts are still served locally (a mis-routed read is harmless
  /// and the roster may be mid-rollout; the checkin is what must land
  /// on the owner). Null = unsharded: no device-facing frame changes.
  std::function<std::optional<std::string>(std::uint64_t)> shard_route;
  /// Merge-plane handler (shard::ShardService): frame types 14 and 16
  /// (ShardPull/ShardMergePush) dispatch to it on the applier thread, so
  /// a merge overwrite serializes with checkins and rides the same
  /// group-commit barrier. Null (the default) nacks those frames with
  /// "sharding disabled". Must outlive the engine.
  core::ShardHandler* shard = nullptr;
  /// Pace steering (src/coord/; docs/SCALING.md "Pace steering"). When
  /// set, every checkout response and checkin ack carries a positive
  /// next_checkin_hint_ms (advisory on checkouts, slot-consuming on
  /// checkin acks), the applier feeds the policy its queue depth and
  /// apply/commit timings, and a shed checkin's retry_after hint is
  /// stretched to the class's next reserved slot — shedding becomes the
  /// last resort behind steering. Null (the default) disables steering
  /// entirely: ack and params frames are bit-identical to the
  /// pre-coordinator path. Must outlive the engine. With a caller-built
  /// pool only the checkout and shed hints come from here; each
  /// instance's applier steers with its own PoolOptions clock.
  coord::Coordinator* coordinator = nullptr;
  /// Secure-aggregation cohort manager (docs/PRIVACY.md). Frame types
  /// 11-13 (SecAggAssign/Masked/Reveal) dispatch to it after
  /// authentication; completed cohorts are applied through the ordinary
  /// checkin path (WAL'd as one synthetic cohort record). Null (the
  /// default) disables secure aggregation: those frames are nacked and
  /// every classic frame's bytes are unchanged. Must outlive the engine.
  secagg::CohortManager* secagg = nullptr;
  /// Registry for engine instruments (null = obs::default_registry()).
  obs::MetricsRegistry* metrics = nullptr;
  /// Lifecycle + protocol trace events. Null disables.
  obs::TraceSink* trace = nullptr;
};

class EpollCrowdServer {
 public:
  /// Serves `server` through an engine-owned single-instance pool whose
  /// commit hook is config.group_commit. Binds, publishes the initial
  /// snapshot, and starts the I/O loops, acceptor, and applier. Throws
  /// std::runtime_error when the bind fails.
  EpollCrowdServer(core::Server& server, net::AuthRegistry& auth,
                   EngineConfig config);
  /// Serves a caller-built pool (draw-and-discard, k >= 1). The pool must
  /// outlive the engine; the engine attaches the secagg/shard handlers
  /// to its dispatchers and starts it, so hand it over unstarted.
  /// shutdown() drains it.
  EpollCrowdServer(ModelInstancePool& pool, net::AuthRegistry& auth,
                   EngineConfig config);
  ~EpollCrowdServer();

  EpollCrowdServer(const EpollCrowdServer&) = delete;
  EpollCrowdServer& operator=(const EpollCrowdServer&) = delete;

  std::uint16_t port() const { return port_; }
  /// Instance 0's dispatcher — the only one of a single-instance pool.
  const core::ProtocolServer& protocol() const { return pool_.protocol(0); }
  const ModelInstancePool& pool() const { return pool_; }
  std::size_t connections() const;
  long long checkouts_served() const { return checkouts_served_.value(); }
  long long commit_failures() const { return pool_.commit_failures(); }
  long long stale_checkouts_refused() const {
    return stale_checkouts_refused_.value();
  }

  const core::NetCounters& net_counters() const { return counters_; }
  core::NetCountersSnapshot net_snapshot() const {
    return counters_.snapshot();
  }

  /// Re-publish the snapshot boards from the servers' current state.
  /// Follower mode only: called by the replication thread after each
  /// applied batch (the board's single-publisher contract moves to that
  /// thread; the applier skips publication while a redirect is active).
  void republish() { pool_.republish(); }

  /// Retarget (or clear) the follower-mode checkin redirect at runtime.
  /// Non-empty: checkins nack with not_leader_reason(addr). Empty: this
  /// node accepts checkins and the applier resumes board publication —
  /// promotion must call republish() *before* clearing the redirect so
  /// the publisher handoff never has two concurrent publishers.
  void set_checkin_redirect(const std::string& leader_addr);
  bool redirect_active() const {
    return redirect_active_.load(std::memory_order_acquire);
  }

  /// Swap the group-commit hook (promotion wires the ex-follower's store
  /// and new shipper in). Takes effect from the next drained batch.
  void set_group_commit(std::function<bool()> hook);

  /// Stop accepting, drain the pool (every admitted request still gets
  /// its response), stop the loops, and join everything.
  void shutdown();

 private:
  EpollCrowdServer(std::unique_ptr<ModelInstancePool> owned,
                   ModelInstancePool* external, net::AuthRegistry& auth,
                   const EngineConfig& config);
  void accept_loop();
  /// Frame dispatch on an I/O thread: auth-valid checkouts are answered
  /// from a board; everything else is routed to the pool or shed.
  void on_frame(EventLoop* loop, std::uint64_t conn_id, net::Bytes&& frame);

  EngineConfig config_;
  net::AuthRegistry& auth_;
  std::unique_ptr<ModelInstancePool> owned_pool_;
  ModelInstancePool& pool_;
  core::NetCounters counters_;
  /// Pre-encoded "not leader" nack for checkins in follower mode. The
  /// atomic flag gates the hot path; the frame itself (rebuilt by
  /// set_checkin_redirect) is read under redirect_mu_.
  std::atomic<bool> redirect_active_{false};
  mutable std::mutex redirect_mu_;
  std::string checkin_redirect_;
  net::Bytes checkin_redirect_frame_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::size_t next_loop_ = 0;  ///< acceptor-thread round-robin cursor
  std::atomic<bool> stopping_{false};

  obs::Counter& checkouts_served_;
  obs::Counter& checkins_redirected_;
  obs::Counter& checkins_wrong_shard_;
  obs::Counter& stale_checkouts_refused_;
};

}  // namespace crowdml::engine
