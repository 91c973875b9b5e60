// The serving engine's applier: k model instances, one applier thread
// each, with draw-and-discard across them (Pihur et al.,
// "Differentially-Private 'Draw and Discard' Machine Learning",
// PAPERS.md). k = 1 is the paper's single serial loop and the default
// every EpollCrowdServer runs.
//
// Each instance owns a core::Server, a ProtocolServer, a bounded
// CheckinQueue, a ModelSnapshotBoard and (optionally) a durable store.
// Its applier drains the queue in arrival order, applies every frame
// through the ProtocolServer (Routine 2: w <- Pi_W[w - eta g^]), group-
// commits the batch (one fsync, then the commit hook — replication
// shipping and quorum wait), republishes the board, and only then
// releases the acks, so acked => durable holds. With k > 1:
//
//   draw     a checkout serves a uniformly drawn instance's snapshot
//            (each instance keeps its own pre-encoded Params frame on
//            its own ModelSnapshotBoard — still lock-free);
//   update   a checkin routes to a uniformly drawn instance's
//            CheckinQueue and is applied by that instance's applier;
//   discard  the updated instance's parameters then overwrite a
//            uniformly drawn victim instance, discarding the victim's
//            previous values.
//
// Because instances are independent, the k applier threads run truly in
// parallel — k WAL streams under one --wal-dir (see
// store::DurableStore::instance_dir), k group-commit clocks, k boards.
// The only cross-instance traffic is the discard step, which travels as
// an *overwrite record* through the victim's own queue and applier: every
// mutation of instance j still happens on j's applier thread, in j's
// arrival order, and lands in j's WAL (store::kOpaqueRecordMagic
// envelope). That is what keeps per-instance recovery bit-reproducible —
// replaying instance j's log replays the same checkins and the same
// overwrites in the same order, byte-for-byte equal to a never-crashed
// witness.
//
// Batching deviation: the paper discards once per client update; the
// applier here draws one victim per applied checkin (so the discard
// distribution is per-update uniform, which the seeded-RNG tests check)
// but coalesces same-victim draws within one drained batch into a single
// overwrite carrying the batch-final parameters. Expected copies of any
// one update remain 1 and the stationary variance bound k·sigma^2/(2k-1)
// is unaffected; see docs/PRIVACY.md "Draw-and-discard amplification".
//
// k = 1 does no draw-and-discard work at all: draws and routes always
// pick instance 0 without touching the streams, acks are never decoded
// for a discard draw, and the WAL namespace is the base directory —
// byte-identical state, WAL, and params frames to a server with an
// attached store (tests/multimodel_test.cpp proves it).
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
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "engine/checkin_queue.hpp"
#include "engine/snapshot_board.hpp"
#include "net/auth.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/durable_store.hpp"

namespace crowdml::engine {

/// The discard step on the wire/in the WAL: a full parameter image that
/// replaces the victim instance's w. Serialized inside the
/// store::kOpaqueRecordMagic envelope:
///
///   [u32 0xFFFFFFFF][u32 kind=1][u64 source_instance][vector w]
///
/// so a checkin record (whose payload opens with a codec length prefix,
/// capped far below 0xFFFFFFFF) can never be confused with one.
struct OverwriteRecord {
  std::uint64_t source_instance = 0;
  linalg::Vector w;

  net::Bytes serialize() const;
  /// Throws net::CodecError on a malformed or non-overwrite payload.
  static OverwriteRecord deserialize(const net::Bytes& payload);
};

struct PoolOptions {
  /// k. 1 is the paper's single serial applier.
  std::size_t instances = 1;
  /// Seed for the draw/route/discard streams (deterministic given call
  /// order; per-instance discard streams are split from it by instance).
  std::uint64_t seed = 1;
  /// Per-instance CheckinQueue bound; a full queue sheds at the engine.
  std::size_t checkin_queue_max = 1024;
  /// Most checkins one applier wakeup applies (and group-commits).
  std::size_t checkin_batch_max = 256;
  /// Base directory for the per-instance WAL namespaces ("" = no
  /// durability). See store::DurableStore::instance_dir for the layout.
  std::string wal_dir;
  /// Template for each instance's store (the pool installs its own
  /// opaque_replay handler; group commit is always enabled).
  store::DurableStoreOptions store;
  /// Commit hook, called once per committed batch of instance `i`, after
  /// the instance's own store (if any) committed. Replication shipping
  /// and quorum waits hook here; returning false nacks every ok ack of
  /// the batch ("durability failure"). Swappable at runtime through
  /// ModelInstancePool::set_on_commit.
  std::function<bool(std::size_t instance)> on_commit;
  /// Pace steering (docs/SCALING.md "Pace steering"): instance `i`'s
  /// Coordinator — k independent per-class clocks, each fed only by its
  /// own applier's commits and queue depth, each stamping consuming
  /// hints only on the checkin acks its instance applied. The clock
  /// lives where the commits it measures happen. Null = steering off
  /// (ack bytes unchanged).
  std::function<std::shared_ptr<coord::Coordinator>(std::size_t instance)>
      coordinator_factory;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = default_registry()
  obs::TraceSink* trace = nullptr;          ///< null disables
};

class ModelInstancePool {
 public:
  /// Builds instance `i`'s core::Server (own updater, own RNG stream).
  using ServerFactory =
      std::function<std::unique_ptr<core::Server>(std::size_t instance)>;

  /// Constructs the k instances and, when wal_dir is set, recovers each
  /// from its own WAL namespace (independent recovery clocks) and
  /// attaches its applied-checkin hook with group commit enabled.
  /// Appliers do not run until start(). Throws store::WalError on
  /// unrecoverable per-instance state.
  ModelInstancePool(net::AuthRegistry& auth, const ServerFactory& factory,
                    PoolOptions options);
  /// One instance over a caller-owned server. The caller owns its
  /// durability (an attached store) and commits it through on_commit, so
  /// options.instances must be 1 and options.wal_dir empty
  /// (std::invalid_argument otherwise).
  ModelInstancePool(net::AuthRegistry& auth, core::Server& server,
                    PoolOptions options);
  ~ModelInstancePool();

  ModelInstancePool(const ModelInstancePool&) = delete;
  ModelInstancePool& operator=(const ModelInstancePool&) = delete;

  /// Start the k applier threads. Idempotent.
  void start();

  /// Close every queue, drain (every admitted request still answers),
  /// join the appliers, and sync the stores. Idempotent.
  void shutdown();

  std::size_t instances() const { return slots_.size(); }

  /// Uniform draw for a checkout. Lock-free (atomic splitmix64 stream +
  /// atomic board load); k = 1 always returns instance 0's snapshot.
  std::shared_ptr<const ModelSnapshot> draw();

  /// Uniform routing for a checkin. False when the drawn instance's queue
  /// is full or closed (the engine sheds with a retry_after nack).
  bool route(CheckinWork&& work);

  /// Replace the commit hook (see PoolOptions::on_commit); takes effect
  /// from the next committed batch. Null removes it.
  void set_on_commit(std::function<bool(std::size_t)> hook);

  /// Board publication switch. While off, appliers apply and ack but
  /// leave the boards alone: a follower's replication thread is then the
  /// single publisher (via republish()). Turn it back on only after that
  /// thread stopped publishing.
  void set_publishing(bool on) {
    publishing_.store(on, std::memory_order_release);
  }
  /// Publish every instance's board from its server's current state.
  void republish();

  core::Server& server(std::size_t i) { return *slots_[i]->server; }
  const core::Server& server(std::size_t i) const {
    return *slots_[i]->server;
  }
  core::ProtocolServer& protocol(std::size_t i) { return slots_[i]->protocol; }
  const core::ProtocolServer& protocol(std::size_t i) const {
    return slots_[i]->protocol;
  }
  const ModelSnapshotBoard& board(std::size_t i) const {
    return slots_[i]->board;
  }
  const CheckinQueue& queue(std::size_t i) const { return slots_[i]->queue; }
  /// Checkins waiting across all instances.
  std::size_t queue_depth() const;
  /// Null when the pool owns no durability layer.
  store::DurableStore* store(std::size_t i) { return slots_[i]->store.get(); }
  /// Instance i's pacing clock; null when no coordinator_factory was set.
  coord::Coordinator* coordinator(std::size_t i) {
    return slots_[i]->coordinator.get();
  }

  /// Sum of instance versions (total updates applied pool-wide,
  /// overwrites included).
  std::uint64_t total_version() const;
  /// Every instance met its stopping criteria.
  bool stopped() const;

  /// Batches whose commit (store or hook) failed; their acks were nacked.
  long long commit_failures() const { return commit_failures_.value(); }

  // Seeded-draw accounting (the distribution sanity tests). Kept only
  // when k > 1: a single instance draws nothing.
  std::vector<long long> draw_counts() const;     ///< checkout draws
  std::vector<long long> route_counts() const;    ///< checkin routes
  std::vector<long long> discard_counts() const;  ///< discard victims
  long long overwrites_applied() const {
    return overwrites_applied_.value();
  }
  /// Discards dropped because the victim's queue was full. Equivalent to
  /// the update surviving one extra round — harmless, but counted.
  long long overwrites_dropped() const { return overwrites_dropped_.value(); }

 private:
  struct Slot {
    std::size_t index = 0;
    std::unique_ptr<core::Server> owned_server;
    core::Server* server = nullptr;
    core::ProtocolServer protocol;
    ModelSnapshotBoard board;
    CheckinQueue queue;
    std::unique_ptr<store::DurableStore> store;
    /// This instance's own pacing clock (null = steering off).
    std::shared_ptr<coord::Coordinator> coordinator;
    /// Discard stream: deterministic per instance (seed split by index).
    std::uint64_t discard_state = 0;
    /// Overwrite records logged but not yet group-committed (applier
    /// thread only). Overwrites carry no client ack, so they owe no
    /// fsync of their own — they ride the next acked batch's commit.
    std::size_t lazy_records = 0;
    std::atomic<long long> draws{0};
    std::atomic<long long> routes{0};
    std::atomic<long long> discards{0};
    std::thread applier;

    Slot(std::size_t idx, std::unique_ptr<core::Server> owned,
         core::Server& srv, net::AuthRegistry& auth, const PoolOptions& opts);
  };
  using CommitHook = std::function<bool(std::size_t)>;

  /// Registers the instruments and seeds the streams; the public
  /// constructors then add the instances.
  explicit ModelInstancePool(PoolOptions options);
  void add_slot(net::AuthRegistry& auth, std::unique_ptr<core::Server> owned,
                core::Server& server);
  void applier_loop(Slot& slot);
  /// Store commit, then the commit hook. True when both succeeded.
  bool commit(Slot& slot);
  void apply_overwrite(Slot& slot, const net::Bytes& record);
  /// Uniform instance index from the shared atomic stream.
  std::size_t draw_index(std::atomic<std::uint64_t>& state);
  /// True when `frame` is a checkin whose `response` is an ok ack — the
  /// signal that one update was applied (and one discard draw is owed).
  static bool is_ok_checkin(const net::Bytes& frame,
                            const net::Bytes& response);

  PoolOptions opts_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> draw_state_;
  std::atomic<std::uint64_t> route_state_;
  std::atomic<bool> publishing_{true};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  /// Copied per batch under commit_mu_ so set_on_commit can swap it
  /// between commits (promotion).
  std::mutex commit_mu_;
  std::shared_ptr<const CommitHook> on_commit_;

  obs::Counter& overwrites_applied_;
  obs::Counter& overwrites_dropped_;
  obs::Counter& commit_failures_;
  obs::Histogram& batch_size_;
  obs::Histogram& handle_seconds_;
};

/// Install the pool's overwrite-record replay handler on a store's
/// options: opaque WAL records deserialize as OverwriteRecords and apply
/// via Server::overwrite_parameters, leaving version == seq. Shared by
/// the pool's own stores and replication followers reconstructing a pool
/// (replica::FollowerOptions::store) so recovery and live apply agree.
void install_overwrite_replay(store::DurableStoreOptions& opts);

}  // namespace crowdml::engine
