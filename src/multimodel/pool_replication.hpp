// Replication for a draw-and-discard pool: all k per-instance WAL
// streams ship, each on its own replication port with its instance id
// tagged into every hello and append (net::ReplHelloMessage /
// net::ReplAppendMessage::instance_id), so a follower node reconstructs
// the *same pool* — k servers, k logs, byte-for-byte — rather than a
// merged log it could never split back apart.
//
// Shape: one replica::LogShipper per leader instance (ports are
// base_port, base_port+1, ... or all-ephemeral), one replica::Follower
// per follower instance, each follower owning the matching
// instance_dir() namespace under the follower's --wal-dir. Instance
// streams are independent — they commit, ship, and ack on their own
// clocks, exactly as their appliers apply on their own clocks; there is
// no cross-instance ordering to preserve because the only cross-instance
// event (a discard) is logged as an overwrite record *in the victim's
// stream*.
//
// Scope: follower pools are read replicas with manual failover. The
// automatic-election machinery (replica::FailureDetector + candidacies)
// is single-stream — electing k leaders independently could split the
// pool across nodes — so PoolFollowerSet forces the detector off; see
// ROADMAP.md for the coordinated-election follow-up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/instance_pool.hpp"
#include "replica/follower.hpp"
#include "replica/log_shipper.hpp"

namespace crowdml::multimodel {

/// Leader side: one shipper per pool instance. Constructing the set also
/// installs the pool's on_commit hook (notify + quorum-await on the
/// committing instance's shipper), so build it after the pool and before
/// pool.start(). Requires the pool to have a durability layer.
class PoolShipperSet {
 public:
  /// `base` is the per-stream template; base.port == 0 binds every
  /// stream ephemerally, otherwise instance i binds base.port + i.
  /// Each shipper gets base.instance_id overwritten with its index.
  /// Throws std::runtime_error when any port cannot be bound.
  PoolShipperSet(engine::ModelInstancePool& pool, std::uint64_t epoch,
                 replica::ShipperOptions base);
  ~PoolShipperSet();

  PoolShipperSet(const PoolShipperSet&) = delete;
  PoolShipperSet& operator=(const PoolShipperSet&) = delete;

  std::size_t size() const { return shippers_.size(); }
  replica::LogShipper& shipper(std::size_t i) { return *shippers_[i]; }
  /// Replication port of instance i's stream.
  std::uint16_t port(std::size_t i) const { return shippers_[i]->port(); }
  /// True once any stream's shipper has been fenced by a higher epoch.
  bool fenced() const;

  void shutdown();

 private:
  engine::ModelInstancePool& pool_;
  std::vector<std::unique_ptr<replica::LogShipper>> shippers_;
};

/// Follower side: one server + one replica::Follower per instance,
/// reconstructing the leader's pool under `dir` (same instance_dir()
/// layout the leader uses). Followers verify their instance tags and
/// apply overwrite records through the pool's replay handler, so each
/// reconstructed instance is byte-identical to its leader twin at equal
/// log positions.
class PoolFollowerSet {
 public:
  PoolFollowerSet(const engine::ModelInstancePool::ServerFactory& factory,
                  std::size_t instances, std::string dir,
                  const std::string& leader_host,
                  const std::vector<std::uint16_t>& leader_ports,
                  replica::FollowerOptions base);
  ~PoolFollowerSet();

  PoolFollowerSet(const PoolFollowerSet&) = delete;
  PoolFollowerSet& operator=(const PoolFollowerSet&) = delete;

  void start();
  void shutdown();

  std::size_t size() const { return followers_.size(); }
  core::Server& server(std::size_t i) { return *servers_[i]; }
  replica::Follower& follower(std::size_t i) { return *followers_[i]; }
  /// Any stream hit a fatal divergence / disk failure.
  bool fatal() const;
  /// Every stream currently connected to its leader.
  bool all_connected() const;
  /// Sum of applied positions across instances (progress signal).
  std::uint64_t total_applied() const;

 private:
  std::vector<std::unique_ptr<core::Server>> servers_;
  std::vector<std::unique_ptr<replica::Follower>> followers_;
};

}  // namespace crowdml::multimodel
