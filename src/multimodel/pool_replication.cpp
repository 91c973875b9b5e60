#include "multimodel/pool_replication.hpp"

#include <stdexcept>
#include <utility>

namespace crowdml::multimodel {

PoolShipperSet::PoolShipperSet(engine::ModelInstancePool& pool, std::uint64_t epoch,
                               replica::ShipperOptions base)
    : pool_(pool) {
  const std::size_t k = pool.instances();
  shippers_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    store::DurableStore* store = pool.store(i);
    if (!store)
      throw std::runtime_error(
          "PoolShipperSet: pool has no durability layer (set wal_dir)");
    replica::ShipperOptions opts = base;
    opts.instance_id = static_cast<std::uint64_t>(i);
    if (base.port != 0)
      opts.port = static_cast<std::uint16_t>(base.port + i);
    shippers_.push_back(std::make_unique<replica::LogShipper>(
        pool.server(i), *store, epoch, std::move(opts)));
  }
  // Per-instance commit hook: wake instance i's sessions, then (under
  // quorum ack mode) hold the batch's acks until enough followers
  // durably hold it — same acked => replicated promise as the
  // single-model path, enforced per stream.
  pool.set_on_commit([this](std::size_t i) {
    replica::LogShipper& shipper = *shippers_[i];
    shipper.notify_committed();
    return shipper.await_quorum(pool_.server(i).version());
  });
}

PoolShipperSet::~PoolShipperSet() { shutdown(); }

bool PoolShipperSet::fenced() const {
  for (const auto& s : shippers_)
    if (s->fenced()) return true;
  return false;
}

void PoolShipperSet::shutdown() {
  for (auto& s : shippers_) s->shutdown();
}

PoolFollowerSet::PoolFollowerSet(
    const engine::ModelInstancePool::ServerFactory& factory, std::size_t instances,
    std::string dir, const std::string& leader_host,
    const std::vector<std::uint16_t>& leader_ports,
    replica::FollowerOptions base) {
  if (instances == 0) instances = 1;
  if (leader_ports.size() != instances)
    throw std::invalid_argument(
        "PoolFollowerSet: need one leader port per instance");
  servers_.reserve(instances);
  followers_.reserve(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    servers_.push_back(factory(i));
    replica::FollowerOptions opts = base;
    opts.instance_id = static_cast<std::uint64_t>(i);
    opts.leader_host = leader_host;
    opts.leader_port = leader_ports[i];
    // Distinct follower ids per stream so the leader's per-session
    // accounting never conflates two streams from one node.
    opts.follower_id = base.follower_id * 1000 + i;
    engine::install_overwrite_replay(opts.store);
    // Elections are single-stream; a pool must fail over as a unit (see
    // header). Force the detector off regardless of the template.
    opts.detector = replica::FailureDetectorConfig{};
    followers_.push_back(std::make_unique<replica::Follower>(
        *servers_.back(),
        store::DurableStore::instance_dir(dir, i, instances),
        std::move(opts)));
  }
}

PoolFollowerSet::~PoolFollowerSet() { shutdown(); }

void PoolFollowerSet::start() {
  for (auto& f : followers_) f->start();
}

void PoolFollowerSet::shutdown() {
  for (auto& f : followers_) f->shutdown();
}

bool PoolFollowerSet::fatal() const {
  for (const auto& f : followers_)
    if (f->fatal()) return true;
  return false;
}

bool PoolFollowerSet::all_connected() const {
  for (const auto& f : followers_)
    if (!f->connected()) return false;
  return true;
}

std::uint64_t PoolFollowerSet::total_applied() const {
  std::uint64_t total = 0;
  for (const auto& f : followers_) total += f->applied_seq();
  return total;
}

}  // namespace crowdml::multimodel
