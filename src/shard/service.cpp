#include "shard/service.hpp"

#include <stdexcept>
#include <string>

#include "shard/merge.hpp"

namespace crowdml::shard {

namespace {

net::Bytes nack(const std::string& reason) {
  const net::AckMessage m{false, reason};
  return net::encode_frame(net::MessageType::kAck, m.serialize());
}

}  // namespace

ShardService::ShardService(ShardServiceConfig cfg, core::Server& server)
    : cfg_(std::move(cfg)),
      server_(server),
      baseline_version_(server.version()) {
  if (cfg_.metrics) {
    pulls_ = &cfg_.metrics->counter(
        "crowdml_shard_pulls_total",
        "ShardPull requests answered with this shard's model",
        obs::Provenance::kTransportEvent);
    merges_ = &cfg_.metrics->counter(
        "crowdml_shard_merges_applied_total",
        "Cross-shard merged models applied via ShardMergePush",
        obs::Provenance::kTransportEvent);
    auth_failures_ = &cfg_.metrics->counter(
        "crowdml_shard_auth_failures_total",
        "Shard* frames dropped for a missing or wrong replication-key seal",
        obs::Provenance::kTransportEvent);
    staleness_updates_ = &cfg_.metrics->histogram(
        "crowdml_shard_merge_staleness_updates",
        "Checkins this shard applied between a merge's pull and its "
        "apply — the delay tau of the stale merged update (PAPER.md IV)",
        obs::Provenance::kSanitizedAggregate,
        obs::exponential_bounds(1.0, 4.0, 10));
    staleness_ms_ = &cfg_.metrics->histogram(
        "crowdml_shard_merge_staleness_seconds",
        "Wall-clock age of the pulled state when its merge was applied",
        obs::Provenance::kTiming);
  }
}

net::Bytes ShardService::handle_shard_pull(const net::Bytes& payload) {
  const auto opened = replica::open_repl_payload(
      cfg_.key, net::MessageType::kShardPull, payload);
  if (!opened) {
    if (auth_failures_) auth_failures_->inc();
    if (cfg_.trace) cfg_.trace->event("shard_auth_failed");
    return nack("shard authentication failed");
  }
  net::ShardPullMessage pull;
  try {
    pull = net::ShardPullMessage::deserialize(*opened);
  } catch (const net::CodecError& e) {
    return nack(std::string("malformed shard pull: ") + e.what());
  }

  net::ShardModelMessage model;
  model.shard_id = cfg_.shard_id;
  model.merge_round = pull.merge_round;
  model.version = server_.version();
  model.q = quantize_params(server_.parameters());
  {
    std::lock_guard<std::mutex> lock(mu_);
    model.checkins = model.version >= baseline_version_
                         ? model.version - baseline_version_
                         : 0;
    last_pull_round_ = pull.merge_round;
    last_pull_version_ = model.version;
    last_pull_at_ = std::chrono::steady_clock::now();
  }
  if (pulls_) pulls_->inc();
  if (cfg_.trace)
    cfg_.trace->event("shard_pull", {{"round", pull.merge_round},
                                     {"version", model.version},
                                     {"checkins", model.checkins}});
  return net::encode_frame(
      net::MessageType::kShardModel,
      replica::seal_repl_payload(cfg_.key, net::MessageType::kShardModel,
                                 model.serialize()));
}

net::Bytes ShardService::handle_shard_merge_push(const net::Bytes& payload) {
  const auto opened = replica::open_repl_payload(
      cfg_.key, net::MessageType::kShardMergePush, payload);
  if (!opened) {
    if (auth_failures_) auth_failures_->inc();
    if (cfg_.trace) cfg_.trace->event("shard_auth_failed");
    return nack("shard authentication failed");
  }
  net::ShardMergePushMessage push;
  try {
    push = net::ShardMergePushMessage::deserialize(*opened);
  } catch (const net::CodecError& e) {
    return nack(std::string("malformed shard merge push: ") + e.what());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // A director retry after a lost ack must not double-apply: the
    // model value would be unchanged but the version (and WAL) would
    // advance twice, and replay determinism tests would diverge.
    if (merges_applied_ > 0 && push.merge_round <= last_merge_round_) {
      const net::AckMessage ok{true, "merge round already applied"};
      return net::encode_frame(net::MessageType::kAck, ok.serialize());
    }
  }

  MergeRecord rec;
  rec.merge_round = push.merge_round;
  rec.total_checkins = push.total_checkins;
  rec.w = dequantize_params(push.q);

  std::uint64_t version = 0;
  try {
    version = server_.overwrite_parameters(rec.w);
  } catch (const std::invalid_argument& e) {
    return nack(std::string("merge rejected: ") + e.what());
  }
  if (cfg_.store && !cfg_.store->log_record(version, rec.serialize())) {
    // The record sits in the store's gap-healing queue; the engine's
    // commit barrier will nack this ack if the group commit fails too.
    if (cfg_.trace) cfg_.trace->event("shard_merge_log_failed");
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (last_pull_round_ == push.merge_round) {
      if (staleness_updates_ && version >= 1 + last_pull_version_)
        staleness_updates_->observe(
            static_cast<double>(version - 1 - last_pull_version_));
      if (staleness_ms_)
        staleness_ms_->observe(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          last_pull_at_)
                .count());
    }
    baseline_version_ = version;
    last_merge_round_ = push.merge_round;
    ++merges_applied_;
  }
  if (merges_) merges_->inc();
  if (cfg_.trace)
    cfg_.trace->event("shard_merge_applied",
                      {{"round", push.merge_round},
                       {"version", version},
                       {"total_checkins", push.total_checkins}});

  const net::AckMessage ok{true, ""};
  return net::encode_frame(net::MessageType::kAck, ok.serialize());
}

std::uint64_t ShardService::merges_applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merges_applied_;
}

std::uint64_t ShardService::last_merge_round() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_merge_round_;
}

std::uint64_t ShardService::checkins_since_merge() const {
  const std::uint64_t v = server_.version();
  std::lock_guard<std::mutex> lock(mu_);
  return v >= baseline_version_ ? v - baseline_version_ : 0;
}

}  // namespace crowdml::shard
