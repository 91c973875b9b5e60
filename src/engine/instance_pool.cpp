#include "engine/instance_pool.hpp"

#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "engine/event_loop.hpp"
#include "obs/profile.hpp"
#include "rng/engine.hpp"

namespace crowdml::engine {

namespace {

obs::MetricsRegistry& registry_of(const PoolOptions& opts) {
  return opts.metrics ? *opts.metrics : obs::default_registry();
}

/// SplitMix64 finalizer (same mixing as rng::splitmix64, but over a value
/// already advanced atomically — the atomic fetch_add *is* the state
/// step, so concurrent I/O threads each get a distinct, well-mixed draw).
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kStreamStep = 0x9E3779B97F4A7C15ULL;
/// Overwrite-record kind tag inside the opaque envelope.
constexpr std::uint32_t kOverwriteKind = 1;
/// Commit an overwrite-only batch once this many overwrite records sit
/// uncommitted — bounds the unflushed WAL tail (and the replication lag)
/// on an instance that keeps losing draws without winning any routes.
constexpr std::size_t kLazyOverwriteFlush = 64;

}  // namespace

net::Bytes OverwriteRecord::serialize() const {
  net::Writer wr;
  wr.put_u32(store::kOpaqueRecordMagic);
  wr.put_u32(kOverwriteKind);
  wr.put_u64(source_instance);
  wr.put_vector(w);
  return wr.take();
}

OverwriteRecord OverwriteRecord::deserialize(const net::Bytes& payload) {
  net::Reader r(payload);
  if (r.get_u32() != store::kOpaqueRecordMagic)
    throw net::CodecError("not an opaque record");
  if (r.get_u32() != kOverwriteKind)
    throw net::CodecError("unknown opaque record kind");
  OverwriteRecord rec;
  rec.source_instance = r.get_u64();
  rec.w = r.get_vector();
  if (!r.exhausted())
    throw net::CodecError("trailing bytes after overwrite record");
  return rec;
}

ModelInstancePool::Slot::Slot(std::size_t idx,
                              std::unique_ptr<core::Server> owned,
                              core::Server& srv, net::AuthRegistry& auth,
                              const PoolOptions& opts)
    : index(idx),
      owned_server(std::move(owned)),
      server(&srv),
      protocol(srv, auth, opts.trace),
      board(opts.metrics),
      queue(opts.checkin_queue_max, opts.metrics),
      // Deterministic per-instance discard stream, keyed by index so the
      // stream does not depend on construction order.
      discard_state(opts.seed ^ (kStreamStep * (idx + 1))) {}

ModelInstancePool::ModelInstancePool(PoolOptions options)
    : opts_(std::move(options)),
      overwrites_applied_(registry_of(opts_).counter(
          "crowdml_multimodel_overwrites_applied_total",
          "Draw-and-discard parameter overwrites applied to victim "
          "instances",
          obs::Provenance::kTransportEvent)),
      overwrites_dropped_(registry_of(opts_).counter(
          "crowdml_multimodel_overwrites_dropped_total",
          "Discard overwrites shed because the victim instance's queue "
          "was full (the update survives one extra round instead)",
          obs::Provenance::kTransportEvent)),
      commit_failures_(registry_of(opts_).counter(
          "crowdml_engine_commit_failures_total",
          "Applier batches whose group commit failed (all acks nacked)",
          obs::Provenance::kTransportEvent)),
      batch_size_(registry_of(opts_).histogram(
          "crowdml_engine_batch_size",
          "Checkins applied per applier wakeup (group-commit batch)",
          obs::Provenance::kTransportEvent,
          obs::exponential_bounds(1.0, 2.0, 10))),
      handle_seconds_(registry_of(opts_).histogram(
          "crowdml_server_handle_seconds",
          "Whole request dispatch: decode, authenticate, apply, encode",
          obs::Provenance::kTiming)) {
  if (opts_.instances == 0) opts_.instances = 1;
  if (opts_.checkin_batch_max == 0) opts_.checkin_batch_max = 1;
  if (opts_.on_commit)
    on_commit_ = std::make_shared<const CommitHook>(std::move(opts_.on_commit));

  // Independent draw/route streams, both derived from the pool seed.
  std::uint64_t seed_state = opts_.seed;
  draw_state_.store(rng::splitmix64(seed_state));
  route_state_.store(rng::splitmix64(seed_state));
}

ModelInstancePool::ModelInstancePool(net::AuthRegistry& auth,
                                     const ServerFactory& factory,
                                     PoolOptions options)
    : ModelInstancePool(std::move(options)) {
  slots_.reserve(opts_.instances);
  for (std::size_t i = 0; i < opts_.instances; ++i) {
    std::unique_ptr<core::Server> server = factory(i);
    core::Server& srv = *server;
    add_slot(auth, std::move(server), srv);
  }
}

ModelInstancePool::ModelInstancePool(net::AuthRegistry& auth,
                                     core::Server& server, PoolOptions options)
    : ModelInstancePool(std::move(options)) {
  if (opts_.instances != 1 || !opts_.wal_dir.empty())
    throw std::invalid_argument(
        "ModelInstancePool: a caller-owned server is one instance, and its "
        "durability is the caller's");
  add_slot(auth, nullptr, server);
}

void ModelInstancePool::add_slot(net::AuthRegistry& auth,
                                 std::unique_ptr<core::Server> owned,
                                 core::Server& server) {
  const std::size_t i = slots_.size();
  auto slot = std::make_unique<Slot>(i, std::move(owned), server, auth, opts_);
  if (opts_.coordinator_factory)
    slot->coordinator = opts_.coordinator_factory(i);
  if (!opts_.wal_dir.empty()) {
    store::DurableStoreOptions sopts = opts_.store;
    install_overwrite_replay(sopts);
    slot->store = std::make_unique<store::DurableStore>(
        store::DurableStore::instance_dir(opts_.wal_dir, i, opts_.instances),
        std::move(sopts));
    slot->store->recover(server);
    slot->store->attach(server);
    slot->store->set_group_commit(true);
  }
  // Valid snapshot before any checkout can draw this instance.
  slot->board.publish(server);
  slots_.push_back(std::move(slot));
}

ModelInstancePool::~ModelInstancePool() { shutdown(); }

void ModelInstancePool::start() {
  if (started_.exchange(true)) return;
  for (auto& slot : slots_) {
    Slot* s = slot.get();
    s->applier = std::thread([this, s] { applier_loop(*s); });
  }
}

void ModelInstancePool::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& slot : slots_) slot->queue.close();
  for (auto& slot : slots_)
    if (slot->applier.joinable()) slot->applier.join();
  for (auto& slot : slots_)
    if (slot->store) slot->store->sync();
}

void ModelInstancePool::set_on_commit(std::function<bool(std::size_t)> hook) {
  auto next = hook ? std::make_shared<const CommitHook>(std::move(hook))
                   : nullptr;
  std::lock_guard<std::mutex> lock(commit_mu_);
  on_commit_ = std::move(next);
}

void ModelInstancePool::republish() {
  for (auto& slot : slots_) slot->board.publish(*slot->server);
}

std::size_t ModelInstancePool::draw_index(std::atomic<std::uint64_t>& state) {
  const std::uint64_t z =
      state.fetch_add(kStreamStep, std::memory_order_relaxed) + kStreamStep;
  return static_cast<std::size_t>(mix64(z) % slots_.size());
}

std::shared_ptr<const ModelSnapshot> ModelInstancePool::draw() {
  if (slots_.size() == 1) return slots_[0]->board.current();
  const std::size_t i = draw_index(draw_state_);
  slots_[i]->draws.fetch_add(1, std::memory_order_relaxed);
  return slots_[i]->board.current();
}

bool ModelInstancePool::route(CheckinWork&& work) {
  if (slots_.size() == 1) return slots_[0]->queue.try_push(std::move(work));
  const std::size_t i = draw_index(route_state_);
  if (!slots_[i]->queue.try_push(std::move(work))) return false;
  slots_[i]->routes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t ModelInstancePool::queue_depth() const {
  std::size_t total = 0;
  for (const auto& slot : slots_) total += slot->queue.depth();
  return total;
}

std::uint64_t ModelInstancePool::total_version() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->server->version();
  return total;
}

bool ModelInstancePool::stopped() const {
  for (const auto& slot : slots_)
    if (!slot->server->stopped()) return false;
  return true;
}

std::vector<long long> ModelInstancePool::draw_counts() const {
  std::vector<long long> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->draws.load());
  return out;
}

std::vector<long long> ModelInstancePool::route_counts() const {
  std::vector<long long> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->routes.load());
  return out;
}

std::vector<long long> ModelInstancePool::discard_counts() const {
  std::vector<long long> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->discards.load());
  return out;
}

bool ModelInstancePool::commit(Slot& slot) {
  if (slot.store) {
    if (!slot.store->commit_group()) return false;
    slot.lazy_records = 0;
  }
  std::shared_ptr<const CommitHook> hook;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    hook = on_commit_;
  }
  return !hook || (*hook)(slot.index);
}

void ModelInstancePool::apply_overwrite(Slot& slot, const net::Bytes& record) {
  try {
    const auto rec = OverwriteRecord::deserialize(record);
    const std::uint64_t v = slot.server->overwrite_parameters(rec.w);
    if (slot.store) {
      slot.store->log_record(v, record);
      ++slot.lazy_records;
    }
    ++overwrites_applied_;
    if (opts_.trace)
      opts_.trace->event("overwrite_applied", {{"instance", slot.index},
                                               {"source", rec.source_instance},
                                               {"version", v}});
  } catch (const std::exception&) {
    // A malformed or mis-sized overwrite never reaches here from our own
    // appliers; drop rather than poison the instance.
    ++overwrites_dropped_;
  }
}

void ModelInstancePool::applier_loop(Slot& slot) {
  using Clock = std::chrono::steady_clock;
  const std::size_t k = slots_.size();
  std::vector<CheckinWork> batch;
  std::vector<net::Bytes> responses;
  std::vector<std::uint8_t> classes;
  // Distinct discard victims drawn this batch (coalesced: one overwrite
  // per victim carrying the batch-final parameters).
  std::vector<bool> victim(k, false);
  for (;;) {
    batch.clear();
    responses.clear();
    classes.clear();
    const std::size_t n =
        slot.queue.drain(batch, opts_.checkin_batch_max, 100);
    slot.board.refresh_age_gauge();
    if (n == 0) {
      // Idle flush: overwrite records deferred by the lazy-commit rule
      // below would otherwise sit uncommitted indefinitely on a quiet
      // instance. No client ack waits on them, but the replication
      // stream does — followers only see committed records — so flush
      // once the queue goes quiet (one drain timeout bounds the lag).
      // A failed flush just leaves them for the next pass.
      if (slot.lazy_records > 0) commit(slot);
      if (slot.queue.closed()) break;
      continue;
    }

    // Steering inputs for this instance's own clock: backlog left after
    // the drain, then the batch's apply/commit wall time below.
    if (slot.coordinator)
      slot.coordinator->observe_queue_depth(slot.queue.depth());
    const Clock::time_point apply_start = Clock::now();

    // Apply in arrival order. Two item kinds flow through one queue:
    // protocol frames (checkins etc.) handled by this instance's
    // ProtocolServer, and overwrite records (draw-and-discard victims)
    // that only appliers enqueue. Routing overwrites
    // through the victim's own queue is what serializes *every* mutation
    // of this instance onto this thread — and into this WAL, in apply
    // order, which per-instance recovery replays bit-for-bit.
    responses.reserve(n);
    classes.reserve(n);
    std::size_t client_frames = 0;
    bool drew_victim = false;
    for (const CheckinWork& work : batch) {
      if (work.overwrite) {
        apply_overwrite(slot, work.frame);
        responses.emplace_back();
        classes.push_back(net::kDefaultDeviceClass);
        continue;
      }
      ++client_frames;
      obs::TimedScope timer(handle_seconds_);
      std::uint8_t cls = net::kDefaultDeviceClass;
      responses.push_back(slot.protocol.handle(work.frame, &cls));
      classes.push_back(cls);
      // An applied checkin (ok ack) owes one discard draw — per-update
      // uniform over the k instances, from this instance's deterministic
      // stream. With k = 1 every draw is the instance itself, so the ack
      // is not even decoded.
      if (k > 1 && is_ok_checkin(work.frame, responses.back())) {
        const std::size_t v = static_cast<std::size_t>(
            rng::splitmix64(slot.discard_state) % k);
        slots_[v]->discards.fetch_add(1, std::memory_order_relaxed);
        victim[v] = true;
        drew_victim = true;
      }
    }

    // Group commit: one WAL fsync covers the batch's checkin records plus
    // any overwrite records still buffered from earlier batches, then the
    // commit hook (shipping, quorum wait). An overwrite-only batch defers
    // its commit instead (up to kLazyOverwriteFlush records): overwrites
    // carry no client ack, so they owe no fsync of their own — deferring
    // keeps the pool's fsync rate at one per *acked* batch, which is what
    // lets k per-instance commit clocks overlap their fsync stalls
    // instead of doubling them. A crash can lose an uncommitted overwrite
    // tail; recovery still replays a clean WAL prefix, and no ack ever
    // covered those records. On commit failure every ok ack becomes a
    // durability nack before release — acked => durable never lies (the
    // store requeues unwritten records, so the log stays contiguous).
    const bool must_commit =
        client_frames > 0 || slot.lazy_records >= kLazyOverwriteFlush;
    const Clock::time_point commit_start = Clock::now();
    const bool committed = !must_commit || commit(slot);
    if (slot.coordinator)
      slot.coordinator->observe_commit(
          client_frames,
          std::chrono::duration<double>(commit_start - apply_start).count(),
          std::chrono::duration<double>(Clock::now() - commit_start).count());
    if (!committed) {
      ++commit_failures_;
      if (opts_.trace)
        opts_.trace->event("group_commit_failed", {{"batch", n}});
      const net::AckMessage nack{false, "durability failure"};
      const net::Bytes nack_frame =
          net::encode_frame(net::MessageType::kAck, nack.serialize());
      for (std::size_t i = 0; i < n; ++i)
        if (is_ok_checkin(batch[i].frame, responses[i]))
          responses[i] = nack_frame;
    }

    // Pace steering: every checkin ack this instance produced (ok,
    // rejection, or the durability nack above — the device is coming
    // back either way) carries a consuming hint from this instance's own
    // clock. Runs after the nack rewrite so the hint survives it;
    // overwrite records carry no response and are skipped by the
    // frame-type check.
    if (slot.coordinator) {
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i].frame.size() <= net::kFrameTypeOffset ||
            batch[i].frame[net::kFrameTypeOffset] !=
                static_cast<std::uint8_t>(net::MessageType::kCheckin))
          continue;
        responses[i] = net::frame_with_checkin_hint(
            responses[i], slot.coordinator->checkin_hint_ms(classes[i]));
      }
    }

    // Discard step: ship this instance's batch-final parameters to each
    // distinct victim drawn above (self-draws are the no-op of replacing
    // an instance with itself). A full victim queue sheds the overwrite:
    // the victim's parameters simply survive one extra round, which
    // biases nothing.
    if (drew_victim) {
      OverwriteRecord rec;
      rec.source_instance = slot.index;
      rec.w = slot.server->parameters();
      const net::Bytes payload = rec.serialize();
      for (std::size_t v = 0; v < k; ++v) {
        if (!victim[v]) continue;
        victim[v] = false;
        if (v == slot.index) continue;
        CheckinWork ow;
        ow.frame = payload;
        ow.overwrite = true;
        if (!slots_[v]->queue.try_push(std::move(ow))) ++overwrites_dropped_;
      }
    }

    // Publish before releasing acks: a device that sees its ack and
    // immediately checks out gets a snapshot that includes its update.
    // While publication is off (follower mode) the replication thread is
    // the board's single publisher.
    if (publishing_.load(std::memory_order_acquire))
      slot.board.publish(*slot.server);
    if (client_frames > 0)
      batch_size_.observe(static_cast<double>(client_frames));

    // Release responses grouped per event loop (overwrite items carry no
    // destination and fall through). Single-item batches — the norm at
    // commit-per-update cadence — skip the grouping map.
    if (n == 1) {
      if (batch[0].complete) {
        batch[0].complete(std::move(responses[0]));
      } else if (batch[0].loop) {
        std::vector<std::pair<std::uint64_t, net::Bytes>> one;
        one.emplace_back(batch[0].conn_id, std::move(responses[0]));
        batch[0].loop->send_many(std::move(one));
      }
    } else {
      std::unordered_map<EventLoop*,
                         std::vector<std::pair<std::uint64_t, net::Bytes>>>
          by_loop;
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i].complete)
          batch[i].complete(std::move(responses[i]));
        else if (batch[i].loop)
          by_loop[batch[i].loop].emplace_back(batch[i].conn_id,
                                              std::move(responses[i]));
      }
      for (auto& [loop, items] : by_loop) loop->send_many(std::move(items));
    }
  }
}

bool ModelInstancePool::is_ok_checkin(const net::Bytes& frame,
                                      const net::Bytes& response) {
  if (frame.size() <= net::kFrameTypeOffset ||
      frame[net::kFrameTypeOffset] !=
          static_cast<std::uint8_t>(net::MessageType::kCheckin))
    return false;
  try {
    const net::Frame f = net::decode_frame(response);
    return f.type == net::MessageType::kAck &&
           net::AckMessage::deserialize(f.payload).ok;
  } catch (const net::CodecError&) {
    return false;
  }
}

void install_overwrite_replay(store::DurableStoreOptions& opts) {
  opts.opaque_replay = [](core::Server& server, std::uint64_t seq,
                          const net::Bytes& payload) {
    const auto rec = OverwriteRecord::deserialize(payload);
    const std::uint64_t v = server.overwrite_parameters(rec.w);
    if (v != seq)
      throw store::WalError("overwrite replay produced version " +
                            std::to_string(v) + ", record says " +
                            std::to_string(seq));
  };
}

}  // namespace crowdml::engine
