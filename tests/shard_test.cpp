// Sharded-leader tests (docs/SHARDING.md): the stable device hash is
// pinned byte-for-byte (a wire-adjacent contract), the shard map
// partitions and parses correctly, the fixed-point merge is exactly
// deterministic (live apply == WAL replay, bit for bit), Shard* frames
// are refused without the replication-key seal, wrong-shard checkins
// redirect pre-application and ReconnectingDeviceSession follows them,
// and a two-shard cluster with a MergeDirector converges every shard to
// the identical count-weighted model (the ShardSmoke suite backing the
// shard_smoke ctest).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "opt/schedule.hpp"
#include "shard/director.hpp"
#include "shard/merge.hpp"
#include "shard/service.hpp"
#include "shard/shard_map.hpp"
#include "store/durable_store.hpp"

using namespace crowdml;

namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_shard_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

core::ServerConfig server_config(std::size_t param_dim, std::size_t classes) {
  core::ServerConfig c;
  c.param_dim = param_dim;
  c.num_classes = classes;
  return c;
}

std::unique_ptr<opt::Updater> sgd(double c = 1.0) {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(c), 500.0);
}

// Apply `n` deterministic direct checkins so a server's model diverges
// from its initial state in a reproducible way.
void apply_checkins(core::Server& server, int n, double scale) {
  for (int i = 0; i < n; ++i) {
    net::CheckinMessage m;
    m.device_id = 1 + static_cast<std::uint64_t>(i);
    m.g_hat = {scale * 0.1, -scale * 0.2, scale * 0.3, -scale * 0.4};
    m.ns = 5;
    m.ne_hat = 1;
    m.ny_hat = {2, 3};
    ASSERT_TRUE(server.handle_checkin(m).ok);
  }
}

net::Bytes sealed_frame(const replica::ReplKey& key, net::MessageType type,
                        const net::Bytes& payload) {
  return net::encode_frame(type,
                           replica::seal_repl_payload(key, type, payload));
}

replica::ReplKey test_key() { return replica::ReplKey{1, 2, 3, 4, 5, 6}; }

}  // namespace

// ----------------------------------------------------------- shard map

TEST(ShardMap, StableHashPinnedForever) {
  // Changing stable_device_hash re-partitions every deployed fleet at
  // once (checkins start bouncing between shards). These values are the
  // contract; a mismatch here means a flag-day wire break.
  EXPECT_EQ(shard::stable_device_hash(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(shard::stable_device_hash(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(shard::stable_device_hash(2), 0x975835de1c9756ceULL);
  EXPECT_EQ(shard::stable_device_hash(17), 0x808475f02ee37363ULL);
  EXPECT_EQ(shard::stable_device_hash(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(shard::stable_device_hash(0xDEADBEEFULL), 0x4adfb90f68c9eb9bULL);
  EXPECT_EQ(shard::stable_device_hash(~0ULL), 0xe4d971771b652c20ULL);
}

TEST(ShardMap, ParsesCsvAndRejectsGarbage) {
  const auto map = shard::ShardMap::parse("127.0.0.1:9000,10.0.0.2:9001");
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->size(), 2u);
  EXPECT_EQ(map->addr(0), "127.0.0.1:9000");
  EXPECT_EQ(map->addr(1), "10.0.0.2:9001");

  EXPECT_FALSE(shard::ShardMap::parse("").has_value());
  EXPECT_FALSE(shard::ShardMap::parse("no-port").has_value());
  EXPECT_FALSE(shard::ShardMap::parse("h:1,,h:2").has_value());
  EXPECT_FALSE(shard::ShardMap::parse("h:1,h:notaport").has_value());
}

TEST(ShardMap, PartitionsEveryDeviceAndSingleShardOwnsAll) {
  const shard::ShardMap map({"a:1", "b:2", "c:3"});
  // shard_of is hash mod size, so it must agree with the pinned hash.
  for (std::uint64_t id = 0; id < 500; ++id) {
    const std::size_t s = map.shard_of(id);
    EXPECT_LT(s, 3u);
    EXPECT_EQ(s, shard::stable_device_hash(id) % 3);
  }
  // --shards 1: every device maps to shard 0, so no redirect can fire.
  const shard::ShardMap one({"a:1"});
  for (std::uint64_t id = 0; id < 100; ++id) EXPECT_EQ(one.shard_of(id), 0u);
}

TEST(ShardMap, WalDirNamespacing) {
  EXPECT_EQ(shard::shard_wal_dir("/w", 0, 1), "/w");
  EXPECT_EQ(shard::shard_wal_dir("/w", 0, 4), "/w/shard-000");
  EXPECT_EQ(shard::shard_wal_dir("/w", 3, 4), "/w/shard-003");
}

// ---------------------------------------------------------- merge math

TEST(ShardMerge, QuantizeRoundTripsOnGrid) {
  const linalg::Vector w = {0.5, -1.25, 0.0, 123.456, -0.000001};
  const auto q = shard::quantize_params(w);
  const linalg::Vector back = shard::dequantize_params(q);
  ASSERT_EQ(back.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_NEAR(back[i], w[i], 1.0 / (1 << 20));
  // Dequantize(quantize) is idempotent: a second round trip is exact.
  EXPECT_EQ(shard::quantize_params(back), q);
}

TEST(ShardMerge, CountWeightedAverageIsExactInFixedPoint) {
  net::ShardModelMessage a;
  a.checkins = 1;
  a.q = shard::quantize_params({1.0, -2.0});
  net::ShardModelMessage b;
  b.checkins = 3;
  b.q = shard::quantize_params({5.0, 2.0});

  const auto merged = shard::merge_models({a, b});
  ASSERT_TRUE(merged.has_value());
  // (1*1 + 3*5)/4 = 4.0 and (1*-2 + 3*2)/4 = 1.0 — exact on the grid.
  const linalg::Vector w = shard::dequantize_params(*merged);
  EXPECT_DOUBLE_EQ(w[0], 4.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0);
  EXPECT_EQ(shard::total_checkins({a, b}), 4u);
}

TEST(ShardMerge, ZeroWeightShardsAndDegenerateCyclesSkipped) {
  net::ShardModelMessage idle;
  idle.checkins = 0;
  idle.q = shard::quantize_params({100.0, 100.0});
  net::ShardModelMessage busy;
  busy.checkins = 7;
  busy.q = shard::quantize_params({2.0, -2.0});

  // An idle shard contributes no weight: the merge equals the busy model.
  const auto merged = shard::merge_models({idle, busy});
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, busy.q);

  // All idle: nothing to merge.
  EXPECT_FALSE(shard::merge_models({idle, idle}).has_value());
  // Dimension disagreement: refuse rather than corrupt.
  net::ShardModelMessage short_model;
  short_model.checkins = 1;
  short_model.q = {1};
  EXPECT_FALSE(shard::merge_models({busy, short_model}).has_value());
  // Empty pull set: nothing to merge.
  EXPECT_FALSE(shard::merge_models({}).has_value());
}

TEST(ShardMerge, MergeRecordRoundTripsAndRejectsForeignKinds) {
  shard::MergeRecord rec;
  rec.merge_round = 12;
  rec.total_checkins = 99;
  rec.w = {0.25, -0.5, 0.75};
  const net::Bytes bytes = rec.serialize();

  const shard::MergeRecord back = shard::MergeRecord::deserialize(bytes);
  EXPECT_EQ(back.merge_round, 12u);
  EXPECT_EQ(back.total_checkins, 99u);
  EXPECT_EQ(back.w, rec.w);

  // A plain checkin payload is not a merge record.
  net::CheckinMessage m;
  m.device_id = 1;
  m.g_hat = {0.1};
  m.ny_hat = {1};
  EXPECT_THROW(shard::MergeRecord::deserialize(m.serialize()),
               net::CodecError);
  EXPECT_THROW(shard::MergeRecord::deserialize({}), net::CodecError);
}

// ------------------------------------------------------- shard service

TEST(ShardService, PullReportsModelAndCheckinWeight) {
  core::Server server(server_config(4, 2), sgd(), rng::Engine(1));
  shard::ShardServiceConfig cfg;
  cfg.shard_id = 3;
  cfg.key = test_key();
  // The checkin weight baselines at construction (i.e. post-recovery).
  shard::ShardService svc(cfg, server);
  apply_checkins(server, 5, 1.0);

  net::ShardPullMessage pull;
  pull.merge_round = 1;
  const net::Bytes reply = svc.handle_shard_pull(replica::seal_repl_payload(
      cfg.key, net::MessageType::kShardPull, pull.serialize()));
  const net::Frame f = net::decode_frame(reply);
  ASSERT_EQ(f.type, net::MessageType::kShardModel);
  const auto opened = replica::open_repl_payload(
      cfg.key, net::MessageType::kShardModel, f.payload);
  ASSERT_TRUE(opened.has_value());
  const auto model = net::ShardModelMessage::deserialize(*opened);
  EXPECT_EQ(model.shard_id, 3u);
  EXPECT_EQ(model.merge_round, 1u);
  EXPECT_EQ(model.version, 5u);
  EXPECT_EQ(model.checkins, 5u);
  EXPECT_EQ(shard::dequantize_params(model.q),
            shard::dequantize_params(shard::quantize_params(
                server.parameters())));
}

TEST(ShardService, UnsealedFramesRefused) {
  core::Server server(server_config(4, 2), sgd(), rng::Engine(1));
  shard::ShardServiceConfig cfg;
  cfg.key = test_key();
  shard::ShardService svc(cfg, server);

  net::ShardPullMessage pull;
  // No seal at all: refused.
  net::Bytes reply = svc.handle_shard_pull(pull.serialize());
  net::Frame f = net::decode_frame(reply);
  ASSERT_EQ(f.type, net::MessageType::kAck);
  EXPECT_FALSE(net::AckMessage::deserialize(f.payload).ok);

  // Sealed under the wrong key: refused, and nothing was applied.
  net::ShardMergePushMessage push;
  push.merge_round = 1;
  push.q = shard::quantize_params({1, 2, 3, 4});
  reply = svc.handle_shard_merge_push(replica::seal_repl_payload(
      replica::ReplKey{9, 9, 9}, net::MessageType::kShardMergePush,
      push.serialize()));
  f = net::decode_frame(reply);
  ASSERT_EQ(f.type, net::MessageType::kAck);
  EXPECT_FALSE(net::AckMessage::deserialize(f.payload).ok);
  EXPECT_EQ(server.version(), 0u);
  EXPECT_EQ(svc.merges_applied(), 0u);

  // A seal for one Shard type must not open another (type byte is
  // inside the MAC): a ShardPull seal replayed as a merge push fails.
  reply = svc.handle_shard_merge_push(replica::seal_repl_payload(
      cfg.key, net::MessageType::kShardPull, push.serialize()));
  EXPECT_FALSE(
      net::AckMessage::deserialize(net::decode_frame(reply).payload).ok);
  EXPECT_EQ(server.version(), 0u);
}

TEST(ShardService, MergePushAppliesOnceAndIsIdempotentPerRound) {
  core::Server server(server_config(4, 2), sgd(), rng::Engine(1));
  apply_checkins(server, 3, 1.0);
  shard::ShardServiceConfig cfg;
  cfg.key = test_key();
  shard::ShardService svc(cfg, server);

  net::ShardMergePushMessage push;
  push.merge_round = 1;
  push.total_checkins = 8;
  push.q = shard::quantize_params({0.5, -0.5, 0.25, -0.25});

  const auto send = [&] {
    const net::Bytes reply = svc.handle_shard_merge_push(
        replica::seal_repl_payload(cfg.key, net::MessageType::kShardMergePush,
                                   push.serialize()));
    return net::AckMessage::deserialize(net::decode_frame(reply).payload);
  };

  ASSERT_TRUE(send().ok);
  const std::uint64_t version_after = server.version();
  EXPECT_EQ(version_after, 4u);  // 3 checkins + 1 merge overwrite
  EXPECT_EQ(server.parameters(), shard::dequantize_params(push.q));
  EXPECT_EQ(svc.merges_applied(), 1u);
  EXPECT_EQ(svc.checkins_since_merge(), 0u);

  // A director retry of the same round acks ok but must not re-apply.
  ASSERT_TRUE(send().ok);
  EXPECT_EQ(server.version(), version_after);
  EXPECT_EQ(svc.merges_applied(), 1u);

  // The next round applies again.
  push.merge_round = 2;
  ASSERT_TRUE(send().ok);
  EXPECT_EQ(server.version(), version_after + 1);
  EXPECT_EQ(svc.last_merge_round(), 2u);
}

// The merge staleness tau is a count of updates, so it gets count
// buckets (1, 4, 16, ...): a tau of 8 and a tau of 100 land in distinct
// finite buckets instead of piling up at the top of a seconds layout.
TEST(ShardService, MergeStalenessHistogramUsesCountBuckets) {
  core::Server server(server_config(4, 2), sgd(), rng::Engine(1));
  obs::MetricsRegistry reg;
  shard::ShardServiceConfig cfg;
  cfg.key = test_key();
  cfg.metrics = &reg;
  shard::ShardService svc(cfg, server);

  const auto merge_round = [&](std::uint64_t round, int checkins_between) {
    net::ShardPullMessage pull;
    pull.merge_round = round;
    svc.handle_shard_pull(replica::seal_repl_payload(
        cfg.key, net::MessageType::kShardPull, pull.serialize()));
    apply_checkins(server, checkins_between, 1.0);
    net::ShardMergePushMessage push;
    push.merge_round = round;
    push.q = shard::quantize_params(server.parameters());
    const net::Bytes reply = svc.handle_shard_merge_push(
        replica::seal_repl_payload(cfg.key, net::MessageType::kShardMergePush,
                                   push.serialize()));
    ASSERT_TRUE(
        net::AckMessage::deserialize(net::decode_frame(reply).payload).ok);
  };
  merge_round(1, 8);
  merge_round(2, 100);

  obs::Histogram::Snapshot snap;
  for (const auto& row : reg.snapshot().histograms)
    if (row.name == "crowdml_shard_merge_staleness_updates") snap = row.data;
  ASSERT_EQ(snap.count, 2);
  EXPECT_DOUBLE_EQ(snap.sum, 108.0);
  ASSERT_FALSE(snap.bounds.empty());
  EXPECT_DOUBLE_EQ(snap.bounds.front(), 1.0);
  const auto bucket_of = [&](double v) {
    std::size_t i = 0;
    while (i < snap.bounds.size() && v > snap.bounds[i]) ++i;
    return i;
  };
  const std::size_t b8 = bucket_of(8.0);
  const std::size_t b100 = bucket_of(100.0);
  EXPECT_NE(b8, b100);
  EXPECT_LT(b100, snap.bounds.size());  // a finite bucket, not +Inf
  EXPECT_EQ(snap.buckets[b8], 1);
  EXPECT_EQ(snap.buckets[b100], 1);
}

TEST(ShardService, DimensionMismatchRejectedWithoutStateChange) {
  core::Server server(server_config(4, 2), sgd(), rng::Engine(1));
  shard::ShardServiceConfig cfg;
  shard::ShardService svc(cfg, server);  // empty key: seal is pass-through

  net::ShardMergePushMessage push;
  push.merge_round = 1;
  push.q = shard::quantize_params({1.0, 2.0});  // wrong dim
  const net::Bytes reply =
      svc.handle_shard_merge_push(replica::seal_repl_payload(
          cfg.key, net::MessageType::kShardMergePush, push.serialize()));
  EXPECT_FALSE(
      net::AckMessage::deserialize(net::decode_frame(reply).payload).ok);
  EXPECT_EQ(server.version(), 0u);
  EXPECT_EQ(svc.merges_applied(), 0u);
}

// --------------------------------------------- WAL replay determinism

TEST(ShardService, MergeReplayFromWalIsByteIdenticalToLiveState) {
  TempDir dir;
  const auto checkin = [](int i) {
    net::CheckinMessage m;
    m.device_id = 1 + static_cast<std::uint64_t>(i);
    m.g_hat = {0.1, -0.2, 0.3, -0.4};
    m.ns = 5;
    m.ne_hat = 1;
    m.ny_hat = {2, 3};
    return m;
  };

  linalg::Vector live_w;
  std::uint64_t live_version = 0;
  {
    core::Server server(server_config(4, 2), sgd(), rng::Engine(1));
    store::DurableStoreOptions sopts;
    shard::install_merge_replay(sopts);
    store::DurableStore store(dir.path, sopts);
    store.recover(server);
    store.attach(server);
    shard::ShardServiceConfig cfg;
    cfg.key = test_key();
    cfg.store = &store;
    shard::ShardService svc(cfg, server);

    for (int i = 0; i < 4; ++i)
      ASSERT_TRUE(server.handle_checkin(checkin(i)).ok);

    net::ShardMergePushMessage push;
    push.merge_round = 1;
    push.total_checkins = 10;
    push.q = shard::quantize_params({0.5, -0.5, 0.25, -0.25});
    const net::Bytes reply =
        svc.handle_shard_merge_push(replica::seal_repl_payload(
            cfg.key, net::MessageType::kShardMergePush, push.serialize()));
    ASSERT_TRUE(
        net::AckMessage::deserialize(net::decode_frame(reply).payload).ok);

    // Keep training after the merge: replay must interleave correctly.
    for (int i = 4; i < 7; ++i)
      ASSERT_TRUE(server.handle_checkin(checkin(i)).ok);

    live_w = server.parameters();
    live_version = server.version();
    store.sync();
  }

  // Crash-recover into a fresh server: same options, same replay hook.
  core::Server recovered(server_config(4, 2), sgd(), rng::Engine(1));
  store::DurableStoreOptions sopts;
  shard::install_merge_replay(sopts);
  store::DurableStore store(dir.path, sopts);
  const auto info = store.recover(recovered);
  EXPECT_EQ(info.recovered_version, live_version);
  EXPECT_EQ(recovered.version(), live_version);
  // Bit-for-bit: the merge was applied in fixed point, so replay and
  // live state agree exactly, not just approximately.
  EXPECT_EQ(recovered.parameters(), live_w);
}

// ---------------------------------------------------- protocol parity

TEST(ShardProtocol, AttachedHandlerLeavesClassicFramesByteIdentical) {
  // `--shards 1` promises byte-identity on the wire: a ProtocolServer
  // with a ShardService attached must answer every classic frame with
  // exactly the bytes the unsharded server produces.
  net::AuthRegistry registry(rng::Engine(2));
  const auto creds = registry.enroll();

  core::Server plain(server_config(4, 2), sgd(), rng::Engine(1));
  core::Server sharded(server_config(4, 2), sgd(), rng::Engine(1));
  core::ProtocolServer plain_proto(plain, registry);
  core::ProtocolServer sharded_proto(sharded, registry);
  shard::ShardServiceConfig cfg;
  cfg.key = test_key();
  shard::ShardService svc(cfg, sharded);
  sharded_proto.set_shard(&svc);

  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  const net::Bytes checkout =
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize());
  EXPECT_EQ(plain_proto.handle(checkout), sharded_proto.handle(checkout));

  net::CheckinMessage m;
  m.device_id = creds.device_id;
  m.g_hat = {0.1, -0.2, 0.3, -0.4};
  m.ns = 5;
  m.ne_hat = 1;
  m.ny_hat = {2, 3};
  m.param_version = 0;
  m.auth_tag = creds.sign(m.body());
  const net::Bytes checkin =
      net::encode_frame(net::MessageType::kCheckin, m.serialize());
  EXPECT_EQ(plain_proto.handle(checkin), sharded_proto.handle(checkin));
  EXPECT_EQ(plain.parameters(), sharded.parameters());
}

TEST(ShardProtocol, ShardFramesNackedWhenShardingDisabled) {
  core::Server server(server_config(4, 2), sgd(), rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  core::ProtocolServer proto(server, registry);

  net::ShardPullMessage pull;
  const net::Bytes reply = proto.handle(
      net::encode_frame(net::MessageType::kShardPull, pull.serialize()));
  const net::Frame f = net::decode_frame(reply);
  ASSERT_EQ(f.type, net::MessageType::kAck);
  const auto ack = net::AckMessage::deserialize(f.payload);
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.reason, "sharding disabled");
}

// ------------------------------------------------------------- smoke

// End-to-end sharded cluster (also run as the shard_smoke ctest): two
// epoll shards, devices hash-routed with wrong-shard redirects, and a
// MergeDirector cycle that converges both shards to one model.
TEST(ShardSmoke, TwoShardsMergeAndRedirectDevices) {
  const replica::ReplKey key = test_key();
  net::AuthRegistry registry(rng::Engine(2));

  core::Server s0(server_config(4, 2), sgd(), rng::Engine(1));
  core::Server s1(server_config(4, 2), sgd(), rng::Engine(1));
  shard::ShardServiceConfig cfg0, cfg1;
  cfg0.shard_id = 0;
  cfg0.key = key;
  cfg1.shard_id = 1;
  cfg1.key = key;
  shard::ShardService svc0(cfg0, s0), svc1(cfg1, s1);

  // Bind both engines first, then publish the map and install routes.
  engine::EngineConfig e0, e1;
  obs::MetricsRegistry reg0, reg1;
  e0.metrics = &reg0;
  e1.metrics = &reg1;
  e0.shard = &svc0;
  e1.shard = &svc1;
  // Each engine's route needs the other's ephemeral port, so the map is
  // filled in after both binds; the route closures read it lazily (no
  // checkin arrives before the fill, and in production the map is a
  // static flag anyway).
  shard::ShardMap map;
  const auto route_for = [&map](std::size_t self) {
    return [&map, self](std::uint64_t id) -> std::optional<std::string> {
      if (map.size() < 2) return std::nullopt;
      const std::size_t owner = map.shard_of(id);
      if (owner == self) return std::nullopt;
      return map.addr(owner);
    };
  };
  e0.shard_route = route_for(0);
  e1.shard_route = route_for(1);
  auto eng0 = std::make_unique<engine::EpollCrowdServer>(s0, registry, e0);
  auto eng1 = std::make_unique<engine::EpollCrowdServer>(s1, registry, e1);
  const std::string addr0 = "127.0.0.1:" + std::to_string(eng0->port());
  const std::string addr1 = "127.0.0.1:" + std::to_string(eng1->port());
  map = shard::ShardMap({addr0, addr1});

  // Drive devices: each starts at the WRONG shard on purpose; the
  // pre-application wrong-shard nack redirects the session, which
  // replays the checkin at the owner — no checkin is lost or doubled.
  models::MulticlassLogisticRegression model(2, 2, 0.0);
  int cycles = 0;
  for (int d = 0; d < 8; ++d) {
    const auto creds = registry.enroll();
    const std::size_t owner = map.shard_of(creds.device_id);
    const std::string& wrong = owner == 0 ? addr1 : addr0;
    const auto hp = net::split_host_port(wrong);
    ASSERT_TRUE(hp.has_value());

    core::DeviceConfig dc;
    dc.minibatch_size = 2;
    dc.budget = privacy::PrivacyBudget::gradient_dominated(50.0);
    core::Device dev(dc, model, rng::Engine(100 + d));
    dev.set_credentials(creds);
    core::ReconnectPolicy rp;
    rp.io_deadline_ms = 5000;
    core::ReconnectingDeviceSession session(
        hp->first, hp->second, rp, rng::Engine(7 + d), nullptr, nullptr,
        creds.device_id);
    core::DeviceClient client(dev, session.as_exchange());
    for (int i = 0; i < 4; ++i) {
      models::Sample s;
      s.x = {0.3, 0.7};
      s.y = d % 2;
      if (client.offer_sample(s)) ++cycles;
    }
    EXPECT_GE(session.redirects_followed(), 1) << "device " << d;
  }
  ASSERT_GT(cycles, 0);
  // Every checkin landed on its owner: totals add up, and both shards
  // saw some traffic (the hash splits 8 devices across 2 shards with
  // overwhelming probability — and deterministically for this seed).
  EXPECT_EQ(s0.version() + s1.version(), static_cast<std::uint64_t>(cycles));
  EXPECT_GT(s0.version(), 0u);
  EXPECT_GT(s1.version(), 0u);

  // One director cycle: both shards converge to the identical merged
  // model, applied as one more (stale) update each.
  shard::MergeDirectorConfig dcfg;
  dcfg.map = map;
  dcfg.key = key;
  shard::MergeDirector director(dcfg);
  const shard::MergeCycleResult r = director.run_once();
  EXPECT_TRUE(r.merged) << r.error;
  EXPECT_EQ(r.shards_pulled, 2u);
  EXPECT_EQ(r.shards_pushed, 2u);
  EXPECT_EQ(r.total_checkins, static_cast<std::uint64_t>(cycles));
  EXPECT_EQ(svc0.merges_applied(), 1u);
  EXPECT_EQ(svc1.merges_applied(), 1u);
  EXPECT_EQ(s0.parameters(), s1.parameters());

  // A second immediate cycle has nothing new to weigh: both shards
  // report zero checkins since the merge, so the director skips it.
  const shard::MergeCycleResult r2 = director.run_once();
  EXPECT_FALSE(r2.merged);
  EXPECT_EQ(director.rounds_completed(), 1u);
  EXPECT_EQ(director.rounds_skipped(), 1u);

  eng0->shutdown();
  eng1->shutdown();
}

TEST(ShardSmoke, DirectorToleratesUnreachableShard) {
  const replica::ReplKey key = test_key();
  net::AuthRegistry registry(rng::Engine(2));
  core::Server s0(server_config(4, 2), sgd(), rng::Engine(1));
  shard::ShardServiceConfig cfg0;
  cfg0.key = key;
  shard::ShardService svc0(cfg0, s0);
  engine::EngineConfig e0;
  obs::MetricsRegistry reg;
  e0.metrics = &reg;
  e0.shard = &svc0;
  engine::EpollCrowdServer eng0(s0, registry, e0);
  apply_checkins(s0, 3, 1.0);

  shard::MergeDirectorConfig dcfg;
  dcfg.map = shard::ShardMap(
      {"127.0.0.1:" + std::to_string(eng0.port()), "127.0.0.1:1"});
  dcfg.key = key;
  dcfg.connect_timeout_ms = 200;
  shard::MergeDirector director(dcfg);

  // Only one shard reachable: nothing to reconcile, cycle skipped, and
  // the reachable shard's weight keeps accumulating for the next cycle.
  const shard::MergeCycleResult r = director.run_once();
  EXPECT_FALSE(r.merged);
  EXPECT_EQ(r.shards_pulled, 1u);
  EXPECT_EQ(svc0.merges_applied(), 0u);
  EXPECT_EQ(svc0.checkins_since_merge(), 3u);
  eng0.shutdown();
}
