// Engine stress capstone: 64 concurrent device connections through the
// epoll serving engine, behind a seeded fault-injection proxy, with a
// group-committing DurableStore underneath. The run must complete, and
// the durability contract must survive the chaos: destroying the store
// without any clean shutdown (a crash stand-in) and recovering into a
// fresh server must preserve every checkin that was ever acked — group
// commit releases acks only after the batch fsync.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "core/tcp_runtime.hpp"
#include "data/mixture.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "net/fault_proxy.hpp"
#include "opt/schedule.hpp"
#include "store/durable_store.hpp"

using namespace crowdml;

namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_engine_chaos_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::unique_ptr<opt::Updater> sgd() {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(30.0), 500.0);
}

}  // namespace

TEST(EngineChaos, SixtyFourDevicesNoAckedCheckinLost) {
  rng::Engine data_eng(77);
  data::MixtureSpec spec;
  spec.num_classes = 3;
  spec.raw_dim = 30;
  spec.latent_dim = 12;
  spec.pca_dim = 8;
  spec.separation = 3.5;
  spec.train_size = 640;
  spec.test_size = 200;
  const data::Dataset ds = data::generate_mixture(spec, data_eng);

  models::MulticlassLogisticRegression model(3, 8, 0.0);
  net::AuthRegistry registry(rng::Engine(2));
  TempDir dir;

  constexpr std::size_t kDevices = 64;
  rng::Engine shard_eng(3);
  const auto shards = data::shard_across_devices(ds.train, kDevices, shard_eng);

  core::ReconnectPolicy policy;
  policy.connect_timeout_ms = 2000;
  policy.io_deadline_ms = 500;  // bound every blackholed wait
  policy.max_attempts = 10;
  policy.backoff_base_ms = 2;
  policy.backoff_max_ms = 50;

  core::NetCounters device_counters;
  std::vector<std::unique_ptr<core::Device>> devices;
  std::vector<std::unique_ptr<core::ReconnectingDeviceSession>> sessions;
  std::vector<std::unique_ptr<core::DeviceClient>> clients;

  net::FaultCounts faults;
  core::NetCountersSnapshot engine_net;
  long long shed = 0;
  std::uint64_t live_version = 0;

  {
    core::ServerConfig scfg;
    scfg.param_dim = model.param_dim();
    scfg.num_classes = 3;
    core::Server server(scfg, sgd(), rng::Engine(1));

    store::DurableStoreOptions sopts;
    sopts.wal.fsync = store::FsyncPolicy::kAlways;
    store::DurableStore store(dir.path, sopts);
    store.recover(server);
    store.attach(server);
    store.set_group_commit(true);

    engine::EngineConfig ecfg;
    ecfg.io_threads = 2;
    ecfg.idle_timeout_ms = 2000;  // reap links the proxy half-killed
    ecfg.group_commit = [&store] { return store.commit_group(); };
    engine::EpollCrowdServer eng(server, registry, ecfg);

    // A milder storm than chaos_tcp_test: with 64 devices there is an
    // order of magnitude more traffic for the faults to land on.
    net::FaultPolicy chaos;
    chaos.drop_conn_prob = 0.02;  // per relayed chunk
    chaos.truncate_prob = 0.005;
    chaos.corrupt_prob = 0.01;
    chaos.delay_prob = 0.1;
    chaos.max_delay_ms = 2;
    chaos.blackhole_prob = 0.02;
    net::FaultProxy proxy("127.0.0.1", eng.port(), chaos, rng::Engine(4242));

    for (std::size_t d = 0; d < kDevices; ++d) {
      core::DeviceConfig dc;
      dc.minibatch_size = 5;
      dc.budget = privacy::PrivacyBudget::gradient_dominated(20.0);
      devices.push_back(
          std::make_unique<core::Device>(dc, model, rng::Engine(100 + d)));
      devices.back()->set_credentials(registry.enroll());
      sessions.push_back(std::make_unique<core::ReconnectingDeviceSession>(
          "127.0.0.1", proxy.port(), policy, rng::Engine(500 + d),
          &device_counters, nullptr, devices.back()->id()));
      clients.push_back(std::make_unique<core::DeviceClient>(
          *devices.back(), sessions.back()->as_exchange()));
    }

    std::vector<std::thread> threads;
    for (std::size_t d = 0; d < kDevices; ++d) {
      threads.emplace_back([&, d] {
        for (int pass = 0; pass < 2; ++pass)
          for (const auto& s : shards[d]) clients[d]->offer_sample(s);
      });
    }
    for (auto& t : threads) t.join();

    faults = proxy.counts();
    proxy.shutdown();
    eng.shutdown();
    engine_net = eng.net_snapshot();
    shed = eng.pool().queue(0).shed();
    live_version = server.version();
    // No sync(), no orderly store teardown beyond the destructor: from
    // here on only what group commit already fsynced may count.
  }

  // The storm was real and the engine carried 64 devices through it.
  ASSERT_GE(faults.connections, static_cast<long long>(kDevices));
  EXPECT_GE(engine_net.accepted_connections,
            static_cast<long long>(kDevices));
  EXPECT_GT(faults.killed_connections(), 0);

  long long acked = 0, failures = 0;
  for (const auto& c : clients) {
    acked += c->cycles_completed();
    failures += c->cycles_failed();
  }
  EXPECT_GT(acked, 100);
  EXPECT_GE(static_cast<long long>(live_version), acked);

  // Crash recovery: a fresh server restored from the directory must hold
  // every acked checkin (it may hold more — applied-but-ack-lost is the
  // allowed direction under chaos, never the reverse).
  core::ServerConfig scfg;
  scfg.param_dim = model.param_dim();
  scfg.num_classes = 3;
  core::Server recovered(scfg, sgd(), rng::Engine(9));
  store::DurableStore store(dir.path, {});
  const auto info = store.recover(recovered);
  EXPECT_EQ(recovered.version(), live_version);
  EXPECT_GE(static_cast<long long>(info.recovered_version), acked);
  for (std::size_t d = 0; d < kDevices; ++d) {
    const auto st = recovered.device_stats(devices[d]->id());
    EXPECT_GE(st.checkins, clients[d]->cycles_completed())
        << "device " << devices[d]->id() << " lost an acked checkin";
    // And the replay double-apply audit from the legacy chaos test still
    // holds through the queue + applier path.
    EXPECT_LE(st.checkins, sessions[d]->checkin_frames_sent());
  }

  // Load shedding is allowed under chaos but must have been hinted, not
  // silent: every shed is observable on the engine's own counter.
  EXPECT_GE(shed, 0);
}
