// Open-loop coordinator bench: does pace steering turn shedding into
// scheduling at six-figure fleet sizes?
//
// Two identical phases run against a fresh in-process epoll engine with
// a durable (fsync=always) WAL and a configurable extra commit delay
// modeling quorum-grade commits — the delay pins the applier's service
// rate far below the fleet's unpaced arrival rate, so the outcome is a
// property of the steering policy, not of this machine's disk:
//
//   unsteered  the pre-coordinator engine: devices arrive per their
//              think times, the queue overflows, and the only defense is
//              the reactive retry_after nack — the shed rate IS the
//              overload;
//   steered    the same fleet with a coord::Coordinator wired in: every
//              ack carries a next_checkin_hint_ms, devices come back
//              when told, arrivals converge to target_utilization x the
//              measured service rate, and steady-state shedding should
//              collapse to ~0.
//
// The fleet is src/coord/load_gen.cpp's open-loop generator (lognormal
// think, Pareto sessions, dropout/rejoin, seeded), ≥100k simulated
// device timelines on a handful of threads. Warmup is excluded from all
// stats: a steered fleet is only paced after each device has heard one
// hint, which takes about one think period — warmup must cover it.
//
// Flags:
//   --devices N            fleet size             (default 100000)
//   --think-mean S         mean think time        (default 20)
//   --warmup S             excluded transient     (default 25)
//   --duration S           measured window        (default 10)
//   --workers N            generator threads      (default 4)
//   --queue-max N          admission bound        (default 256)
//   --batch-max N          applier batch          (default 64)
//   --commit-delay-ms N    extra per-commit delay (default 15)
//   --classes SPEC         device classes         (default fast:4,slow:1)
//   --seed N               timeline seed          (default 1)
//   --json-out PATH        machine-readable results (BENCH_coordinator.json)
//
// Secure-aggregation mode (--secagg-cohort c > 0 replaces the phases
// above): a small TCP fleet runs classic LDP checkins, then cohort-mode
// masked checkins without and with mid-round deaths, and the phase table
// lands in BENCH_secagg.json — masked vs classic throughput plus round
// completion/recovery/abort counts vs the dropout rate:
//   --secagg-cohort c              cohort size (enables the mode)
//   --secagg-min-survivors N       abort threshold       (default 2)
//   --secagg-round-timeout-ms N    collect/reveal window (default 300)
//   --secagg-devices N             fleet size            (default 3c)
//   --secagg-duration S            per-phase window      (default 3)
//   --secagg-dropout P             death probability     (default 0.25)
//   --json-out PATH                results (default BENCH_secagg.json)
//
// Sharding mode (--shards "1,2,4" replaces the phases above): the same
// open-loop fleet at the SAME total arrival rate, split across k shard
// leaders (one epoll engine + fsync-always WAL + commit delay each, the
// merge director reconciling models every --shard-merge-ms). Reports
// aggregate acked-checkin throughput, shed rate, and merge staleness
// p50/p99 per shard count into BENCH_sharding.json. Single-process,
// single-machine: see EXPERIMENTS.md for the single-core caveat.
//   --shards LIST                  shard counts (enables the mode)
//   --shard-devices N              total fleet size      (default 3000)
//   --shard-think-mean S           mean think time       (default 0.5)
//   --shard-warmup S               excluded transient    (default 2)
//   --shard-duration S             measured window       (default 4)
//   --shard-merge-ms N             merge cadence         (default 150)
//   --queue-max / --batch-max / --commit-delay-ms as above (batch
//   default 32 here so one shard saturates below the offered rate)
//   --json-out PATH                results (default BENCH_sharding.json)
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>

#include "bench/common.hpp"
#include "coord/coordinator.hpp"
#include "coord/load_gen.hpp"
#include "core/protocol.hpp"
#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "rng/distributions.hpp"
#include "secagg/cohort.hpp"
#include "shard/director.hpp"
#include "shard/merge.hpp"
#include "shard/service.hpp"
#include "shard/shard_map.hpp"
#include "store/durable_store.hpp"
#include "tools/flags.hpp"

namespace {

using namespace crowdml;

constexpr std::size_t kDim = 16;
constexpr std::size_t kNumClasses = 2;

struct PhaseResult {
  const char* label;
  coord::LoadGenStats gen;
  double offered_per_s = 0.0;
  double depth_mean = 0.0, depth_std = 0.0;
  std::size_t depth_max = 0;
  double service_rate = 0.0, target_rate = 0.0;  // steering introspection
};

core::Server make_server() {
  core::ServerConfig cfg;
  cfg.param_dim = kDim;
  cfg.num_classes = kNumClasses;
  return core::Server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(50.0), 500.0),
                      rng::Engine(1));
}

PhaseResult run_phase(const char* label, bool steered,
                      const coord::LoadGenConfig& gen_base,
                      const coord::DeviceClassTable& classes,
                      std::size_t queue_max, std::size_t batch_max,
                      int commit_delay_ms) {
  PhaseResult res;
  res.label = label;

  std::string dir =
      (std::filesystem::temp_directory_path() / "crowdml_openloop_XXXXXX")
          .string();
  if (!mkdtemp(dir.data())) throw std::runtime_error("mkdtemp failed");

  core::Server server = make_server();
  net::AuthRegistry auth(rng::Engine(7));

  store::DurableStoreOptions sopts;
  sopts.wal.fsync = store::FsyncPolicy::kAlways;
  store::DurableStore store(dir, sopts);
  store.recover(server);
  store.attach(server);
  store.set_group_commit(true);

  std::optional<coord::Coordinator> coordinator;
  if (steered) {
    coord::CoordConfig ccfg;
    ccfg.steering.queue_max = queue_max;
    ccfg.steering.batch_max = batch_max;
    // At 100k devices the equilibrium hint is fleet/target_rate seconds
    // — tens of seconds — so the clamp ceiling must sit above it or the
    // clamp, not the policy, sets the arrival rate.
    ccfg.steering.max_hint_ms = 300'000;
    coordinator.emplace(ccfg, classes);
  }

  engine::EngineConfig ecfg;
  ecfg.checkin_queue_max = queue_max;
  ecfg.checkin_batch_max = batch_max;
  ecfg.max_connections = 64;
  ecfg.group_commit = [&store, commit_delay_ms] {
    if (commit_delay_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(commit_delay_ms));
    return store.commit_group();
  };
  if (coordinator) ecfg.coordinator = &*coordinator;
  engine::EpollCrowdServer engine(server, auth, ecfg);

  // Queue-depth stability sampler (10ms cadence).
  std::atomic<bool> stop_sampler{false};
  double d_sum = 0.0, d_sq = 0.0;
  long long d_n = 0;
  std::size_t d_max = 0;
  std::thread sampler([&] {
    while (!stop_sampler.load(std::memory_order_relaxed)) {
      const std::size_t d = engine.pool().queue_depth();
      d_sum += static_cast<double>(d);
      d_sq += static_cast<double>(d) * static_cast<double>(d);
      ++d_n;
      d_max = std::max(d_max, d);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  coord::LoadGenConfig gcfg = gen_base;
  gcfg.port = engine.port();
  gcfg.param_dim = kDim;
  gcfg.num_classes = kNumClasses;
  gcfg.classes = classes;
  res.gen = coord::run_load_gen(gcfg, auth);

  stop_sampler.store(true);
  sampler.join();
  if (d_n > 0) {
    res.depth_mean = d_sum / static_cast<double>(d_n);
    res.depth_std = std::sqrt(
        std::max(0.0, d_sq / static_cast<double>(d_n) -
                          res.depth_mean * res.depth_mean));
  }
  res.depth_max = d_max;
  if (res.gen.elapsed_s > 0.0)
    res.offered_per_s = static_cast<double>(res.gen.checkins_sent) /
                        res.gen.elapsed_s;
  if (coordinator) {
    res.service_rate = coordinator->steering().service_rate_per_s();
    res.target_rate = coordinator->steering().target_rate_per_s();
  }
  engine.shutdown();
  std::filesystem::remove_all(dir);
  return res;
}

// --------------------------------------------------------------------------
// Secure-aggregation mode: masked cohort checkins vs classic LDP over
// the same TCP engine, with probabilistic mid-round deaths.
// --------------------------------------------------------------------------

net::SecretKey bench_fleet_key() {
  net::SecretKey key(32);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(0x5A ^ i);
  return key;
}

models::Sample secagg_sample(rng::Engine& eng) {
  linalg::Vector x(kDim / kNumClasses);
  for (double& v : x) v = rng::normal(eng);
  linalg::l1_normalize(x);
  return models::Sample(
      std::move(x),
      static_cast<double>(rng::uniform_index(eng, kNumClasses)));
}

struct SecAggPhaseResult {
  std::string label;
  double dropout = 0.0;
  double elapsed_s = 0.0;
  long long cycles_ok = 0, failures = 0, fallbacks = 0;
  long long sealed = 0, completed = 0, recovered = 0, aborted = 0, masked = 0;
  std::uint64_t applied_updates = 0;  // server version at shutdown
};

SecAggPhaseResult run_secagg_phase(const char* label, bool classic,
                                   double dropout, std::size_t devices,
                                   std::size_t cohort,
                                   std::size_t min_survivors, int timeout_ms,
                                   double duration_s, std::uint64_t seed) {
  SecAggPhaseResult res;
  res.label = label;
  res.dropout = classic ? 0.0 : dropout;

  core::Server server = make_server();
  net::AuthRegistry auth(rng::Engine(7));
  models::MulticlassLogisticRegression model(kNumClasses, kDim / kNumClasses,
                                             0.0);

  // Local registry: phase counters must not bleed into each other (or
  // into the profile report) through the process-default registry.
  obs::MetricsRegistry metrics;
  std::unique_ptr<secagg::CohortManager> mgr;
  if (!classic) {
    secagg::CohortConfig scfg;
    scfg.cohort_size = cohort;
    scfg.min_survivors = min_survivors;
    scfg.round_timeout_ms = timeout_ms;
    scfg.poll_retry_ms = 10;
    scfg.param_dim = kDim;
    scfg.num_classes = kNumClasses;
    scfg.metrics = &metrics;
    mgr = std::make_unique<secagg::CohortManager>(
        scfg, [&server](const net::CheckinMessage& m) {
          return server.handle_checkin(m);
        });
  }

  engine::EngineConfig ecfg;
  ecfg.max_connections = devices + 8;
  ecfg.secagg = mgr.get();
  ecfg.metrics = &metrics;
  engine::EpollCrowdServer engine(server, auth, ecfg);

  std::vector<net::DeviceCredentials> creds;
  creds.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) creds.push_back(auth.enroll());

  std::atomic<long long> ok{0}, failed{0}, fallbacks{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::milliseconds(static_cast<long long>(duration_s * 1e3));

  std::vector<std::thread> fleet;
  fleet.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    fleet.emplace_back([&, i] {
      rng::Engine eng(seed * 7919 + i);
      core::DeviceConfig dc;
      dc.device_id = creds[i].device_id;
      dc.minibatch_size = 1;
      dc.budget = privacy::PrivacyBudget::gradient_dominated(1.0);
      core::Device dev(dc, model, rng::Engine(seed * 104729 + i));
      dev.set_credentials(creds[i]);
      core::ReconnectingDeviceSession session("127.0.0.1", engine.port(),
                                              core::ReconnectPolicy{},
                                              rng::Engine(seed * 31 + i));
      if (classic) {
        core::DeviceClient client(dev, session.as_exchange());
        while (std::chrono::steady_clock::now() < deadline)
          client.offer_sample(secagg_sample(eng));
        ok += client.cycles_completed();
        failed += client.cycles_failed();
        return;
      }
      // Cohort mode. A cycle marked dead drops its masked frame on the
      // floor (the round sees an assigned-but-never-submitted device and
      // must recover or abort); everything else flows normally.
      auto base = session.as_exchange();
      bool die = false;
      auto exchange = [&](const net::Bytes& req) -> std::optional<net::Bytes> {
        if (die) {
          const net::Frame f = net::decode_frame(req);
          if (f.type == net::MessageType::kSecAggMasked) return std::nullopt;
        }
        return base(req);
      };
      core::SecAggDeviceClient::Options sopts;
      sopts.fleet_key = bench_fleet_key();
      sopts.min_survivors = min_survivors;
      sopts.max_polls = 150;
      sopts.sleep_ms = [](std::uint32_t ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      };
      core::SecAggDeviceClient client(dev, exchange, sopts);
      while (std::chrono::steady_clock::now() < deadline) {
        die = rng::uniform(eng) < dropout;
        client.offer_sample(secagg_sample(eng));
        // A real death keeps the device away past the round deadline;
        // without the silence it would just re-poll, be handed its
        // still-live assignment back, and submit a fresh blob — no
        // recovery would ever be needed.
        if (die)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(timeout_ms + 50));
      }
      ok += client.cycles_completed();
      failed += client.cycles_failed();
      fallbacks += client.fallbacks_sent();
    });
  }
  for (std::thread& t : fleet) t.join();

  res.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  res.cycles_ok = ok.load();
  res.failures = failed.load();
  res.fallbacks = fallbacks.load();
  if (mgr) {
    res.sealed = mgr->rounds_sealed();
    res.completed = mgr->rounds_completed();
    res.recovered = mgr->rounds_recovered();
    res.aborted = mgr->rounds_aborted();
    res.masked = mgr->masked_checkins();
  }
  engine.shutdown();
  res.applied_updates = server.version();
  return res;
}

int run_secagg_mode(const tools::Flags& flags, const bench::Options& o,
                    std::size_t cohort) {
  bench::header("open_loop[secagg]",
                "masked cohort checkins vs classic LDP over TCP", o);

  const auto min_survivors = static_cast<std::size_t>(
      flags.get_int("secagg-min-survivors", 2));
  const int timeout_ms =
      static_cast<int>(flags.get_int("secagg-round-timeout-ms", 300));
  const auto devices = static_cast<std::size_t>(flags.get_int(
      "secagg-devices", static_cast<long long>(3 * cohort)));
  const double duration_s = flags.get_double("secagg-duration", 3.0);
  const double dropout = flags.get_double("secagg-dropout", 0.25);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  std::printf(
      "%zu devices, cohort %zu (min survivors %zu), round timeout %dms, "
      "%.1fs per phase, dropout %.0f%%\n\n",
      devices, cohort, min_survivors, timeout_ms, duration_s, dropout * 100.0);

  const SecAggPhaseResult runs[3] = {
      run_secagg_phase("classic", true, 0.0, devices, cohort, min_survivors,
                       timeout_ms, duration_s, seed),
      run_secagg_phase("secagg", false, 0.0, devices, cohort, min_survivors,
                       timeout_ms, duration_s, seed + 1),
      run_secagg_phase("secagg-dropout", false, dropout, devices, cohort,
                       min_survivors, timeout_ms, duration_s, seed + 2),
  };

  std::printf("%-15s %8s %9s %8s %8s %9s %9s %8s %8s %8s\n", "phase",
              "dropout", "cycles/s", "cycles", "fallbk", "sealed", "complete",
              "recover", "abort", "applied");
  for (const SecAggPhaseResult& r : runs)
    std::printf(
        "%-15s %8.2f %9.1f %8lld %8lld %9lld %9lld %8lld %8lld %8llu\n",
        r.label.c_str(), r.dropout,
        r.elapsed_s > 0.0 ? static_cast<double>(r.cycles_ok) / r.elapsed_s
                          : 0.0,
        r.cycles_ok, r.fallbacks, r.sealed, r.completed, r.recovered,
        r.aborted,
        static_cast<unsigned long long>(r.applied_updates));
  std::printf("\n");

  bench::check(runs[0].cycles_ok > 0 && runs[0].applied_updates > 0,
               "classic LDP fleet makes progress over TCP");
  bench::check(runs[1].completed > 0 && runs[1].applied_updates > 0,
               "secagg cohorts seal, complete, and apply without dropouts");
  bench::check(runs[1].masked >= runs[1].completed *
                                     static_cast<long long>(min_survivors),
               "every completed round carries at least min-survivors blobs");
  bench::check(runs[2].completed > 0,
               "rounds still complete at the configured dropout rate");
  bench::check(runs[2].recovered + runs[2].aborted + runs[2].fallbacks > 0,
               "deaths exercise the recovery/abort+fallback paths");

  const std::string json_out = flags.get("json-out", "BENCH_secagg.json");
  if (!json_out.empty()) {
    std::vector<std::vector<bench::JsonField>> rows;
    for (const SecAggPhaseResult& r : runs)
      rows.push_back(
          {bench::jstr("phase", r.label),
           bench::jint("devices", static_cast<long long>(devices)),
           bench::jint("cohort", static_cast<long long>(cohort)),
           bench::jint("min_survivors",
                       static_cast<long long>(min_survivors)),
           bench::jnum("dropout", r.dropout),
           bench::jnum("elapsed_s", r.elapsed_s),
           bench::jint("cycles_ok", r.cycles_ok),
           bench::jnum("cycles_per_s",
                       r.elapsed_s > 0.0
                           ? static_cast<double>(r.cycles_ok) / r.elapsed_s
                           : 0.0),
           bench::jint("cycle_failures", r.failures),
           bench::jint("fallbacks", r.fallbacks),
           bench::jint("rounds_sealed", r.sealed),
           bench::jint("rounds_completed", r.completed),
           bench::jint("rounds_recovered", r.recovered),
           bench::jint("rounds_aborted", r.aborted),
           bench::jint("masked_checkins", r.masked),
           bench::jint("applied_updates",
                       static_cast<long long>(r.applied_updates))});
    bench::write_bench_json(json_out, "secagg", static_cast<double>(cohort),
                            rows);
  }
  return 0;
}

// --------------------------------------------------------------------------
// Sharding mode: aggregate throughput of k shard leaders at the same
// total arrival rate, plus the merge staleness the cadence buys it.
// --------------------------------------------------------------------------

struct ShardPhaseResult {
  std::size_t shards = 0;
  double elapsed_s = 0.0;
  long long checkins_sent = 0, ok_acks = 0, sheds = 0, failures = 0;
  double offered_per_s = 0.0, ok_per_s = 0.0, shed_rate = 0.0;
  std::uint64_t merge_rounds = 0, merges_applied = 0;
  long long stale_samples = 0;
  double stale_updates_p50 = 0.0, stale_updates_p99 = 0.0;
  double stale_ms_p50 = 0.0, stale_ms_p99 = 0.0;
};

/// Quantile from a fixed-bucket snapshot: the upper bound of the bucket
/// the q-th observation falls in (the +Inf tail reports the last finite
/// bound). Bucket-resolution, which is all a bench table needs.
double bucket_quantile(const obs::Histogram::Snapshot& s, double q) {
  if (s.count <= 0 || s.bounds.empty()) return 0.0;
  const double target = q * static_cast<double>(s.count);
  long long seen = 0;
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    seen += s.buckets[i];
    if (static_cast<double>(seen) >= target)
      return s.bounds[std::min(i, s.bounds.size() - 1)];
  }
  return s.bounds.back();
}

ShardPhaseResult run_shard_phase(std::size_t shards,
                                 const coord::LoadGenConfig& gen_base,
                                 std::size_t queue_max, std::size_t batch_max,
                                 int commit_delay_ms,
                                 std::uint32_t merge_ms) {
  ShardPhaseResult res;
  res.shards = shards;

  // One shared registry: the shard services' staleness histograms (and
  // pull/merge counters) aggregate across the fleet by name.
  obs::MetricsRegistry metrics;

  struct ShardNode {
    std::string dir;
    std::unique_ptr<core::Server> server;
    std::unique_ptr<net::AuthRegistry> auth;
    std::unique_ptr<store::DurableStore> store;
    std::unique_ptr<shard::ShardService> service;
    std::unique_ptr<engine::EpollCrowdServer> engine;
  };
  const replica::ReplKey key = {0x42, 0x17, 0xA9, 0x03, 0x5C, 0xEE};

  std::vector<ShardNode> nodes(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    ShardNode& n = nodes[i];
    std::string dir =
        (std::filesystem::temp_directory_path() / "crowdml_shardbench_XXXXXX")
            .string();
    if (!mkdtemp(dir.data())) throw std::runtime_error("mkdtemp failed");
    n.dir = dir;

    core::ServerConfig cfg;
    cfg.param_dim = kDim;
    cfg.num_classes = kNumClasses;
    n.server = std::make_unique<core::Server>(
        cfg,
        std::make_unique<opt::SgdUpdater>(
            std::make_unique<opt::SqrtDecaySchedule>(50.0), 500.0),
        rng::Engine(1));
    n.auth = std::make_unique<net::AuthRegistry>(rng::Engine(7 + i));

    store::DurableStoreOptions sopts;
    sopts.wal.fsync = store::FsyncPolicy::kAlways;
    shard::install_merge_replay(sopts);
    n.store = std::make_unique<store::DurableStore>(n.dir, sopts);
    n.store->recover(*n.server);
    n.store->attach(*n.server);
    n.store->set_group_commit(true);

    shard::ShardServiceConfig scfg;
    scfg.shard_id = i;
    scfg.key = key;
    scfg.store = n.store.get();
    scfg.metrics = &metrics;
    n.service = std::make_unique<shard::ShardService>(scfg, *n.server);

    engine::EngineConfig ecfg;
    ecfg.checkin_queue_max = queue_max;
    ecfg.checkin_batch_max = batch_max;
    ecfg.max_connections = 64;
    ecfg.shard = n.service.get();
    store::DurableStore* store = n.store.get();
    ecfg.group_commit = [store, commit_delay_ms] {
      if (commit_delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(commit_delay_ms));
      return store->commit_group();
    };
    n.engine = std::make_unique<engine::EpollCrowdServer>(*n.server, *n.auth,
                                                          ecfg);
  }

  std::vector<std::string> addrs;
  for (const ShardNode& n : nodes)
    addrs.push_back("127.0.0.1:" + std::to_string(n.engine->port()));

  std::optional<shard::MergeDirector> director;
  if (shards > 1 && merge_ms > 0) {
    shard::MergeDirectorConfig dcfg;
    dcfg.map = shard::ShardMap(addrs);
    dcfg.key = key;
    dcfg.interval_ms = merge_ms;
    dcfg.metrics = &metrics;
    director.emplace(std::move(dcfg));
    director->start();
  }

  // Split the fleet evenly; each slice is an independent open-loop
  // generator aimed at its own shard, so the total arrival rate is the
  // same at every k (devices and think times do not change).
  std::vector<coord::LoadGenStats> stats(shards);
  std::vector<std::thread> gens;
  gens.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    coord::LoadGenConfig gcfg = gen_base;
    gcfg.port = nodes[i].engine->port();
    gcfg.devices = gen_base.devices / shards +
                   (i < gen_base.devices % shards ? 1 : 0);
    gcfg.workers = std::max<std::size_t>(
        1, (gen_base.workers + shards - 1) / shards);
    gcfg.seed = gen_base.seed + 1000 * i;
    gens.emplace_back([&stats, &nodes, gcfg, i] {
      stats[i] = coord::run_load_gen(gcfg, *nodes[i].auth);
    });
  }
  for (std::thread& t : gens) t.join();

  if (director) {
    director->shutdown();
    res.merge_rounds = director->rounds_completed();
  }
  for (ShardNode& n : nodes) {
    res.merges_applied += n.service->merges_applied();
    n.engine->shutdown();
    std::filesystem::remove_all(n.dir);
  }

  for (const coord::LoadGenStats& s : stats) {
    res.elapsed_s = std::max(res.elapsed_s, s.elapsed_s);
    res.checkins_sent += s.checkins_sent;
    res.ok_acks += s.ok_acks;
    res.sheds += s.sheds;
    res.failures += s.failures;
  }
  if (res.elapsed_s > 0.0) {
    res.offered_per_s =
        static_cast<double>(res.checkins_sent) / res.elapsed_s;
    res.ok_per_s = static_cast<double>(res.ok_acks) / res.elapsed_s;
  }
  if (res.checkins_sent > 0)
    res.shed_rate = static_cast<double>(res.sheds) /
                    static_cast<double>(res.checkins_sent);

  const auto snap = metrics.snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == "crowdml_shard_merge_staleness_updates") {
      res.stale_samples = h.data.count;
      res.stale_updates_p50 = bucket_quantile(h.data, 0.50);
      res.stale_updates_p99 = bucket_quantile(h.data, 0.99);
    } else if (h.name == "crowdml_shard_merge_staleness_seconds") {
      res.stale_ms_p50 = bucket_quantile(h.data, 0.50) * 1e3;
      res.stale_ms_p99 = bucket_quantile(h.data, 0.99) * 1e3;
    }
  }
  return res;
}

int run_shard_mode(const tools::Flags& flags, const bench::Options& o,
                   const std::string& shards_csv) {
  bench::header("open_loop[sharding]",
                "aggregate checkin throughput vs shard count, fixed "
                "arrival rate", o);

  std::vector<std::size_t> counts;
  {
    std::string tok;
    std::stringstream ss(shards_csv);
    while (std::getline(ss, tok, ',')) {
      const long long v = tok.empty() ? 0 : std::atoll(tok.c_str());
      if (v <= 0) {
        std::fprintf(stderr,
                     "open_loop: --shards must be positive counts, got "
                     "'%s'\n", shards_csv.c_str());
        return 1;
      }
      counts.push_back(static_cast<std::size_t>(v));
    }
  }
  if (counts.empty()) counts = {1, 2, 4};

  coord::LoadGenConfig gcfg;
  gcfg.devices =
      static_cast<std::size_t>(flags.get_int("shard-devices", 3000));
  gcfg.think_mean_s = flags.get_double("shard-think-mean", 0.5);
  gcfg.warmup_s = flags.get_double("shard-warmup", 2.0);
  gcfg.duration_s = flags.get_double("shard-duration", 4.0);
  gcfg.workers = static_cast<std::size_t>(flags.get_int("workers", 4));
  gcfg.session_mean_cycles = 50.0;
  gcfg.rejoin_mean_s = 5.0;
  gcfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  const auto queue_max =
      static_cast<std::size_t>(flags.get_int("queue-max", 256));
  const auto batch_max =
      static_cast<std::size_t>(flags.get_int("batch-max", 32));
  const int commit_delay_ms =
      static_cast<int>(flags.get_int("commit-delay-ms", 15));
  const auto merge_ms =
      static_cast<std::uint32_t>(flags.get_int("shard-merge-ms", 150));

  const double service_est =
      static_cast<double>(batch_max) /
      std::max(1e-3, static_cast<double>(commit_delay_ms) / 1e3);
  std::printf(
      "%zu devices, think-mean %.1fs (~%.0f arrivals/s total), per-shard "
      "applier ~%.0f checkins/s (batch %zu, %dms commit), merge every "
      "%ums\n%.0fs warmup + %.0fs measured per shard count\n\n",
      gcfg.devices, gcfg.think_mean_s,
      static_cast<double>(gcfg.devices) / std::max(0.01, gcfg.think_mean_s),
      service_est, batch_max, commit_delay_ms, merge_ms, gcfg.warmup_s,
      gcfg.duration_s);

  std::vector<ShardPhaseResult> runs;
  for (const std::size_t k : counts)
    runs.push_back(run_shard_phase(k, gcfg, queue_max, batch_max,
                                   commit_delay_ms, merge_ms));

  std::printf("%-7s %10s %10s %8s %8s %8s %9s %9s %10s %10s\n", "shards",
              "sent/s", "ok/s", "shed%", "merges", "applied", "tau_p50",
              "tau_p99", "age_p50ms", "age_p99ms");
  for (const ShardPhaseResult& r : runs)
    std::printf(
        "%-7zu %10.0f %10.0f %8.2f %8llu %8llu %9.0f %9.0f %10.1f %10.1f\n",
        r.shards, r.offered_per_s, r.ok_per_s, r.shed_rate * 100.0,
        static_cast<unsigned long long>(r.merge_rounds),
        static_cast<unsigned long long>(r.merges_applied),
        r.stale_updates_p50, r.stale_updates_p99, r.stale_ms_p50,
        r.stale_ms_p99);
  std::printf("\n");

  const ShardPhaseResult* one = nullptr;
  const ShardPhaseResult* best_multi = nullptr;
  for (const ShardPhaseResult& r : runs) {
    if (r.shards == 1) one = &r;
    if (r.shards > 1 && (!best_multi || r.ok_per_s > best_multi->ok_per_s))
      best_multi = &r;
  }
  if (one && best_multi) {
    bench::check(best_multi->ok_per_s > one->ok_per_s,
                 "sharding raises aggregate acked-checkin throughput at "
                 "the same arrival rate");
    bench::check(best_multi->shed_rate < one->shed_rate,
                 "sharding relieves the single-applier shed rate");
  }
  for (const ShardPhaseResult& r : runs)
    if (r.shards > 1) {
      bench::check(r.merge_rounds >= 1,
                   "merge director completes rounds at " +
                       std::to_string(r.shards) + " shards");
      bench::check(r.stale_samples > 0,
                   "merge staleness is observed at " +
                       std::to_string(r.shards) + " shards");
    }

  const std::string json_out = flags.get("json-out", "BENCH_sharding.json");
  if (!json_out.empty()) {
    std::vector<std::vector<bench::JsonField>> rows;
    for (const ShardPhaseResult& r : runs)
      rows.push_back(
          {bench::jint("shards", static_cast<long long>(r.shards)),
           bench::jint("devices", static_cast<long long>(gcfg.devices)),
           bench::jnum("offered_per_s", r.offered_per_s),
           bench::jint("checkins_sent", r.checkins_sent),
           bench::jint("ok_acks", r.ok_acks),
           bench::jnum("ok_per_s", r.ok_per_s),
           bench::jint("sheds", r.sheds),
           bench::jnum("shed_rate", r.shed_rate),
           bench::jint("failures", r.failures),
           bench::jint("merge_rounds",
                       static_cast<long long>(r.merge_rounds)),
           bench::jint("merges_applied",
                       static_cast<long long>(r.merges_applied)),
           bench::jint("staleness_samples", r.stale_samples),
           bench::jnum("staleness_updates_p50", r.stale_updates_p50),
           bench::jnum("staleness_updates_p99", r.stale_updates_p99),
           bench::jnum("staleness_age_p50_ms", r.stale_ms_p50),
           bench::jnum("staleness_age_p99_ms", r.stale_ms_p99)});
    bench::write_bench_json(json_out, "sharding",
                            static_cast<double>(gcfg.devices), rows);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const bench::Options o = bench::options();

  const std::string shards_csv = flags.get("shards", "");
  if (!shards_csv.empty()) return run_shard_mode(flags, o, shards_csv);

  const long long secagg_cohort = flags.get_int("secagg-cohort", 0);
  if (secagg_cohort > 0)
    return run_secagg_mode(flags, o,
                           static_cast<std::size_t>(secagg_cohort));

  bench::header("open_loop",
                "pace steering vs reactive shedding, open-loop fleet", o);

  coord::LoadGenConfig gcfg;
  gcfg.devices = static_cast<std::size_t>(flags.get_int("devices", 100'000));
  gcfg.think_mean_s = flags.get_double("think-mean", 20.0);
  gcfg.warmup_s = flags.get_double("warmup", 25.0);
  gcfg.duration_s = flags.get_double("duration", 10.0);
  gcfg.workers = static_cast<std::size_t>(flags.get_int("workers", 4));
  gcfg.session_mean_cycles = 50.0;
  gcfg.rejoin_mean_s = 5.0;
  gcfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  const auto queue_max =
      static_cast<std::size_t>(flags.get_int("queue-max", 256));
  const auto batch_max =
      static_cast<std::size_t>(flags.get_int("batch-max", 64));
  const int commit_delay_ms =
      static_cast<int>(flags.get_int("commit-delay-ms", 15));

  std::string cls_err;
  const auto classes = coord::DeviceClassTable::parse(
      flags.get("classes", "fast:4,slow:1"), &cls_err);
  if (!classes) {
    std::fprintf(stderr, "open_loop: --classes: %s\n", cls_err.c_str());
    return 1;
  }

  const double service_est =
      static_cast<double>(batch_max) /
      std::max(1e-3, static_cast<double>(commit_delay_ms) / 1e3);
  std::printf(
      "%zu devices, think-mean %.1fs (~%.0f arrivals/s unpaced), applier "
      "~%.0f checkins/s (batch %zu, %dms commit), queue max %zu, classes "
      "%s\n%.0fs warmup + %.0fs measured per phase\n\n",
      gcfg.devices, gcfg.think_mean_s,
      static_cast<double>(gcfg.devices) / std::max(0.1, gcfg.think_mean_s),
      service_est, batch_max, commit_delay_ms, queue_max,
      classes->describe().c_str(), gcfg.warmup_s, gcfg.duration_s);

  PhaseResult runs[2];
  runs[0] = run_phase("unsteered", false, gcfg, *classes, queue_max,
                      batch_max, commit_delay_ms);
  runs[1] = run_phase("steered", true, gcfg, *classes, queue_max, batch_max,
                      commit_delay_ms);

  std::printf("%-10s %10s %10s %9s %9s %9s %9s %9s %9s %8s %8s %8s\n",
              "phase", "sent/s", "ok/s", "shed%", "ack_p50", "ack_p99",
              "lag_p50", "lag_p99", "hint_ms", "q_mean", "q_std", "q_max");
  for (const PhaseResult& r : runs)
    std::printf(
        "%-10s %10.0f %10.0f %9.2f %9.1f %9.1f %9.1f %9.1f %8.0f %8.1f "
        "%8.1f %8zu\n",
        r.label, r.offered_per_s,
        r.gen.elapsed_s > 0.0
            ? static_cast<double>(r.gen.ok_acks) / r.gen.elapsed_s
            : 0.0,
        r.gen.shed_rate * 100.0, r.gen.ack_p50_ms, r.gen.ack_p99_ms,
        r.gen.lag_p50_ms, r.gen.lag_p99_ms, r.gen.mean_hint_ms, r.depth_mean,
        r.depth_std, r.depth_max);
  std::printf("steered policy: service_rate=%.0f/s target_rate=%.0f/s\n\n",
              runs[1].service_rate, runs[1].target_rate);

  bench::check(runs[0].gen.shed_rate > 0.01,
               "unsteered fleet overloads the queue (shed rate > 1%)");
  bench::check(runs[1].gen.shed_rate < 0.01,
               "steered steady-state shed rate < 1%");
  bench::check(runs[1].gen.shed_rate < runs[0].gen.shed_rate,
               "steering sheds less than reacting");
  bench::check(runs[0].gen.hints_seen == 0 && runs[1].gen.hints_seen > 0,
               "hints ride acks only when steering is on");
  bench::check(runs[1].depth_mean < static_cast<double>(queue_max) * 0.75,
               "steered queue depth stays below the throttle knee");

  const std::string json_out = flags.get("json-out", "");
  if (!json_out.empty()) {
    std::vector<std::vector<bench::JsonField>> rows;
    for (const PhaseResult& r : runs)
      rows.push_back({bench::jstr("phase", r.label),
                      bench::jint("devices",
                                  static_cast<long long>(r.gen.devices)),
                      bench::jnum("offered_per_s", r.offered_per_s),
                      bench::jint("checkins_sent", r.gen.checkins_sent),
                      bench::jint("ok_acks", r.gen.ok_acks),
                      bench::jint("sheds", r.gen.sheds),
                      bench::jint("failures", r.gen.failures),
                      bench::jnum("shed_rate", r.gen.shed_rate),
                      bench::jint("hints_seen", r.gen.hints_seen),
                      bench::jnum("mean_hint_ms", r.gen.mean_hint_ms),
                      bench::jnum("ack_p50_ms", r.gen.ack_p50_ms),
                      bench::jnum("ack_p95_ms", r.gen.ack_p95_ms),
                      bench::jnum("ack_p99_ms", r.gen.ack_p99_ms),
                      bench::jnum("lag_p50_ms", r.gen.lag_p50_ms),
                      bench::jnum("lag_p95_ms", r.gen.lag_p95_ms),
                      bench::jnum("lag_p99_ms", r.gen.lag_p99_ms),
                      bench::jnum("queue_depth_mean", r.depth_mean),
                      bench::jnum("queue_depth_std", r.depth_std),
                      bench::jint("queue_depth_max",
                                  static_cast<long long>(r.depth_max)),
                      bench::jnum("service_rate_per_s", r.service_rate),
                      bench::jnum("target_rate_per_s", r.target_rate)});
    bench::write_bench_json(json_out, "coordinator",
                            static_cast<double>(gcfg.devices), rows);
  }
  return 0;
}
