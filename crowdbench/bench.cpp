// crowdbench: one benchmark for the Crowd-ML checkin path.
//
// Drives engine::EpollCrowdServer (group commit, fsync=always WAL)
// in-process over localhost TCP through its public API, with load from
// this same process: 4 connections served by 2 client threads. Three
// workloads (see README.md in this directory for why each exists):
//
//   paper_ingest        closed loop of checkout -> pre-signed checkin
//                       cycles, paper-size 10x50 = 500-double gradients,
//                       no replication;
//   replicated_compact  the same closed loop with 10x5 = 50-double
//                       gradients, a quorum-mode LogShipper and one
//                       in-process follower (fsync=always on both);
//   fleet_cycle         open loop at a fixed Poisson rate over M = 1000
//                       real core::Device instances: checkout ->
//                       compute_checkin (gradient, Laplace sanitize,
//                       sign) -> encode -> checkin -> ack.
//
// Usage: crowdbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Earlier lines carry the host/build fingerprint and every
// latency series with its sample count and highest supported quantile.
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/device.hpp"
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "data/mixture.hpp"
#include "engine/epoll_server.hpp"
#include "metrics/evaluate.hpp"
#include "models/logistic_regression.hpp"
#include "net/checksum.hpp"
#include "opt/schedule.hpp"
#include "opt/updater.hpp"
#include "replica/follower.hpp"
#include "replica/log_shipper.hpp"
#include "stats.hpp"
#include "store/durable_store.hpp"
#include "store/wal.hpp"

namespace {

using namespace crowdml;
using crowdbench::kFailed;

// ---------------------------------------------------------------- setup

constexpr std::size_t kClasses = 10;
constexpr std::size_t kDevices = 1000;  // M, Section V-C
constexpr std::size_t kConnections = 4;
constexpr std::size_t kClientThreads = 1;
constexpr std::size_t kMinibatch = 10;
constexpr double kEpsilon = 20.0;
constexpr double kDataScale = 0.2;  // 12000 train / 2000 test samples
constexpr int kSetups = 5;          // setup_s is the median of these
// Untimed warm-up of fixed length in cycles, so every run enters its
// timed window at the same WAL segment fill.
constexpr long long kWarmupCycles = 4000;
constexpr double kDrainS = 10.0;    // in-flight requests past this fail
constexpr std::size_t kFramePool = 2048;    // pre-signed checkin frames
constexpr std::size_t kReplayFrames = 512;  // layer-replay sample
constexpr std::size_t kSpansWritten = 60000;
/// Sample slots per latency series, allocated and touched before a
/// recorded phase, so the benchmark's own buffers add the same amount to
/// peak_rss_mb however fast the run goes (25k cycles/s for 20 s fit).
constexpr std::size_t kSampleSlots = 500'000;
constexpr std::int64_t kWindowNs = 1'000'000'000;  // p99/throughput windows
/// fleet_cycle's final model must classify the held-out split at least
/// this well (the MNIST stand-in reaches ~0.1 without noise).
constexpr double kFleetErrorBound = 0.35;

struct Workload {
  const char* name;
  std::size_t features;  ///< gradient = kClasses x features doubles
  bool replicated;
  /// true: every device computes its checkin per cycle; false: cycles
  /// replay pre-signed frames.
  bool device_compute;
};

// Every workload is a closed loop in which each of the M devices keeps
// one cycle in flight. On the 4-vCPU VM these numbers come from, the
// hypervisor steals ~8% of CPU in multi-millisecond bursts: with a
// shallow pipeline or an open loop, a request's tail is the host's, not
// the program's.
constexpr Workload kWorkloads[] = {
    {"paper_ingest", 50, false, false},
    {"replicated_compact", 5, true, false},
    {"fleet_cycle", 50, false, true},
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

core::Server make_server(std::size_t features) {
  core::ServerConfig cfg;
  cfg.param_dim = kClasses * features;
  cfg.num_classes = kClasses;
  return core::Server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(50.0), 500.0),
                      rng::Engine(1));
}

// ---------------------------------------------------------- fingerprint

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  return "";
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream ss(flags);
  std::string f;
  while (ss >> f)
    if (f == flag) return true;
  return false;
}

std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string fingerprint(const std::string& wal_dir) {
  const std::string flags = cpuinfo_field("flags");
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": \"" << json_escape(cpuinfo_field("model name")) << "\""
    << ", \"sha_ni\": " << (has_flag(flags, "sha_ni") ? "true" : "false")
    << ", \"avx2\": " << (has_flag(flags, "avx2") ? "true" : "false")
    << ", \"avx512f\": " << (has_flag(flags, "avx512f") ? "true" : "false")
    << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
    << ", \"build_type\": \"" << CROWDBENCH_BUILD_TYPE << "\""
    << ", \"cxx_flags\": \"" << json_escape(CROWDBENCH_CXX_FLAGS) << "\""
    << ", \"wal_fs\": \"" << fs_type(wal_dir) << "\""
    << ", \"wal_fsync\": \"always\"}";
  return o.str();
}

bool sanitizer_build() {
#if defined(CROWDBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double cpu_seconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

// -------------------------------------------------------------- tracing

/// One span recorded by the benchmark's own code. Spans of one request
/// share `req`; `parent` names the span that caused this one ("" = root).
struct Span {
  std::uint64_t req = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Registry state at one instant: histogram (count, sum) and counters.
/// Deltas between two of these give window means.
struct RegSnap {
  std::map<std::string, std::pair<long long, double>> hist;
  std::map<std::string, long long> counters;

  static RegSnap take(const obs::MetricsRegistry& r) {
    RegSnap s;
    const auto snap = r.snapshot();
    for (const auto& h : snap.histograms)
      s.hist[h.name] = {h.data.count, h.data.sum};
    for (const auto& c : snap.counters) s.counters[c.name] = c.value;
    return s;
  }
  long long count(const std::string& n) const {
    const auto it = hist.find(n);
    return it == hist.end() ? 0 : it->second.first;
  }
  double sum(const std::string& n) const {
    const auto it = hist.find(n);
    return it == hist.end() ? 0.0 : it->second.second;
  }
  RegSnap& operator+=(const RegSnap& o) {
    for (const auto& [n, v] : o.hist) {
      hist[n].first += v.first;
      hist[n].second += v.second;
    }
    for (const auto& [n, v] : o.counters) counters[n] += v;
    return *this;
  }
  long long counter(const std::string& n) const {
    const auto it = counters.find(n);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Mean of a histogram over the window between two snapshots, in us.
double window_mean_us(const RegSnap& a, const RegSnap& b,
                      const std::string& name) {
  const long long n = b.count(name) - a.count(name);
  return n > 0 ? (b.sum(name) - a.sum(name)) / static_cast<double>(n) * 1e6
               : 0.0;
}

// ---------------------------------------------------------------- stack

struct DeviceSlot {
  std::unique_ptr<core::Device> device;
  net::DeviceCredentials creds;
  net::Bytes checkout_frame;
  const models::SampleSet* shard = nullptr;
  std::size_t cursor = 0;

  void feed_minibatch() {
    for (std::size_t i = 0; i < kMinibatch; ++i) {
      device->on_sample((*shard)[cursor]);
      cursor = (cursor + 1) % shard->size();
    }
  }
};

/// Group-commit instrumentation, written by the engine's applier thread
/// inside the bench-owned EngineConfig::group_commit hook.
struct CommitLog {
  std::atomic<bool> tracing{false};
  std::mutex mu;
  std::vector<Span> spans;  ///< store.commit_group + replica.await_quorum
  double depth_sum = 0.0;
  long long depth_samples = 0;
  double lag_max = 0.0;
  std::uint64_t batches = 0;
};

/// Everything one workload run needs, built from the seed: inputs
/// (dataset, devices, pre-signed frames), the leader stack (server,
/// durable store, optional shipper + follower, epoll engine) and the
/// client connections. Construction is what setup_s times.
class Stack {
 public:
  Stack(const Workload& w, std::uint64_t seed, const std::string& dir)
      : w_(w), seed_(seed) {
    // Inputs: the MNIST stand-in projected to `features` dimensions,
    // sharded across M devices; 10-sample minibatches.
    rng::Engine data_eng(mix(seed, 1));
    data::MixtureSpec spec = data::mnist_like_spec(kDataScale);
    spec.pca_dim = w.features;
    ds = data::generate_mixture(spec, data_eng);
    model = std::make_unique<models::MulticlassLogisticRegression>(
        kClasses, w.features, 0.0);
    rng::Engine shard_eng(mix(seed, 2));
    shards = data::shard_across_devices(ds.train, kDevices, shard_eng);

    // Leader: durable store in group-commit mode.
    std::filesystem::create_directories(dir);
    store::DurableStoreOptions sopts;
    sopts.wal.fsync = store::FsyncPolicy::kAlways;
    sopts.wal.metrics = &reg;
    store = std::make_unique<store::DurableStore>(dir + "/leader", sopts);
    store->recover(server);
    store->attach(server);
    store->set_group_commit(true);

    if (w.replicated) {
      replica::ShipperOptions sh;
      sh.ack_mode = replica::ReplAckMode::kQuorum;
      sh.quorum_follower_acks = 1;
      sh.metrics = &reg;
      shipper = std::make_unique<replica::LogShipper>(server, *store, 1, sh);
      replica::FollowerOptions fo;
      fo.leader_port = shipper->port();
      fo.follower_id = 1;
      fo.store = sopts;
      fo.store.wal.metrics = &follower_reg;
      fo.metrics = &follower_reg;
      fo.reconnect_backoff_ms = 10;
      follower = std::make_unique<replica::Follower>(follower_server,
                                                     dir + "/follower", fo);
      follower->start();
    }

    depth_gauge_ = &reg.gauge("crowdml_engine_queue_depth",
                              "Checkins waiting for the applier thread",
                              obs::Provenance::kTransportEvent);
    engine::EngineConfig ecfg;
    ecfg.metrics = &reg;
    ecfg.max_connections = kConnections + 4;
    ecfg.checkin_queue_max = 4096;
    ecfg.group_commit = [this] { return group_commit(); };
    engine = std::make_unique<engine::EpollCrowdServer>(server, auth, ecfg);

    // Devices: enrolled in id order, so a fresh AuthRegistry with the
    // same seed reissues identical keys (the layer replay relies on it).
    devices.resize(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      DeviceSlot& s = devices[d];
      s.creds = auth.enroll();
      core::DeviceConfig dc;
      dc.device_id = s.creds.device_id;
      dc.minibatch_size = kMinibatch;
      dc.budget = privacy::PrivacyBudget::gradient_dominated(kEpsilon);
      s.device = std::make_unique<core::Device>(dc, *model,
                                                rng::Engine(mix(seed, 100 + d)));
      s.device->set_credentials(s.creds);
      s.shard = &shards[d];
      net::CheckoutRequest req;
      req.device_id = s.creds.device_id;
      req.auth_tag = s.creds.sign(req.body());
      s.checkout_frame = net::encode_frame(net::MessageType::kCheckoutRequest,
                                           req.serialize());
    }

    // Closed loop: a pool of pre-signed checkin frames, each a real
    // device's sanitized gradient at w = 0. Generating them is device
    // work; it is timed here as the device-layer spans of these runs.
    if (!w.device_compute) {
      const RegSnap before = RegSnap::take(obs::default_registry());
      const linalg::Vector w0(kClasses * w.features, 0.0);
      for (std::size_t i = 0; i < kFramePool; ++i) {
        DeviceSlot& s = devices[i % kDevices];
        s.feed_minibatch();
        const std::int64_t t0 = now_ns();
        const core::CheckinResult r = s.device->compute_checkin(w0, 0);
        const std::int64_t t1 = now_ns();
        pool.push_back(
            net::encode_frame(net::MessageType::kCheckin, r.message.serialize()));
        pool_device.push_back(i % kDevices);
        device_compute_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
      const RegSnap after = RegSnap::take(obs::default_registry());
      gradient_us = window_mean_us(before, after, "crowdml_device_gradient_seconds");
      sanitize_us = window_mean_us(before, after, "crowdml_device_sanitize_seconds");
    }

    for (std::size_t c = 0; c < kConnections; ++c) {
      auto conn =
          net::TcpConnection::connect("127.0.0.1", engine->port(), 5000);
      if (!conn) throw std::runtime_error("client connect failed");
      const int fd = conn->release_fd();
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
      fds.push_back(fd);
    }
  }

  ~Stack() {
    for (const int fd : fds) ::close(fd);
    if (engine) engine->shutdown();
    if (follower) follower->shutdown();
    if (shipper) shipper->shutdown();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool group_commit() {
    const std::int64_t t0 = now_ns();
    const bool ok = store->commit_group();
    const std::int64_t t1 = now_ns();
    bool quorum = true;
    double lag = 0.0;
    if (shipper) {
      const std::uint64_t seq = store->wal().last_seq();
      shipper->notify_committed();
      lag = static_cast<double>(seq - std::min(seq, follower->applied_seq()));
      quorum = shipper->await_quorum(seq);
    }
    const std::int64_t t2 = now_ns();
    if (commits.tracing.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(commits.mu);
      const std::uint64_t batch = ++commits.batches;
      commits.spans.push_back({batch, "store.commit_group", "", t0, t2});
      if (shipper)
        commits.spans.push_back({batch, "replica.await_quorum",
                                 "store.commit_group", t1, t2});
      commits.depth_sum += depth_gauge_->value();
      ++commits.depth_samples;
      commits.lag_max = std::max(commits.lag_max, lag);
    }
    return ok && quorum;
  }

  const Workload& w_;
  const std::uint64_t seed_;
  // Declared before everything that registers instruments in them.
  obs::MetricsRegistry reg;
  obs::MetricsRegistry follower_reg;
  data::Dataset ds;
  std::unique_ptr<models::MulticlassLogisticRegression> model;
  std::vector<models::SampleSet> shards;
  core::Server server = make_server(w_.features);
  core::Server follower_server = make_server(w_.features);
  std::unique_ptr<store::DurableStore> store;
  std::unique_ptr<replica::LogShipper> shipper;
  std::unique_ptr<replica::Follower> follower;
  net::AuthRegistry auth{rng::Engine(mix(seed_, 3))};
  CommitLog commits;
  std::unique_ptr<engine::EpollCrowdServer> engine;
  std::vector<DeviceSlot> devices;
  std::vector<net::Bytes> pool;
  std::vector<std::size_t> pool_device;
  std::vector<double> device_compute_us;  ///< closed loop: pool generation
  double gradient_us = 0.0;
  double sanitize_us = 0.0;
  std::vector<int> fds;

 private:
  obs::Gauge* depth_gauge_ = nullptr;
};

// --------------------------------------------------------------- client

/// Per-phase results of one client thread (merged after the join).
struct Samples {
  crowdbench::Series checkout_ms, checkin_ms, cycle_ms;
  std::vector<double> gen_lag_ms;
  std::vector<double> compute_us;
  std::vector<Span> spans;
  std::vector<net::Bytes> frames;  ///< open loop: sample for the replay
  long long attempted = 0, failed = 0, acked = 0;
  std::vector<std::string> errors;

  void reserve_touched(std::size_t n) {
    for (auto* s : {&checkout_ms, &checkin_ms, &cycle_ms}) {
      s->at.resize(n);
      s->at.clear();
      s->value.resize(n);
      s->value.clear();
    }
    gen_lag_ms.resize(2 * n);
    gen_lag_ms.clear();
  }

  void merge(Samples&& o) {
    auto cat = [](auto& a, auto& b) {
      a.insert(a.end(), std::make_move_iterator(b.begin()),
               std::make_move_iterator(b.end()));
    };
    checkout_ms.append(o.checkout_ms);
    checkin_ms.append(o.checkin_ms);
    cycle_ms.append(o.cycle_ms);
    cat(gen_lag_ms, o.gen_lag_ms);
    cat(compute_us, o.compute_us);
    cat(spans, o.spans);
    cat(frames, o.frames);
    cat(errors, o.errors);
    attempted += o.attempted;
    failed += o.failed;
    acked += o.acked;
  }
};

struct Phase {
  std::int64_t start = 0;
  std::int64_t end = 0;  ///< no new cycle starts at or after this
  /// Closed loop: nor once this many cycles have started (per thread).
  long long max_cycles = std::numeric_limits<long long>::max();
  bool trace = false;
};

/// One cycle slot of a connection.
struct Cycle {
  std::size_t device = 0;
  std::size_t frame = 0;
  bool busy = false;
  std::uint64_t req = 0;
  std::int64_t due = 0, checkout_sent = 0, params_at = 0, checkin_ready = 0,
               checkin_sent = 0;
};

struct ConnState {
  std::size_t index = 0;
  int fd = -1;
  std::vector<std::uint8_t> rbuf;
  std::size_t rpos = 0;
  std::deque<std::size_t> checkout_fifo, checkin_fifo;
  std::vector<Cycle> cycles;
  std::size_t next_frame = 0;
  bool broken = false;
};

bool send_all(int fd, const net::Bytes& b) {
  std::size_t off = 0;
  while (off < b.size()) {
    const ssize_t n = ::send(fd, b.data() + off, b.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Drives a set of connections through one phase. The client parses
/// frames itself (magic, CRC, type) so its decoding never lands in the
/// server's process-wide codec histograms.
class ClientThread {
 public:
  ClientThread(Stack& stack, const Workload& w, std::vector<ConnState>& conns,
               std::uint64_t thread_id)
      : stack_(stack), w_(w), conns_(conns), req_base_(thread_id << 40) {}

  Samples run(const Phase& ph, bool record) {
    out_ = Samples{};
    if (record) out_.reserve_touched(kSampleSlots);
    ph_ = &ph;
    record_ = record;
    started_ = 0;
    busy_ = 0;
    std::int64_t drain_deadline = std::numeric_limits<std::int64_t>::max();
    for (auto& c : conns_)
      for (std::size_t i = 0; i < c.cycles.size(); ++i)
        if (accepting(now_ns())) start_cycle(c, i, now_ns());
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
      const std::int64_t now = now_ns();
      const bool open = accepting(now);
      if (!open && busy_ == 0) break;
      if (!open && drain_deadline == std::numeric_limits<std::int64_t>::max())
        drain_deadline = now + static_cast<std::int64_t>(kDrainS * 1e9);
      if (now >= drain_deadline) {
        fail_in_flight("drain deadline passed");
        break;
      }
      const std::int64_t wake = open ? ph.end : drain_deadline;
      const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
      timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                  static_cast<long>(wait % 1'000'000'000)};
      for (std::size_t i = 0; i < conns_.size(); ++i)
        pfds[i] = {conns_[i].fd, POLLIN, 0};
      const int r = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      if (r < 0 && errno != EINTR) {
        fail_in_flight("ppoll failed");
        break;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i)
        if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) read_conn(conns_[i]);
    }
    return std::move(out_);
  }

 private:
  bool accepting(std::int64_t now) const {
    return now < ph_->end && started_ < ph_->max_cycles;
  }

  void error(const std::string& e) {
    if (out_.errors.size() < 8) out_.errors.push_back(e);
  }

  void start_cycle(ConnState& c, std::size_t ci, std::int64_t due) {
    Cycle& cy = c.cycles[ci];
    cy.busy = true;
    ++busy_;
    cy.due = due;
    cy.req = req_base_ + (++reqs_);
    ++started_;
    if (!w_.device_compute) {
      cy.frame = (c.index + kConnections * c.next_frame++) % stack_.pool.size();
      cy.device = stack_.pool_device[cy.frame];
    }
    ++out_.attempted;
    cy.checkout_sent = now_ns();
    if (record_) out_.gen_lag_ms.push_back(ms(cy.checkout_sent - cy.due));
    if (c.broken || !send_all(c.fd, stack_.devices[cy.device].checkout_frame)) {
      c.broken = true;
      end_failed(cy, /*checkout_leg=*/true);
      error("checkout send failed");
      return;
    }
    c.checkout_fifo.push_back(ci);
  }

  void end_failed(Cycle& cy, bool checkout_leg) {
    ++out_.failed;
    if (record_) {
      const std::int64_t t = now_ns();
      if (checkout_leg) out_.checkout_ms.add(t, kFailed);
      else out_.checkin_ms.add(t, kFailed);
      out_.cycle_ms.add(t, kFailed);
    }
    finish(cy);
  }

  void finish(Cycle& cy) {
    if (cy.busy) --busy_;
    cy.busy = false;
  }

  void fail_in_flight(const std::string& why) {
    for (auto& c : conns_) {
      for (const std::size_t ci : c.checkout_fifo) end_failed(c.cycles[ci], true);
      for (const std::size_t ci : c.checkin_fifo) end_failed(c.cycles[ci], false);
      c.checkout_fifo.clear();
      c.checkin_fifo.clear();
    }
    error(why);
  }

  void read_conn(ConnState& c) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        c.rbuf.insert(c.rbuf.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        c.broken = true;
        error("connection closed by server");
      }
      break;
    }
    const std::int64_t arrived = now_ns();
    while (c.rbuf.size() - c.rpos >= net::kFrameHeaderSize) {
      const std::uint8_t* h = c.rbuf.data() + c.rpos;
      const std::size_t len = read_u32(h + net::kFrameLenOffset);
      const std::size_t total = net::kFrameHeaderSize + len + net::kFrameTrailerSize;
      if (c.rbuf.size() - c.rpos < total) break;
      const bool framed =
          std::memcmp(h, "CRML", 4) == 0 &&
          net::crc32(h + net::kFrameTypeOffset,
                     total - net::kFrameMagicSize - net::kFrameTrailerSize) ==
              read_u32(h + total - net::kFrameTrailerSize);
      on_frame(c, framed ? h[net::kFrameTypeOffset] : 0,
               net::Bytes(h + net::kFrameHeaderSize, h + net::kFrameHeaderSize + len),
               arrived);
      c.rpos += total;
    }
    if (c.rpos > 0 && c.rpos * 2 >= c.rbuf.size()) {
      c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + static_cast<long>(c.rpos));
      c.rpos = 0;
    }
    if (c.broken) fail_in_flight("connection broken");
  }

  void on_frame(ConnState& c, std::uint8_t type, const net::Bytes& payload,
                std::int64_t arrived) {
    const auto kParams = static_cast<std::uint8_t>(net::MessageType::kParams);
    const auto kAck = static_cast<std::uint8_t>(net::MessageType::kAck);
    // Checkouts are answered on the I/O thread and checkins by the
    // applier, so responses interleave — but each kind stays FIFO.
    if (type == kParams && !c.checkout_fifo.empty()) {
      const std::size_t ci = c.checkout_fifo.front();
      c.checkout_fifo.pop_front();
      on_params(c, ci, payload, arrived);
    } else if (type == kAck && !c.checkin_fifo.empty()) {
      const std::size_t ci = c.checkin_fifo.front();
      c.checkin_fifo.pop_front();
      on_ack(c, ci, payload, arrived);
    } else if (type == kAck && !c.checkout_fifo.empty()) {
      // A checkout refusal comes back as a nack.
      const std::size_t ci = c.checkout_fifo.front();
      c.checkout_fifo.pop_front();
      end_failed(c.cycles[ci], true);
      error("checkout refused: " + ack_reason(payload));
    } else {
      c.broken = true;
      error("unexpected or corrupt frame");
    }
  }

  static std::string ack_reason(const net::Bytes& payload) {
    try {
      return net::AckMessage::deserialize(payload).reason;
    } catch (const std::exception& e) {
      return e.what();
    }
  }

  void on_params(ConnState& c, std::size_t ci, const net::Bytes& payload,
                 std::int64_t arrived) {
    Cycle& cy = c.cycles[ci];
    cy.params_at = now_ns();
    if (record_) out_.checkout_ms.add(cy.params_at, ms(cy.params_at - cy.due));
    const net::Bytes* frame = nullptr;
    net::Bytes computed;
    if (w_.device_compute) {
      net::ParamsMessage p;
      try {
        p = net::ParamsMessage::deserialize(payload);
      } catch (const std::exception& e) {
        end_failed(cy, true);
        error(std::string("params decode: ") + e.what());
        return;
      }
      if (!p.accepted) {
        end_failed(cy, true);
        error("checkout not accepted");
        return;
      }
      // Device Routines 2+3, then the device's wire work.
      DeviceSlot& d = stack_.devices[cy.device];
      d.feed_minibatch();
      const std::int64_t t0 = now_ns();
      const core::CheckinResult r = d.device->compute_checkin(p.w, p.version);
      const std::int64_t t1 = now_ns();
      computed = net::encode_frame(net::MessageType::kCheckin, r.message.serialize());
      cy.checkin_ready = now_ns();
      if (record_) out_.compute_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (ph_->trace) {
        out_.spans.push_back({cy.req, "device.compute_checkin", "cycle", t0, t1});
        out_.spans.push_back({cy.req, "device.encode", "cycle", t1, cy.checkin_ready});
      }
      if (record_ && out_.frames.size() < kReplayFrames / kClientThreads)
        out_.frames.push_back(computed);
      frame = &computed;
    } else {
      cy.checkin_ready = arrived;
      frame = &stack_.pool[cy.frame];
    }
    ++out_.attempted;
    cy.checkin_sent = now_ns();
    if (record_) out_.gen_lag_ms.push_back(ms(cy.checkin_sent - cy.checkin_ready));
    if (c.broken || !send_all(c.fd, *frame)) {
      c.broken = true;
      end_failed(cy, false);
      error("checkin send failed");
      return;
    }
    c.checkin_fifo.push_back(ci);
  }

  void on_ack(ConnState& c, std::size_t ci, const net::Bytes& payload,
              std::int64_t arrived) {
    Cycle& cy = c.cycles[ci];
    const std::int64_t t = arrived;
    bool ok = false;
    try {
      ok = net::AckMessage::deserialize(payload).ok;
    } catch (const std::exception&) {
    }
    if (!ok) {
      end_failed(cy, false);
      error("checkin nacked: " + ack_reason(payload));
    } else {
      ++out_.acked;
      if (record_) {
        out_.checkin_ms.add(t, ms(t - cy.checkin_ready));
        out_.cycle_ms.add(t, ms(t - cy.due));
      }
      if (ph_->trace) {
        out_.spans.push_back({cy.req, "cycle", "", cy.due, t});
        out_.spans.push_back({cy.req, "checkout", "cycle", cy.checkout_sent, cy.params_at});
        out_.spans.push_back({cy.req, "checkin", "cycle", cy.checkin_sent, t});
      }
      finish(cy);
    }
    if (accepting(t)) start_cycle(c, ci, arrived);  // due: the freeing ack
  }

  Stack& stack_;
  const Workload& w_;
  std::vector<ConnState>& conns_;
  const std::uint64_t req_base_;
  std::uint64_t reqs_ = 0;
  long long started_ = 0;
  std::size_t busy_ = 0;  ///< cycles in flight
  const Phase* ph_ = nullptr;
  bool record_ = false;
  Samples out_;
};

/// Client side of one run: the connection states (persisting across
/// phases) and their threads.
class Load {
 public:
  Load(Stack& stack, const Workload& w) : stack_(stack), w_(w) {
    conns_.resize(kClientThreads);
    for (std::size_t c = 0; c < kConnections; ++c) {
      ConnState s;
      s.index = c;
      s.fd = stack.fds[c];
      s.cycles.resize(kDevices / kConnections);
      // Slot i of connection c is device c + 4i (with device compute; the
      // pooled workloads take the device of each frame they replay).
      for (std::size_t i = 0; i < s.cycles.size(); ++i)
        s.cycles[i].device = c + kConnections * i;
      conns_[c % kClientThreads].push_back(std::move(s));
    }
  }

  /// Run one phase of `seconds` on all client threads and merge.
  Samples phase(double seconds, bool record, bool trace,
                long long max_cycles = std::numeric_limits<long long>::max()) {
    Phase ph;
    ph.max_cycles = max_cycles / static_cast<long long>(kClientThreads);
    ph.start = now_ns() + 20'000'000;  // let every thread reach its loop
    ph.end = ph.start + static_cast<std::int64_t>(seconds * 1e9);
    ph.trace = trace;
    std::vector<Samples> results(kClientThreads);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kClientThreads; ++i)
      threads.emplace_back([&, i] {
        while (now_ns() < ph.start) std::this_thread::yield();
        ClientThread ct(stack_, w_, conns_[i], i + 1);
        results[i] = ct.run(ph, record);
      });
    for (auto& th : threads) th.join();
    Samples all = std::move(results[0]);
    for (std::size_t i = 1; i < results.size(); ++i) all.merge(std::move(results[i]));
    last_start_ = ph.start;
    last_end_ = ph.end;
    return all;
  }

  std::int64_t last_start() const { return last_start_; }
  std::int64_t last_end() const { return last_end_; }

 private:
  Stack& stack_;
  const Workload& w_;
  std::vector<std::vector<ConnState>> conns_;
  std::int64_t last_start_ = 0, last_end_ = 0;
};

// --------------------------------------------------------------- replay

struct ReplicaFigures {
  double await_quorum_us = 0, ship_us = 0, follower_apply_us = 0, lag_max = 0;
};

struct ReplayResult {
  double decode_us = 0, crc_us = 0, verify_us = 0, encode_us = 0, sign_us = 0,
         handle_us = 0, apply_us = 0, update_us = 0, wal_append_us = 0,
         frame_bytes = 0;
  ReplicaFigures replica;
};

/// What replicating the sample would cost: a scratch leader store
/// (group commit, fsync=always) with a quorum-mode LogShipper and one
/// follower, fed the messages in batches of kReplicaReplayBatch.
ReplicaFigures replication_replay(const Workload& w,
                                  const std::vector<net::CheckinMessage>& msgs,
                                  const std::string& dir) {
  constexpr std::size_t kReplicaReplayBatch = 16;
  ReplicaFigures r;
  std::filesystem::remove_all(dir);
  obs::MetricsRegistry lreg, freg;
  core::Server leader = make_server(w.features);
  core::Server follower_server = make_server(w.features);
  store::DurableStoreOptions so;
  so.wal.fsync = store::FsyncPolicy::kAlways;
  so.wal.metrics = &lreg;
  store::DurableStore st(dir + "/leader", so);
  st.recover(leader);
  st.attach(leader);
  st.set_group_commit(true);
  replica::ShipperOptions sh;
  sh.ack_mode = replica::ReplAckMode::kQuorum;
  sh.quorum_follower_acks = 1;
  sh.metrics = &lreg;
  replica::LogShipper ship(leader, st, 1, sh);
  replica::FollowerOptions fo;
  fo.leader_port = ship.port();
  fo.follower_id = 1;
  fo.store = so;
  fo.store.wal.metrics = &freg;
  fo.metrics = &freg;
  fo.reconnect_backoff_ms = 10;
  replica::Follower follower(follower_server, dir + "/follower", fo);
  follower.start();
  const std::int64_t connect_deadline = now_ns() + 5'000'000'000LL;
  while (ship.follower_sessions() == 0 && now_ns() < connect_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::vector<double> waits;
  for (std::size_t i = 0; i < msgs.size(); i += kReplicaReplayBatch) {
    for (std::size_t j = i; j < std::min(msgs.size(), i + kReplicaReplayBatch); ++j)
      leader.handle_checkin(msgs[j]);
    if (!st.commit_group()) throw std::runtime_error("replica replay: commit failed");
    const std::uint64_t seq = st.wal().last_seq();
    const std::int64_t t0 = now_ns();
    ship.notify_committed();
    r.lag_max = std::max(
        r.lag_max, static_cast<double>(seq - std::min(seq, follower.applied_seq())));
    if (!ship.await_quorum(seq)) throw std::runtime_error("replica replay: no quorum");
    waits.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  follower.shutdown();
  ship.shutdown();
  const RegSnap none, l = RegSnap::take(lreg), f = RegSnap::take(freg);
  r.await_quorum_us = crowdbench::mean(waits);
  r.ship_us = window_mean_us(none, l, "crowdml_repl_ship_seconds");
  r.follower_apply_us = window_mean_us(none, f, "crowdml_repl_apply_seconds");
  std::filesystem::remove_all(dir);
  return r;
}

/// Single-threaded, seeded replay of a fixed sample of the workload's own
/// checkin frames through each layer's public functions. The live engine
/// only exports the total handle time; this splits it.
ReplayResult layer_replay(const Stack& stack, const Workload& w,
                          const std::vector<net::Bytes>& frames,
                          const std::string& scratch_dir) {
  ReplayResult r;
  if (frames.empty()) return r;
  const auto n = static_cast<double>(frames.size());
  auto time_us = [](auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0) / 1e3;
  };
  std::vector<net::CheckinMessage> msgs;
  for (const auto& f : frames) {
    r.frame_bytes += static_cast<double>(f.size()) / n;
    net::Frame fr;
    net::CheckinMessage m;
    r.decode_us += time_us([&] {
      fr = net::decode_frame(f);
      m = net::CheckinMessage::deserialize(fr.payload);
    }) / n;
    // decode_frame checks the CRC itself; report that part separately.
    r.crc_us += time_us([&] {
      net::crc32(f.data() + net::kFrameTypeOffset,
                 f.size() - net::kFrameMagicSize - net::kFrameTrailerSize);
    }) / n;
    msgs.push_back(std::move(m));
  }
  r.decode_us -= r.crc_us;

  net::AuthRegistry auth{rng::Engine(mix(stack.seed_, 3))};
  for (std::size_t d = 0; d < kDevices; ++d) auth.enroll();
  for (const auto& m : msgs) {
    const auto& creds = stack.devices[m.device_id - 1].creds;
    bool ok = false;
    r.verify_us += time_us([&] { ok = auth.verify(m.device_id, m.body(), m.auth_tag); }) / n;
    if (!ok) throw std::runtime_error("replay: verify rejected a workload frame");
    r.sign_us += time_us([&] { creds.sign(m.body()); }) / n;
    r.encode_us += time_us([&] {
      const auto f = net::encode_frame(net::MessageType::kCheckin, m.serialize());
      if (f.empty()) throw std::runtime_error("replay: empty frame");
    }) / n;
  }

  {
    core::Server server = make_server(w.features);
    core::ProtocolServer proto(server, auth);
    for (const auto& f : frames)
      r.handle_us += time_us([&] { proto.handle(f); }) / n;
    if (proto.auth_failures() != 0 || proto.malformed_frames() != 0)
      throw std::runtime_error("replay: ProtocolServer refused a workload frame");
  }
  {
    core::Server server = make_server(w.features);
    for (const auto& m : msgs)
      r.apply_us += time_us([&] {
        if (!server.handle_checkin(m).ok)
          throw std::runtime_error("replay: checkin rejected");
      }) / n;
  }
  {
    opt::SgdUpdater upd(std::make_unique<opt::SqrtDecaySchedule>(50.0), 500.0);
    linalg::Vector wv(kClasses * w.features, 0.0);
    for (const auto& m : msgs) r.update_us += time_us([&] { upd.apply(wv, m.g_hat); }) / n;
  }
  {
    obs::MetricsRegistry scratch_reg;
    store::WalOptions wo;
    wo.fsync = store::FsyncPolicy::kNever;
    wo.metrics = &scratch_reg;
    std::filesystem::remove_all(scratch_dir);
    store::WriteAheadLog wal(scratch_dir, wo);
    wal.open_and_replay(0, [](std::uint64_t, const net::Bytes&) {});
    std::uint64_t seq = 0;
    for (const auto& m : msgs) {
      const net::Bytes payload = m.serialize();
      r.wal_append_us += time_us([&] { wal.append(++seq, payload); }) / n;
    }
  }
  std::filesystem::remove_all(scratch_dir);
  if (!w.replicated) r.replica = replication_replay(w, msgs, scratch_dir);
  return r;
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_series(const char* name, const std::vector<double>& samples) {
  const crowdbench::Summary s = crowdbench::summarize(samples);
  std::printf("series %-12s n=%zu failed=%zu p50=%s p99=%s p99_supported=%s "
              "top=p%g:%s\n",
              name, s.count, s.failed, num(s.p50).c_str(), num(s.p99).c_str(),
              s.p99_supported ? "yes" : "no", s.top_q * 100.0,
              num(s.top).c_str());
}

/// Per-span-name count, mean duration and mean self time (duration
/// minus the part covered by child spans of the same request).
void print_self_times(const std::vector<Span>& spans) {
  std::map<std::pair<std::uint64_t, std::string>, std::vector<crowdbench::Interval>>
      children;
  for (const Span& s : spans)
    if (*s.parent)
      children[{s.req, s.parent}].push_back(
          {static_cast<double>(s.start), static_cast<double>(s.end)});
  struct Agg {
    double total = 0, self = 0;
    long long n = 0;
  };
  std::map<std::string, Agg> agg;
  for (const Span& s : spans) {
    const auto it = children.find({s.req, s.name});
    const crowdbench::Interval me{static_cast<double>(s.start),
                                  static_cast<double>(s.end)};
    Agg& a = agg[s.name];
    a.total += me.end - me.start;
    a.self += crowdbench::self_time(
        me, it == children.end() ? std::vector<crowdbench::Interval>{} : it->second);
    ++a.n;
  }
  for (const auto& [name, a] : agg)
    std::printf("span %-24s n=%lld mean_us=%.3f self_us=%.3f\n", name.c_str(),
                a.n, a.total / static_cast<double>(a.n) / 1e3,
                a.self / static_cast<double>(a.n) / 1e3);
}

void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const Stack& stack) {
  std::ofstream out(path);
  const std::size_t n = std::min(spans.size(), kSpansWritten);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out << "{\"req\": " << s.req << ", \"name\": \"" << s.name
        << "\", \"parent\": \"" << s.parent << "\", \"start_us\": "
        << num(static_cast<double>(s.start) / 1e3)
        << ", \"dur_us\": " << num(static_cast<double>(s.end - s.start) / 1e3)
        << "}\n";
  }
  std::ofstream prom(path + ".prom");
  prom << "# leader registry\n" << stack.reg.render_prometheus();
  prom << "# follower registry\n" << stack.follower_reg.render_prometheus();
  prom << "# process-wide registry\n" << obs::default_registry().render_prometheus();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = (v == "1");
    else if (k == "--work-dir") a.work_dir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) found = &w;
  if (!found) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *found;

  const std::string dir = args.work_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::printf("fingerprint %s\n", fingerprint(dir).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d inflight %zu\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kDevices);
  std::fflush(stdout);

  // Setup, several times: setup_s is the median. Only the last stack
  // takes traffic.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    std::filesystem::remove_all(dir + "/stack");
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<Stack>(w, args.seed, dir + "/stack");
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Load load(*stack, w);
  Samples warm = load.phase(60.0, false, false, kWarmupCycles);

  Samples main_run, traced;
  RegSnap leader0, leader1, follower0, follower1, proc0, proc1;
  double cpu0 = 0, cpu1 = 0, wall_s = 0;
  if (!args.trace) {
    main_run = load.phase(args.seconds, true, false);
  } else {
    // Alternating quarters, untraced / traced / untraced / traced, so a
    // drift in host speed cancels out of the tracing overhead (the ratio
    // of the traced to the untraced cycle p50). Per-layer figures sum
    // the registry deltas over the traced quarters.
    for (int q = 0; q < 4; ++q) {
      if (q % 2 == 0) {
        main_run.merge(load.phase(args.seconds / 4, true, false));
        continue;
      }
      leader0 += RegSnap::take(stack->reg);
      follower0 += RegSnap::take(stack->follower_reg);
      proc0 += RegSnap::take(obs::default_registry());
      cpu0 += cpu_seconds();
      stack->commits.tracing = true;
      const std::int64_t t0 = now_ns();
      traced.merge(load.phase(args.seconds / 4, true, true));
      wall_s += static_cast<double>(now_ns() - t0) / 1e9;
      stack->commits.tracing = false;
      cpu1 += cpu_seconds();
      leader1 += RegSnap::take(stack->reg);
      follower1 += RegSnap::take(stack->follower_reg);
      proc1 += RegSnap::take(obs::default_registry());
    }
  }

  // Drain: the engine answers everything admitted; the follower catches up.
  const long long acked_total = warm.acked + main_run.acked + traced.acked;
  const long long attempted = main_run.attempted + traced.attempted;
  const long long failed = main_run.failed + traced.failed;
  const long long warm_failed = warm.failed;
  const long long auth_failures = stack->engine->protocol().auth_failures();
  const long long malformed = stack->engine->protocol().malformed_frames();
  const long long commit_failures = stack->engine->commit_failures();
  stack->engine->shutdown();
  const RegSnap final_reg = RegSnap::take(stack->reg);
  const std::uint64_t version = stack->server.version();
  const std::uint64_t wal_last = stack->store->wal().last_seq();
  const long long wal_appended = stack->store->wal().appended_records();
  bool follower_ok = true;
  if (stack->follower) {
    const auto deadline = now_ns() + 10'000'000'000LL;
    while (stack->follower->applied_seq() < wal_last && now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    follower_ok = stack->follower->applied_seq() == wal_last;
  }

  // Correctness checks: any failure fails the run.
  std::vector<std::string> problems;
  auto require = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };
  require(static_cast<std::uint64_t>(acked_total) == version &&
              version == wal_last &&
              static_cast<std::uint64_t>(wal_appended) == version,
          "acked " + std::to_string(acked_total) + " != version " +
              std::to_string(version) + " != WAL last seq " +
              std::to_string(wal_last) + " / appended " +
              std::to_string(wal_appended));
  require(follower_ok, "follower applied seq != leader committed seq");
  require(auth_failures == 0, "auth failures");
  require(malformed == 0, "malformed frames");
  require(commit_failures == 0, "commit failures");
  require(final_reg.counter("crowdml_engine_protocol_errors_total") == 0,
          "engine protocol errors");
  require(warm_failed == 0, "warm-up operations failed");
  double test_error = 0.0;
  if (w.device_compute) {
    test_error = metrics::evaluate_model(*stack->model, stack->server.parameters(),
                                         stack->ds.test);
    require(test_error < kFleetErrorBound,
            "final test error " + num(test_error) + " >= bound");
  }

  std::vector<Metric> out;
  if (!args.trace) {
    // Exact whole-run figures with their sample counts, then the
    // reported ones: p50 over the whole window; p99 and throughput as
    // medians over one-second windows, so a single disk or scheduler
    // stall moves one window rather than the run's figure.
    print_series("checkout_ms", main_run.checkout_ms.value);
    print_series("checkin_ms", main_run.checkin_ms.value);
    print_series("cycle_ms", main_run.cycle_ms.value);
    const std::int64_t t0 = load.last_start();
    const auto nwin = static_cast<std::size_t>((load.last_end() - t0) / kWindowNs);
    auto p50 = [](const crowdbench::Series& s) {
      return crowdbench::summarize(s.value).p50;
    };
    auto p99 = [&](const crowdbench::Series& s, const char* name) {
      const auto v = crowdbench::windowed_quantile(s, t0, kWindowNs, nwin, 0.99);
      require(v.has_value(), std::string(name) +
                                 ": too few one-second windows with 10 samples beyond p99");
      std::printf("windowed %s p99 over %zu windows: %s\n", name, nwin,
                  num(v.value_or(kFailed)).c_str());
      return v.value_or(kFailed);
    };
    std::vector<std::int64_t> ack_at;
    for (std::size_t i = 0; i < main_run.checkin_ms.at.size(); ++i)
      if (std::isfinite(main_run.checkin_ms.value[i]))
        ack_at.push_back(main_run.checkin_ms.at[i]);
    out = {
        {"setup_s", crowdbench::median(setup_s), "s"},
        {"checkins_per_s", crowdbench::windowed_rate(ack_at, t0, kWindowNs, nwin), "1/s"},
        {"checkin_p50_ms", p50(main_run.checkin_ms), "ms"},
        {"checkin_p99_ms", p99(main_run.checkin_ms, "checkin_ms"), "ms"},
        {"cycle_p50_ms", p50(main_run.cycle_ms), "ms"},
        {"cycle_p99_ms", p99(main_run.cycle_ms, "cycle_ms"), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    std::vector<Span> spans = std::move(traced.spans);
    {
      std::lock_guard<std::mutex> lock(stack->commits.mu);
      spans.insert(spans.end(), stack->commits.spans.begin(),
                   stack->commits.spans.end());
    }
    print_self_times(spans);
    std::vector<double> commit_us, quorum_us;
    for (const Span& s : spans) {
      const double us = static_cast<double>(s.end - s.start) / 1e3;
      if (std::strcmp(s.name, "store.commit_group") == 0) commit_us.push_back(us);
      if (std::strcmp(s.name, "replica.await_quorum") == 0) quorum_us.push_back(us);
    }
    const auto commit = crowdbench::summarize(commit_us);
    const auto checkout = crowdbench::summarize(traced.checkout_ms.value);
    const std::vector<net::Bytes>& replay_frames =
        w.device_compute ? traced.frames : stack->pool;
    const std::vector<net::Bytes> sample(
        replay_frames.begin(),
        replay_frames.begin() +
            static_cast<long>(std::min(replay_frames.size(), kReplayFrames)));
    const ReplayResult rp = layer_replay(*stack, w, sample, dir + "/replay-wal");

    const double acked = static_cast<double>(std::max<long long>(1, traced.acked));
    // Live figures where a follower served the run; otherwise the replay's.
    const ReplicaFigures live_replica =
        w.replicated
            ? ReplicaFigures{crowdbench::mean(quorum_us),
                             window_mean_us(leader0, leader1, "crowdml_repl_ship_seconds"),
                             window_mean_us(follower0, follower1, "crowdml_repl_apply_seconds"),
                             stack->commits.lag_max}
            : rp.replica;
    auto lc = [&](const char* n) {
      return static_cast<double>(leader1.counter(n) - leader0.counter(n));
    };
    const double handle_s = leader1.sum("crowdml_server_handle_seconds") -
                            leader0.sum("crowdml_server_handle_seconds");
    double commit_s = 0;
    for (const double us : commit_us) commit_s += us / 1e6;
    const double fsyncs = static_cast<double>(
        leader1.count("crowdml_wal_fsync_seconds") - leader0.count("crowdml_wal_fsync_seconds"));
    const double untraced_p50 = crowdbench::summarize(main_run.cycle_ms.value).p50;
    const double traced_p50 = crowdbench::summarize(traced.cycle_ms.value).p50;
    const bool pooled = !w.device_compute;
    const double compute_us = pooled ? crowdbench::mean(stack->device_compute_us)
                                     : crowdbench::mean(traced.compute_us);
    const double gradient_us =
        pooled ? stack->gradient_us
               : window_mean_us(proc0, proc1, "crowdml_device_gradient_seconds");
    const double sanitize_us =
        pooled ? stack->sanitize_us
               : window_mean_us(proc0, proc1, "crowdml_device_sanitize_seconds");
    const double batch_n = static_cast<double>(
        leader1.count("crowdml_engine_batch_size") - leader0.count("crowdml_engine_batch_size"));
    out = {
        {"net.decode_us", rp.decode_us, "us"},
        {"net.crc_us", rp.crc_us, "us"},
        {"net.verify_us", rp.verify_us, "us"},
        {"net.encode_us", rp.encode_us, "us"},
        {"net.sign_us", rp.sign_us, "us"},
        {"net.checkin_frame_bytes", rp.frame_bytes, "bytes"},
        {"net.codec_decode_us", window_mean_us(proc0, proc1, "crowdml_codec_decode_seconds"), "us"},
        {"net.codec_encode_us", window_mean_us(proc0, proc1, "crowdml_codec_encode_seconds"), "us"},
        {"core.handle_us", window_mean_us(leader0, leader1, "crowdml_server_handle_seconds"), "us"},
        {"core.replay_handle_us", rp.handle_us, "us"},
        {"core.apply_us", rp.apply_us, "us"},
        {"core.applier_busy_frac", (handle_s + commit_s) / wall_s, "frac"},
        {"opt.update_us", rp.update_us, "us"},
        {"engine.batch_size_mean",
         batch_n > 0 ? (leader1.sum("crowdml_engine_batch_size") -
                        leader0.sum("crowdml_engine_batch_size")) / batch_n
                     : 0.0,
         "count"},
        {"engine.queue_depth_mean",
         stack->commits.depth_samples > 0
             ? stack->commits.depth_sum / static_cast<double>(stack->commits.depth_samples)
             : 0.0,
         "count"},
        {"engine.sheds", lc("crowdml_engine_checkins_shed_total"), "count"},
        {"engine.protocol_errors", lc("crowdml_engine_protocol_errors_total"), "count"},
        {"engine.snapshot_publishes_per_checkin",
         lc("crowdml_engine_snapshot_publishes_total") / acked, "count"},
        {"engine.checkout_p50_ms", checkout.p50, "ms"},
        {"engine.checkout_p99_ms", checkout.p99, "ms"},
        {"store.commit_group_us", crowdbench::mean(commit_us), "us"},
        {"store.commit_group_p99_us", commit.p99, "us"},
        {"store.fsyncs", fsyncs, "count"},
        {"store.checkins_per_fsync", fsyncs > 0 ? acked / fsyncs : 0.0, "count"},
        {"store.fsync_us", window_mean_us(leader0, leader1, "crowdml_wal_fsync_seconds"), "us"},
        {"store.append_us", window_mean_us(leader0, leader1, "crowdml_wal_append_seconds"), "us"},
        {"store.replay_append_us", rp.wal_append_us, "us"},
        {"store.wal_bytes_per_checkin", lc("crowdml_wal_bytes_total") / acked, "bytes"},
        {"replica.await_quorum_us", live_replica.await_quorum_us, "us"},
        {"replica.ship_us", live_replica.ship_us, "us"},
        {"replica.follower_apply_us", live_replica.follower_apply_us, "us"},
        {"replica.quorum_timeouts", lc("crowdml_repl_quorum_timeouts_total"), "count"},
        {"replica.lag_records_max", live_replica.lag_max, "count"},
        {"core.device.compute_checkin_us", compute_us, "us"},
        {"models.gradient_us", gradient_us, "us"},
        {"privacy.sanitize_us", sanitize_us, "us"},
        {"proc.cpu_us_per_checkin", (cpu1 - cpu0) * 1e6 / acked, "us"},
        {"bench.gen_lag_p99_ms", crowdbench::summarize(traced.gen_lag_ms).p99, "ms"},
        {"bench.failed_frac",
         static_cast<double>(failed) / static_cast<double>(std::max<long long>(1, attempted)),
         "frac"},
        {"obs.trace_overhead_frac", untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
         "frac"},
    };
    const std::string out_dir = args.work_dir + "/traces";
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    write_trace(path, spans, *stack);
    std::printf("trace written: %s (+ .prom registry snapshot)\n", path.c_str());
  }

  stack.reset();
  std::filesystem::remove_all(dir);

  bool finite = true;
  for (const auto& m : out) finite = finite && std::isfinite(m.value);
  require(finite, "a metric is not finite");
  for (const auto& e : main_run.errors) std::printf("error %s\n", e.c_str());
  for (const auto& e : traced.errors) std::printf("error %s\n", e.c_str());

  std::printf("checks acked=%lld version=%llu wal_last=%llu test_error=%s %s\n",
              acked_total, static_cast<unsigned long long>(version),
              static_cast<unsigned long long>(wal_last), num(test_error).c_str(),
              problems.empty() ? "ok" : "FAILED");
  for (const auto& p : problems) std::printf("check failed: %s\n", p.c_str());
  const bool correct = problems.empty();
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << std::max<long long>(1, attempted)
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i)
    o << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
      << num(out[i].value) << ", \"unit\": \"" << out[i].unit << "\"}";
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (sanitizer_build()) {
    std::fprintf(stderr,
                 "crowdbench: refusing to publish numbers from a sanitizer build\n");
    return 3;
  }
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crowdbench: %s\n", e.what());
    return 2;
  }
}
