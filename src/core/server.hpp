// Server-side Crowd-ML (Algorithm 2, Server Routines 1-2).
//
// The server owns the parameters w, applies one update per checkin
// (w <- Pi_W[w - eta(t) g^], Eq. 3, or any pluggable opt::Updater per
// Remark 3), tracks per-device noisy statistics N_s / N_e / N_y, estimates
// the crowd error rate and label prior from them (Eq. 14), and stops when
// t >= T_max or the estimated error falls below rho.
//
// Thread-safe: checkouts and checkins may arrive concurrently from the
// threaded/TCP runtimes. Authentication lives at the protocol boundary
// (net::ProtocolServer); this class trusts its callers but still validates
// every checkin payload (dimension, finiteness) so a malformed message can
// never poison w.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "net/messages.hpp"
#include "opt/updater.hpp"
#include "rng/engine.hpp"

namespace crowdml::core {

struct ServerConfig {
  std::size_t param_dim = 0;
  std::size_t num_classes = 2;
  long long max_iterations = -1;  // T_max; -1 = unlimited
  double target_error = -1.0;     // rho; < 0 disables the error criterion
  /// Minimum total reported samples before the rho criterion can fire
  /// (noisy counts on few samples are meaningless).
  long long min_samples_for_stopping = 100;
  double init_scale = 0.0;  // |w_i(0)| ~ uniform(-s, s); 0 = zero init
};

struct DeviceStats {
  long long samples = 0;       // N_s^m (true count, public)
  long long errors_hat = 0;    // N_e^m (noisy)
  std::vector<long long> label_counts_hat;  // N_y^{k,m} (noisy)
  long long checkins = 0;
};

class Server {
 public:
  Server(ServerConfig config, std::unique_ptr<opt::Updater> updater,
         rng::Engine eng);

  /// Server Routine 1: current parameters + version. `accepted` is false
  /// once the stopping criteria are met.
  net::ParamsMessage handle_checkout(std::uint64_t device_id);

  /// Server Routine 2: validate, record stats, apply the update.
  net::AckMessage handle_checkin(const net::CheckinMessage& msg);

  /// Snapshot of the current parameters (copy; thread-safe).
  linalg::Vector parameters() const;

  /// Server iteration t (number of applied checkins).
  std::uint64_t version() const;

  /// Total samples reported across the crowd (sum of N_s^m).
  long long total_samples() const;

  /// Eq. (14): sum N_e / sum N_s (clamped to [0, 1]; 0 before any data).
  double estimated_error() const;

  /// Eq. (14): estimated label prior P(y=k) (clamped to >= 0, normalized).
  linalg::Vector estimated_prior() const;

  bool stopped() const;

  DeviceStats device_stats(std::uint64_t device_id) const;
  std::unordered_map<std::uint64_t, DeviceStats> all_device_stats() const;
  std::size_t devices_seen() const;

  /// Restore learning state from a checkpoint (see core/checkpoint.hpp).
  /// Totals are recomputed from the per-device stats; the updater's
  /// iteration counter resumes at `version`. Throws std::invalid_argument
  /// on a dimension mismatch.
  void restore(const linalg::Vector& w, std::uint64_t version,
               const std::unordered_map<std::uint64_t, DeviceStats>& stats);

  /// Draw-and-discard discard step (engine::ModelInstancePool):
  /// replace w wholesale with another instance's parameters. Counts as
  /// one model update — the version and the updater's step clock both
  /// advance, so `steps == version` (what checkpoint restore assumes)
  /// stays an invariant and WAL replay of an overwrite record lands on
  /// the same schedule state as the never-crashed instance. Device stats
  /// are untouched: they account sanitized *observations*, not the model
  /// lineage. Returns the new version. Throws std::invalid_argument on a
  /// dimension mismatch.
  std::uint64_t overwrite_parameters(const linalg::Vector& w);

  /// Durability hook, invoked under the state lock after every applied
  /// checkin — in version order, with the message and the iteration it
  /// produced — and before the ack is returned. A durability layer (see
  /// store::DurableStore) appends the record to its write-ahead log here,
  /// so an ack only ever leaves for a persisted update. Returning false
  /// turns the ack into a nack ("durability failure"): the update stays
  /// applied in memory, but the device is never told its checkin is safe
  /// when it is not. The hook must not call back into the server and must
  /// not throw.
  using AppliedHook =
      std::function<bool(const net::CheckinMessage& msg, std::uint64_t version)>;
  void set_applied_hook(AppliedHook hook);

  /// Checkins rejected by validation (bad dimension / non-finite values).
  long long rejected_checkins() const;

  /// Mean parameter staleness over applied checkins: how many server
  /// updates happened between a gradient's checkout and its arrival.
  /// Section IV-B3 predicts roughly (tau_co + tau_ci) * M * Fs / b.
  double mean_staleness() const;
  std::uint64_t max_staleness() const;

 private:
  bool stopping_criteria_met_locked() const;

  ServerConfig config_;
  std::unique_ptr<opt::Updater> updater_;

  mutable std::mutex mu_;
  linalg::Vector w_;
  std::uint64_t version_ = 0;
  std::unordered_map<std::uint64_t, DeviceStats> stats_;
  long long total_samples_ = 0;
  long long total_errors_hat_ = 0;
  std::vector<long long> total_label_counts_hat_;
  long long rejected_ = 0;
  std::uint64_t staleness_sum_ = 0;
  std::uint64_t staleness_max_ = 0;
  AppliedHook applied_hook_;
};

}  // namespace crowdml::core
