// Secure-aggregation cohort mode (src/secagg/, docs/PRIVACY.md):
// pairwise-mask cancellation (bit-for-bit, including after dropout seed
// recovery), the CohortManager round lifecycle under an injectable
// clock, the wire codecs, the device-side fallback arc, the privacy
// accountant's cohort bookkeeping, and the passthrough guarantee that
// attaching a CohortManager changes no classic frame's bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/protocol.hpp"
#include "models/logistic_regression.hpp"
#include "obs/metrics.hpp"
#include "opt/schedule.hpp"
#include "privacy/mechanisms.hpp"
#include "rng/distributions.hpp"
#include "secagg/client.hpp"
#include "secagg/cohort.hpp"
#include "secagg/mask.hpp"

using namespace crowdml;

namespace {

net::SecretKey fleet_key() {
  net::SecretKey key(32);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(0xA0 + i);
  return key;
}

std::vector<std::uint64_t> modular_sum(
    const std::vector<std::vector<std::uint64_t>>& rows) {
  std::vector<std::uint64_t> sum(rows.front().size(), 0);
  for (const auto& row : rows)
    for (std::size_t i = 0; i < row.size(); ++i) sum[i] += row[i];
  return sum;
}

}  // namespace

// ------------------------------------------------------------- masking

TEST(SecAggMask, QuantizeRoundTripsAndSaturates) {
  for (double v : {0.0, 1.0, -1.0, 0.3125, -123.456, 1e-7, 7.5e11}) {
    const double back = secagg::dequantize(secagg::quantize(v));
    EXPECT_NEAR(back, v, 1.0 / secagg::kFixedPointScale) << v;
  }
  // Hostile magnitudes clamp instead of wrapping into small aliases.
  EXPECT_NEAR(secagg::dequantize(secagg::quantize(1e300)),
              secagg::kFixedPointMax, 1.0);
  EXPECT_NEAR(secagg::dequantize(secagg::quantize(-1e300)),
              -secagg::kFixedPointMax, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isfinite(secagg::dequantize(secagg::quantize(nan))));
}

TEST(SecAggMask, CountEncodingIsTwosComplement) {
  for (std::int64_t n : {0LL, 1LL, -1LL, 42LL, -9999LL}) {
    EXPECT_EQ(secagg::decode_count(secagg::encode_count(n)), n);
  }
  // Modular sums of encoded counts add correctly across sign changes.
  const std::uint64_t sum = secagg::encode_count(-7) + secagg::encode_count(3);
  EXPECT_EQ(secagg::decode_count(sum), -4);
}

TEST(SecAggMask, PairwiseSeedIsSymmetricAndRoundBound) {
  const auto key = fleet_key();
  EXPECT_EQ(secagg::pairwise_seed(key, 3, 9, 1),
            secagg::pairwise_seed(key, 9, 3, 1));
  EXPECT_NE(secagg::pairwise_seed(key, 3, 9, 1),
            secagg::pairwise_seed(key, 3, 9, 2));
  EXPECT_NE(secagg::pairwise_seed(key, 3, 9, 1),
            secagg::pairwise_seed(key, 3, 8, 1));
}

// The core guarantee: for any cohort size, the element-wise modular sum
// of every member's masked words equals the sum of the unmasked words,
// bit for bit.
TEST(SecAggMask, MasksCancelBitForBitAcrossCohortSizes) {
  const auto key = fleet_key();
  rng::Engine eng(11);
  for (std::size_t c : {2u, 8u, 32u}) {
    std::vector<std::uint64_t> roster;
    for (std::size_t i = 0; i < c; ++i)
      roster.push_back(100 + 7 * static_cast<std::uint64_t>(i));

    std::vector<std::vector<std::uint64_t>> plain, masked;
    for (std::uint64_t id : roster) {
      std::vector<std::uint64_t> words;
      for (int i = 0; i < 6; ++i)
        words.push_back(secagg::quantize(rng::normal(eng)));
      words.push_back(secagg::encode_count(
          static_cast<std::int64_t>(rng::uniform_index(eng, 20)) - 10));
      plain.push_back(words);
      secagg::mask_against_roster(words, key, id, roster, /*round_id=*/77);
      masked.push_back(words);
      // The mask is not a no-op for any member of a >=2 cohort.
      EXPECT_NE(masked.back(), plain.back());
    }
    EXPECT_EQ(modular_sum(masked), modular_sum(plain)) << "cohort " << c;
  }
}

// Dropout recovery in the mask domain: when f members vanish after
// masking, subtracting each (survivor, dead) pair's stream — with the
// opposite sign the survivor applied — restores the survivors' sum
// exactly. This mirrors CohortManager::complete_locked.
TEST(SecAggMask, RecoverySubtractionRestoresSurvivorSum) {
  const auto key = fleet_key();
  rng::Engine eng(12);
  for (const auto& [c, f] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 1}, {8, 3}, {32, 5}}) {
    std::vector<std::uint64_t> roster;
    for (std::size_t i = 0; i < c; ++i)
      roster.push_back(1 + static_cast<std::uint64_t>(i));
    const std::uint64_t round_id = 1000 + c;

    std::vector<std::vector<std::uint64_t>> plain, masked;
    for (std::uint64_t id : roster) {
      std::vector<std::uint64_t> words;
      for (int i = 0; i < 5; ++i)
        words.push_back(secagg::quantize(rng::normal(eng)));
      plain.push_back(words);
      secagg::mask_against_roster(words, key, id, roster, round_id);
      masked.push_back(words);
    }

    // The last f roster members drop out after masking.
    const std::size_t survivors = c - f;
    std::vector<std::vector<std::uint64_t>> surv_plain(
        plain.begin(), plain.begin() + static_cast<std::ptrdiff_t>(survivors));
    std::vector<std::vector<std::uint64_t>> surv_masked(
        masked.begin(),
        masked.begin() + static_cast<std::ptrdiff_t>(survivors));
    auto sum = modular_sum(surv_masked);
    for (std::size_t s = 0; s < survivors; ++s) {
      for (std::size_t d = survivors; d < c; ++d) {
        const net::Digest seed =
            secagg::pairwise_seed(key, roster[s], roster[d], round_id);
        // Survivor added the stream when its id is the lower one;
        // subtract it back out (and vice versa).
        secagg::apply_pair_mask(sum, seed, /*add=*/!(roster[s] < roster[d]));
      }
    }
    EXPECT_EQ(sum, modular_sum(surv_plain)) << "cohort " << c;
  }
}

TEST(SecAggMask, MaskStreamIsDeterministic) {
  const net::Digest seed = secagg::pairwise_seed(fleet_key(), 1, 2, 3);
  EXPECT_EQ(secagg::mask_stream(seed, 16), secagg::mask_stream(seed, 16));
  EXPECT_NE(secagg::mask_stream(seed, 16),
            secagg::mask_stream(secagg::pairwise_seed(fleet_key(), 1, 2, 4),
                                16));
}

// -------------------------------------------------------------- codecs

TEST(SecAggCodec, AssignRoundTripsBothDirections) {
  net::SecAggAssignMessage req;
  req.request = true;
  req.device_id = 42;
  req.auth_tag.fill(0x5A);
  const auto req_back = net::SecAggAssignMessage::deserialize(req.serialize());
  EXPECT_TRUE(req_back.request);
  EXPECT_EQ(req_back.device_id, 42u);
  EXPECT_EQ(req_back.auth_tag, req.auth_tag);

  net::SecAggAssignMessage resp;
  resp.request = false;
  resp.status = net::kSecAggAssignAssigned;
  resp.round_id = 9;
  resp.roster = {3, 7, 42};
  resp.deadline_ms = 1500;
  resp.min_survivors = 2;
  const auto resp_back =
      net::SecAggAssignMessage::deserialize(resp.serialize());
  EXPECT_FALSE(resp_back.request);
  EXPECT_EQ(resp_back.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(resp_back.round_id, 9u);
  EXPECT_EQ(resp_back.roster, resp.roster);
  EXPECT_EQ(resp_back.deadline_ms, 1500u);
  EXPECT_EQ(resp_back.min_survivors, 2u);
}

TEST(SecAggCodec, MaskedRoundTripsAndBodyExcludesTag) {
  net::SecAggMaskedMessage m;
  m.device_id = 7;
  m.round_id = 3;
  m.param_version = 12;
  m.ns = 10;
  m.masked_g = {1, ~0ULL, 0x8000000000000000ULL};
  m.masked_ne = 55;
  m.masked_ny = {2, 3};
  m.auth_tag.fill(0xAB);
  const auto back = net::SecAggMaskedMessage::deserialize(m.serialize());
  EXPECT_EQ(back.device_id, 7u);
  EXPECT_EQ(back.round_id, 3u);
  EXPECT_EQ(back.param_version, 12u);
  EXPECT_EQ(back.ns, 10);
  EXPECT_EQ(back.masked_g, m.masked_g);
  EXPECT_EQ(back.masked_ne, 55u);
  EXPECT_EQ(back.masked_ny, m.masked_ny);
  EXPECT_EQ(back.auth_tag, m.auth_tag);
  // Flipping the tag must not change the authenticated body.
  net::SecAggMaskedMessage tampered = m;
  tampered.auth_tag.fill(0x00);
  EXPECT_EQ(tampered.body(), m.body());
  // Flipping a masked word must.
  tampered = m;
  tampered.masked_g[0] ^= 1;
  EXPECT_NE(tampered.body(), m.body());
}

TEST(SecAggCodec, RevealRoundTripsBothDirections) {
  net::SecAggRevealMessage req;
  req.request = true;
  req.device_id = 5;
  req.round_id = 8;
  req.seeds.push_back({1, 9, secagg::pairwise_seed(fleet_key(), 1, 9, 8)});
  req.seeds.push_back({2, 9, secagg::pairwise_seed(fleet_key(), 2, 9, 8)});
  req.auth_tag.fill(0x77);
  const auto req_back =
      net::SecAggRevealMessage::deserialize(req.serialize());
  EXPECT_TRUE(req_back.request);
  ASSERT_EQ(req_back.seeds.size(), 2u);
  EXPECT_EQ(req_back.seeds[0].a, 1u);
  EXPECT_EQ(req_back.seeds[0].b, 9u);
  EXPECT_EQ(req_back.seeds[0].seed, req.seeds[0].seed);
  EXPECT_EQ(req_back.auth_tag, req.auth_tag);

  net::SecAggRevealMessage resp;
  resp.request = false;
  resp.round_id = 8;
  resp.status = net::kSecAggRoundRecovering;
  resp.dead = {9};
  resp.survivors = {1, 2, 5};
  resp.retry_after_ms = 50;
  const auto resp_back =
      net::SecAggRevealMessage::deserialize(resp.serialize());
  EXPECT_EQ(resp_back.status, net::kSecAggRoundRecovering);
  EXPECT_EQ(resp_back.dead, resp.dead);
  EXPECT_EQ(resp_back.survivors, resp.survivors);
  EXPECT_EQ(resp_back.retry_after_ms, 50u);
}

// ------------------------------------------------- CohortManager rounds

namespace {

/// Test rig around a CohortManager with a manual clock and a captured
/// apply sink.
struct ManagerRig {
  std::int64_t clock = 0;
  std::vector<net::CheckinMessage> applied;
  obs::MetricsRegistry metrics;
  secagg::CohortConfig cfg;
  std::unique_ptr<secagg::CohortManager> mgr;

  explicit ManagerRig(std::size_t cohort, std::size_t min_survivors = 2,
                      std::size_t dim = 3, std::size_t classes = 2) {
    cfg.cohort_size = cohort;
    cfg.min_survivors = min_survivors;
    cfg.round_timeout_ms = 200;
    cfg.param_dim = dim;
    cfg.num_classes = classes;
    cfg.metrics = &metrics;
    mgr = std::make_unique<secagg::CohortManager>(
        cfg, [this](const net::CheckinMessage& m) {
          applied.push_back(m);
          return net::AckMessage{true, "applied", 0};
        });
    mgr->set_clock([this] { return clock; });
  }

  net::SecAggAssignMessage assign(std::uint64_t device,
                                  std::uint8_t device_class = 0) {
    net::SecAggAssignMessage req;
    req.device_id = device;
    req.device_class = device_class;
    return mgr->handle_assign(req);
  }

  net::SecAggRevealMessage poll(std::uint64_t device, std::uint64_t round) {
    net::SecAggRevealMessage req;
    req.device_id = device;
    req.round_id = round;
    return mgr->handle_reveal(req);
  }

  /// A device's masked submission over known plain values.
  net::SecAggMaskedMessage masked(std::uint64_t device, std::uint64_t round,
                                  const std::vector<std::uint64_t>& roster,
                                  const std::vector<double>& g,
                                  std::int64_t ne,
                                  const std::vector<std::int64_t>& ny,
                                  std::int64_t ns) {
    std::vector<std::uint64_t> words;
    for (double v : g) words.push_back(secagg::quantize(v));
    words.push_back(secagg::encode_count(ne));
    for (std::int64_t n : ny) words.push_back(secagg::encode_count(n));
    secagg::mask_against_roster(words, fleet_key(), device, roster, round);
    net::SecAggMaskedMessage m;
    m.device_id = device;
    m.round_id = round;
    m.param_version = 4;
    m.ns = ns;
    m.masked_g.assign(words.begin(),
                      words.begin() + static_cast<std::ptrdiff_t>(g.size()));
    m.masked_ne = words[g.size()];
    m.masked_ny.assign(words.begin() + static_cast<std::ptrdiff_t>(g.size()) +
                           1,
                       words.end());
    return m;
  }
};

}  // namespace

TEST(SecAggCohort, FullRoundSumsAndApplies) {
  ManagerRig rig(/*cohort=*/3);
  EXPECT_EQ(rig.assign(1).status, net::kSecAggAssignPending);
  EXPECT_EQ(rig.assign(2).status, net::kSecAggAssignPending);
  const auto sealed = rig.assign(3);
  ASSERT_EQ(sealed.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(sealed.roster, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(sealed.min_survivors, 2u);
  // Earlier joiners re-poll into the same round.
  const auto again = rig.assign(1);
  ASSERT_EQ(again.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(again.round_id, sealed.round_id);

  const std::uint64_t r = sealed.round_id;
  EXPECT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(1, r, sealed.roster,
                                             {0.5, -1.0, 0.25}, 2, {3, 1}, 4))
                  .ok);
  EXPECT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(2, r, sealed.roster,
                                             {1.5, 0.0, -0.25}, 1, {2, 2}, 4))
                  .ok);
  EXPECT_TRUE(rig.applied.empty());  // not unmaskable yet
  EXPECT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(3, r, sealed.roster,
                                             {-2.0, 1.0, 1.0}, 0, {0, 4}, 4))
                  .ok);

  ASSERT_EQ(rig.applied.size(), 1u);
  const net::CheckinMessage& rec = rig.applied.front();
  EXPECT_EQ(rec.device_id, secagg::kCohortDeviceIdBase | r);
  EXPECT_EQ(rec.ns, 12);
  EXPECT_EQ(rec.param_version, 4u);
  ASSERT_EQ(rec.g_hat.size(), 3u);
  // Per-element: sum / survivors, exact up to quantization.
  EXPECT_NEAR(rec.g_hat[0], 0.0, 1e-5);
  EXPECT_NEAR(rec.g_hat[1], 0.0, 1e-5);
  EXPECT_NEAR(rec.g_hat[2], 1.0 / 3.0, 1e-5);
  EXPECT_EQ(rec.ne_hat, 3);
  EXPECT_EQ(rec.ny_hat, (std::vector<std::int64_t>{5, 7}));

  EXPECT_EQ(rig.mgr->rounds_completed(), 1);
  EXPECT_EQ(rig.mgr->rounds_recovered(), 0);
  EXPECT_EQ(rig.mgr->rounds_aborted(), 0);
  EXPECT_EQ(rig.mgr->masked_checkins(), 3);
  EXPECT_EQ(rig.poll(1, r).status, net::kSecAggRoundComplete);
}

TEST(SecAggCohort, RejectsForeignDuplicateAndMalformedSubmissions) {
  ManagerRig rig(/*cohort=*/2);
  rig.assign(1);
  const auto sealed = rig.assign(2);
  const std::uint64_t r = sealed.round_id;

  // Not in the roster.
  auto msg = rig.masked(99, r, sealed.roster, {0, 0, 0}, 0, {0, 0}, 1);
  EXPECT_FALSE(rig.mgr->handle_masked(msg).ok);
  // Unknown round.
  msg = rig.masked(1, r + 100, sealed.roster, {0, 0, 0}, 0, {0, 0}, 1);
  EXPECT_FALSE(rig.mgr->handle_masked(msg).ok);
  // Wrong gradient dimension.
  msg = rig.masked(1, r, sealed.roster, {0, 0, 0}, 0, {0, 0}, 1);
  msg.masked_g.push_back(0);
  EXPECT_FALSE(rig.mgr->handle_masked(msg).ok);
  // Non-positive batch.
  msg = rig.masked(1, r, sealed.roster, {0, 0, 0}, 0, {0, 0}, 0);
  EXPECT_FALSE(rig.mgr->handle_masked(msg).ok);

  // A valid submission, then its duplicate.
  msg = rig.masked(1, r, sealed.roster, {1, 1, 1}, 1, {1, 0}, 2);
  EXPECT_TRUE(rig.mgr->handle_masked(msg).ok);
  EXPECT_FALSE(rig.mgr->handle_masked(msg).ok);
  EXPECT_TRUE(rig.applied.empty());
}

TEST(SecAggCohort, DropoutRecoveryViaSingleRevealer) {
  ManagerRig rig(/*cohort=*/4, /*min_survivors=*/2);
  rig.assign(1);
  rig.assign(2);
  rig.assign(3);
  const auto sealed = rig.assign(4);
  ASSERT_EQ(sealed.status, net::kSecAggAssignAssigned);
  const std::uint64_t r = sealed.round_id;

  // Devices 1-3 submit; device 4 dies mid-round.
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(1, r, sealed.roster,
                                             {1.0, 2.0, 3.0}, 1, {1, 1}, 2))
                  .ok);
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(2, r, sealed.roster,
                                             {0.5, -2.0, 0.0}, 0, {2, 0}, 2))
                  .ok);
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(3, r, sealed.roster,
                                             {-1.5, 0.0, -3.0}, 2, {0, 2}, 2))
                  .ok);
  EXPECT_EQ(rig.poll(1, r).status, net::kSecAggRoundCollecting);

  rig.clock += rig.cfg.round_timeout_ms + 1;
  const auto recovering = rig.poll(1, r);
  ASSERT_EQ(recovering.status, net::kSecAggRoundRecovering);
  EXPECT_EQ(recovering.dead, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(recovering.survivors, (std::vector<std::uint64_t>{1, 2, 3}));

  // Any single survivor can reveal every (survivor, dead) seed.
  net::SecAggRevealMessage reveal;
  reveal.device_id = 2;
  reveal.round_id = r;
  for (std::uint64_t s : recovering.survivors)
    for (std::uint64_t d : recovering.dead)
      reveal.seeds.push_back({s, d, secagg::pairwise_seed(fleet_key(), s, d, r)});
  EXPECT_EQ(rig.mgr->handle_reveal(reveal).status, net::kSecAggRoundComplete);

  ASSERT_EQ(rig.applied.size(), 1u);
  const net::CheckinMessage& rec = rig.applied.front();
  EXPECT_EQ(rec.ns, 6);
  EXPECT_NEAR(rec.g_hat[0], 0.0, 1e-5);
  EXPECT_NEAR(rec.g_hat[1], 0.0, 1e-5);
  EXPECT_NEAR(rec.g_hat[2], 0.0, 1e-5);
  EXPECT_EQ(rec.ne_hat, 3);
  EXPECT_EQ(rec.ny_hat, (std::vector<std::int64_t>{3, 3}));
  EXPECT_EQ(rig.mgr->rounds_recovered(), 1);
  EXPECT_EQ(rig.mgr->rounds_completed(), 1);
}

TEST(SecAggCohort, IrrelevantSeedsAreIgnoredDuringRecovery) {
  ManagerRig rig(/*cohort=*/3, /*min_survivors=*/2);
  rig.assign(1);
  rig.assign(2);
  const auto sealed = rig.assign(3);
  const std::uint64_t r = sealed.round_id;
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(1, r, sealed.roster,
                                             {1.0, 1.0, 1.0}, 0, {1, 1}, 2))
                  .ok);
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(2, r, sealed.roster,
                                             {1.0, 1.0, 1.0}, 0, {1, 1}, 2))
                  .ok);
  rig.clock += rig.cfg.round_timeout_ms + 1;
  ASSERT_EQ(rig.poll(1, r).status, net::kSecAggRoundRecovering);

  // A survivor-survivor pair and a non-roster pair must not complete
  // anything; a dead device cannot reveal at all (it never submitted).
  net::SecAggRevealMessage junk;
  junk.device_id = 1;
  junk.round_id = r;
  junk.seeds.push_back({1, 2, secagg::pairwise_seed(fleet_key(), 1, 2, r)});
  junk.seeds.push_back({8, 9, secagg::pairwise_seed(fleet_key(), 8, 9, r)});
  EXPECT_EQ(rig.mgr->handle_reveal(junk).status,
            net::kSecAggRoundRecovering);

  net::SecAggRevealMessage from_dead;
  from_dead.device_id = 3;
  from_dead.round_id = r;
  from_dead.seeds.push_back(
      {1, 3, secagg::pairwise_seed(fleet_key(), 1, 3, r)});
  from_dead.seeds.push_back(
      {2, 3, secagg::pairwise_seed(fleet_key(), 2, 3, r)});
  EXPECT_EQ(rig.mgr->handle_reveal(from_dead).status,
            net::kSecAggRoundRecovering);
  EXPECT_TRUE(rig.applied.empty());
}

TEST(SecAggCohort, AbortsBelowMinSurvivors) {
  ManagerRig rig(/*cohort=*/4, /*min_survivors=*/3);
  rig.assign(1);
  rig.assign(2);
  rig.assign(3);
  const auto sealed = rig.assign(4);
  const std::uint64_t r = sealed.round_id;
  // Only two submit — below the three-survivor floor.
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(1, r, sealed.roster,
                                             {1.0, 0.0, 0.0}, 0, {1, 0}, 1))
                  .ok);
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(2, r, sealed.roster,
                                             {0.0, 1.0, 0.0}, 0, {0, 1}, 1))
                  .ok);
  rig.clock += rig.cfg.round_timeout_ms + 1;
  EXPECT_EQ(rig.poll(1, r).status, net::kSecAggRoundAborted);
  EXPECT_TRUE(rig.applied.empty());
  EXPECT_EQ(rig.mgr->rounds_aborted(), 1);
  EXPECT_EQ(rig.mgr->rounds_completed(), 0);
}

TEST(SecAggCohort, RecoveryTimeoutAborts) {
  ManagerRig rig(/*cohort=*/3, /*min_survivors=*/2);
  rig.assign(1);
  rig.assign(2);
  const auto sealed = rig.assign(3);
  const std::uint64_t r = sealed.round_id;
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(1, r, sealed.roster,
                                             {1.0, 1.0, 1.0}, 0, {1, 1}, 2))
                  .ok);
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(2, r, sealed.roster,
                                             {1.0, 1.0, 1.0}, 0, {1, 1}, 2))
                  .ok);
  rig.clock += rig.cfg.round_timeout_ms + 1;
  ASSERT_EQ(rig.poll(1, r).status, net::kSecAggRoundRecovering);
  // Nobody reveals; the reveal deadline lapses too.
  rig.clock += rig.cfg.round_timeout_ms + 1;
  EXPECT_EQ(rig.poll(1, r).status, net::kSecAggRoundAborted);
  EXPECT_TRUE(rig.applied.empty());
  EXPECT_EQ(rig.mgr->rounds_aborted(), 1);
}

TEST(SecAggCohort, PartialCohortSealsAfterTimeout) {
  ManagerRig rig(/*cohort=*/8, /*min_survivors=*/2);
  EXPECT_EQ(rig.assign(1).status, net::kSecAggAssignPending);
  EXPECT_EQ(rig.assign(2).status, net::kSecAggAssignPending);
  EXPECT_EQ(rig.assign(3).status, net::kSecAggAssignPending);
  rig.clock += rig.cfg.round_timeout_ms;
  // The next poll seals the partial cohort of three waiting devices.
  const auto sealed = rig.assign(1);
  ASSERT_EQ(sealed.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(sealed.roster, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(rig.mgr->rounds_sealed(), 1);
}

TEST(SecAggCohort, LoneDeviceIsToldToFallBack) {
  ManagerRig rig(/*cohort=*/4, /*min_survivors=*/2);
  EXPECT_EQ(rig.assign(1).status, net::kSecAggAssignPending);
  rig.clock += rig.cfg.round_timeout_ms;
  EXPECT_EQ(rig.assign(1).status, net::kSecAggAssignFallback);
  EXPECT_EQ(rig.mgr->rounds_sealed(), 0);
}

TEST(SecAggCohort, PrunedRoundPollsReadAborted) {
  ManagerRig rig(/*cohort=*/2);
  EXPECT_EQ(rig.poll(1, /*round=*/999).status, net::kSecAggRoundAborted);
}

TEST(SecAggCohort, CohortsFormPerDeviceClass) {
  // Classes never share a cohort: a fast-class device waiting next to a
  // slow-class device must not be sealed into its round, or the
  // coordinator's per-class pacing attribution (and the round deadline
  // math) would mix populations.
  ManagerRig rig(/*cohort=*/2);
  EXPECT_EQ(rig.assign(1, /*class=*/0).status, net::kSecAggAssignPending);
  EXPECT_EQ(rig.assign(2, /*class=*/1).status, net::kSecAggAssignPending);
  // A second class-0 device seals the class-0 cohort; device 2 stays out.
  const auto sealed = rig.assign(3, /*class=*/0);
  ASSERT_EQ(sealed.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(sealed.roster, (std::vector<std::uint64_t>{1, 3}));
  // Device 2 is still waiting for a classmate, and gets one.
  EXPECT_EQ(rig.assign(2, /*class=*/1).status, net::kSecAggAssignPending);
  const auto sealed1 = rig.assign(4, /*class=*/1);
  ASSERT_EQ(sealed1.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(sealed1.roster, (std::vector<std::uint64_t>{2, 4}));
  EXPECT_NE(sealed1.round_id, sealed.round_id);
}

TEST(SecAggCohort, SyntheticCohortRecordInheritsRosterClass) {
  ManagerRig rig(/*cohort=*/2);
  rig.assign(1, /*class=*/3);
  const auto sealed = rig.assign(2, /*class=*/3);
  ASSERT_EQ(sealed.status, net::kSecAggAssignAssigned);
  const std::uint64_t r = sealed.round_id;
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(1, r, sealed.roster,
                                             {1.0, 0.0, 0.0}, 0, {1, 0}, 2))
                  .ok);
  ASSERT_TRUE(rig.mgr
                  ->handle_masked(rig.masked(2, r, sealed.roster,
                                             {0.0, 1.0, 0.0}, 0, {0, 1}, 2))
                  .ok);
  ASSERT_EQ(rig.applied.size(), 1u);
  // The one WAL'd checkin carries the roster's class, so the
  // coordinator's per-class commit accounting sees the cohort where its
  // devices actually live.
  EXPECT_EQ(rig.applied.front().device_class, 3);
}

TEST(SecAggCohort, ClassChangeMovesTheWaiterNotDuplicatesIt) {
  ManagerRig rig(/*cohort=*/2);
  EXPECT_EQ(rig.assign(1, /*class=*/0).status, net::kSecAggAssignPending);
  // Device 1 re-polls declaring class 1: it must leave the class-0 queue.
  EXPECT_EQ(rig.assign(1, /*class=*/1).status, net::kSecAggAssignPending);
  // A class-0 arrival now waits alone — device 1 is no longer there.
  EXPECT_EQ(rig.assign(2, /*class=*/0).status, net::kSecAggAssignPending);
  // And device 1 seals in class 1.
  const auto sealed = rig.assign(3, /*class=*/1);
  ASSERT_EQ(sealed.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(sealed.roster, (std::vector<std::uint64_t>{1, 3}));
}

TEST(SecAggCohort, PerClassPartialSealAfterTimeout) {
  ManagerRig rig(/*cohort=*/8, /*min_survivors=*/2);
  rig.assign(1, /*class=*/0);
  rig.assign(2, /*class=*/0);
  rig.assign(3, /*class=*/1);
  rig.assign(4, /*class=*/1);
  rig.clock += rig.cfg.round_timeout_ms;
  // Each class seals its own partial cohort — never a mixed roster.
  const auto sealed0 = rig.assign(1, /*class=*/0);
  ASSERT_EQ(sealed0.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(sealed0.roster, (std::vector<std::uint64_t>{1, 2}));
  const auto sealed1 = rig.assign(3, /*class=*/1);
  ASSERT_EQ(sealed1.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(sealed1.roster, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_NE(sealed0.round_id, sealed1.round_id);
}

TEST(SecAggCodec, AssignRequestClassZeroIsByteIdenticalToPreClassWire) {
  // The class byte is length-detected and the default class is NEVER
  // encoded: a class-0 request's bytes (and HMAC body) are identical to
  // the pre-class wire format, so old devices and new servers agree.
  net::SecAggAssignMessage req;
  req.request = true;
  req.device_id = 42;
  const net::Bytes base = req.serialize();

  net::SecAggAssignMessage classy = req;
  classy.device_class = 5;
  const net::Bytes tagged = classy.serialize();
  ASSERT_EQ(tagged.size(), base.size() + 1);

  const auto back = net::SecAggAssignMessage::deserialize(tagged);
  EXPECT_EQ(back.device_class, 5);
  EXPECT_EQ(net::SecAggAssignMessage::deserialize(base).device_class, 0);

  // An explicit class-0 byte (after the u8 direction + u64 device id)
  // is rejected — there is exactly one encoding of every message, or
  // the auth tag would be ambiguous.
  net::Bytes explicit_zero = base;
  explicit_zero.insert(explicit_zero.begin() + 9, 0);
  EXPECT_THROW(net::SecAggAssignMessage::deserialize(explicit_zero),
               net::CodecError);
}

// ----------------------------------------------- protocol-layer harness

namespace {

struct Harness {
  models::MulticlassLogisticRegression model{3, 4, 0.0};
  net::AuthRegistry registry{rng::Engine(50)};
  core::Server server;
  core::ProtocolServer protocol;

  Harness()
      : server(make_config(),
               std::make_unique<opt::SgdUpdater>(
                   std::make_unique<opt::ConstantSchedule>(0.5), 100.0),
               rng::Engine(51)),
        protocol(server, registry) {}

  static core::ServerConfig make_config() {
    core::ServerConfig c;
    c.param_dim = 12;
    c.num_classes = 3;
    return c;
  }

  core::DeviceClient::Exchange loopback() {
    return [this](const net::Bytes& req) -> std::optional<net::Bytes> {
      return protocol.handle(req);
    };
  }

  models::Sample sample(rng::Engine& eng) {
    linalg::Vector x(4);
    for (double& v : x) v = rng::normal(eng);
    linalg::l1_normalize(x);
    return models::Sample(std::move(x),
                          static_cast<double>(rng::uniform_index(eng, 3)));
  }
};

/// A Harness plus an attached CohortManager on a manual clock.
struct SecAggHarness : Harness {
  std::atomic<std::int64_t> clock{0};
  obs::MetricsRegistry metrics;
  secagg::CohortConfig cfg;
  std::unique_ptr<secagg::CohortManager> mgr;

  explicit SecAggHarness(std::size_t cohort, std::size_t min_survivors = 2) {
    cfg.cohort_size = cohort;
    cfg.min_survivors = min_survivors;
    cfg.round_timeout_ms = 200;
    cfg.param_dim = 12;
    cfg.num_classes = 3;
    cfg.metrics = &metrics;
    mgr = std::make_unique<secagg::CohortManager>(
        cfg, [this](const net::CheckinMessage& m) {
          return server.handle_checkin(m);
        });
    mgr->set_clock([this] { return clock.load(); });
    protocol.set_secagg(mgr.get());
  }

  core::SecAggDeviceClient::Options options() {
    core::SecAggDeviceClient::Options o;
    o.fleet_key = fleet_key();
    o.min_survivors = cfg.min_survivors;
    return o;
  }
};

net::Bytes signed_assign_frame(const net::DeviceCredentials& creds) {
  net::SecAggAssignMessage req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  return net::encode_frame(net::MessageType::kSecAggAssign, req.serialize());
}

}  // namespace

TEST(SecAggProtocol, DisabledServerNacksSecAggFrames) {
  Harness h;
  const auto creds = h.registry.enroll();
  const net::Frame f =
      net::decode_frame(h.protocol.handle(signed_assign_frame(creds)));
  ASSERT_EQ(f.type, net::MessageType::kAck);
  const auto ack = net::AckMessage::deserialize(f.payload);
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.reason, "secure aggregation disabled");
}

TEST(SecAggProtocol, UnauthenticatedSecAggFramesRejected) {
  SecAggHarness h(/*cohort=*/2);
  net::DeviceCredentials fake;
  fake.device_id = 4242;
  fake.key.assign(32, 0x13);
  const net::Frame f =
      net::decode_frame(h.protocol.handle(signed_assign_frame(fake)));
  ASSERT_EQ(f.type, net::MessageType::kAck);
  EXPECT_FALSE(net::AckMessage::deserialize(f.payload).ok);
  EXPECT_GT(h.protocol.auth_failures(), 0);
  EXPECT_EQ(h.mgr->rounds_sealed(), 0);
}

TEST(SecAggProtocol, AssignDispatchesToManager) {
  SecAggHarness h(/*cohort=*/2);
  const auto creds = h.registry.enroll();
  const net::Frame f =
      net::decode_frame(h.protocol.handle(signed_assign_frame(creds)));
  ASSERT_EQ(f.type, net::MessageType::kSecAggAssign);
  const auto resp = net::SecAggAssignMessage::deserialize(f.payload);
  EXPECT_FALSE(resp.request);
  EXPECT_EQ(resp.status, net::kSecAggAssignPending);
}

// Attaching a CohortManager must not change one byte of any classic
// frame's reply — the secagg-off (and secagg-on classic-path) wire
// format is identical to the pre-secagg protocol. Mirrors
// CoordEngine.SteeringDisabledRepliesAreByteIdenticalToProtocol.
TEST(SecAggProtocol, AttachedManagerClassicRepliesAreByteIdentical) {
  Harness plain;
  SecAggHarness secagg(/*cohort=*/2);

  // Enroll identically (same registry seed -> same secrets).
  const auto creds_a = plain.registry.enroll();
  const auto creds_b = secagg.registry.enroll();
  ASSERT_EQ(creds_a.key, creds_b.key);

  net::CheckinMessage m;
  m.device_id = creds_a.device_id;
  m.param_version = 0;
  m.g_hat.assign(12, 0.125);
  m.ns = 5;
  m.ne_hat = 1;
  m.ny_hat = {2, 2, 1};
  m.auth_tag = creds_a.sign(m.body());
  const net::Bytes checkin =
      net::encode_frame(net::MessageType::kCheckin, m.serialize());

  net::CheckoutRequest req;
  req.device_id = creds_a.device_id;
  req.auth_tag = creds_a.sign(req.body());
  const net::Bytes checkout =
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize());

  for (const net::Bytes* frame : {&checkout, &checkin, &checkout, &checkin}) {
    EXPECT_EQ(plain.protocol.handle(*frame), secagg.protocol.handle(*frame));
  }
  EXPECT_EQ(plain.server.version(), secagg.server.version());
  EXPECT_EQ(plain.server.parameters(), secagg.server.parameters());
}

// ------------------------------------------------ device-side fallback

// A device that never finds cohort peers is told to fall back; the
// client transmits the pre-signed classic checkin, the server applies
// it, and the accountant charges the extra release.
TEST(SecAggClient, NoCohortFallsBackToClassicCheckin) {
  SecAggHarness h(/*cohort=*/4, /*min_survivors=*/2);
  core::DeviceConfig dc;
  dc.minibatch_size = 2;
  dc.budget = privacy::PrivacyBudget::gradient_dominated(8.0);
  core::Device dev(dc, h.model, rng::Engine(1));
  dev.set_credentials(h.registry.enroll());

  auto opts = h.options();
  int fallback_events = 0;
  opts.on_fallback = [&] { ++fallback_events; };
  // Every poll's retry hint advances the manual clock, so the lone
  // device ages past the forming timeout deterministically.
  opts.sleep_ms = [&h](std::uint32_t ms) { h.clock += ms; };
  core::SecAggDeviceClient client(dev, h.loopback(), opts);

  rng::Engine eng(2);
  EXPECT_FALSE(client.offer_sample(h.sample(eng)).has_value());
  const auto result = client.offer_sample(h.sample(eng));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, secagg::RoundOutcome::kNoCohort);
  EXPECT_TRUE(result->fallback_sent);
  EXPECT_EQ(client.fallbacks_sent(), 1);
  EXPECT_EQ(client.cycles_completed(), 1);
  EXPECT_EQ(fallback_events, 1);
  // The classic checkin reached the model.
  EXPECT_EQ(h.server.version(), 1u);
  EXPECT_EQ(h.server.total_samples(), 2);
  // One cohort release plus one fallback release, over one batch.
  EXPECT_EQ(dev.accountant().checkins(), 2);
  EXPECT_EQ(dev.accountant().cohort_checkins(), 1);
  EXPECT_EQ(dev.accountant().fallback_checkins(), 1);
  EXPECT_EQ(dev.accountant().samples_released(), 2);
}

// Two concurrent cohort clients complete a full masked round end to end
// through the protocol layer, and the unmasked cohort record advances
// the model exactly once.
TEST(SecAggClient, TwoDeviceCohortRoundAppliesOnce) {
  SecAggHarness h(/*cohort=*/2, /*min_survivors=*/2);
  rng::Engine eng(3);

  core::DeviceConfig dc;
  dc.minibatch_size = 1;
  core::Device dev_a(dc, h.model, rng::Engine(10));
  core::Device dev_b(dc, h.model, rng::Engine(11));
  dev_a.set_credentials(h.registry.enroll());
  dev_b.set_credentials(h.registry.enroll());
  auto opts = h.options();
  opts.max_polls = 100000;
  opts.sleep_ms = [](std::uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  core::SecAggDeviceClient client_a(dev_a, h.loopback(), opts);
  core::SecAggDeviceClient client_b(dev_b, h.loopback(), opts);
  const models::Sample sa = h.sample(eng);
  const models::Sample sb = h.sample(eng);

  std::optional<core::SecAggDeviceClient::CycleResult> ra, rb;
  std::thread ta([&] { ra = client_a.offer_sample(sa); });
  std::thread tb([&] { rb = client_b.offer_sample(sb); });
  ta.join();
  tb.join();

  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->outcome, secagg::RoundOutcome::kApplied);
  EXPECT_EQ(rb->outcome, secagg::RoundOutcome::kApplied);
  EXPECT_EQ(h.mgr->rounds_completed(), 1);
  EXPECT_EQ(h.mgr->masked_checkins(), 2);
  // Exactly one synthetic cohort record applied.
  EXPECT_EQ(h.server.version(), 1u);
  EXPECT_EQ(h.server.total_samples(), 2);
  EXPECT_EQ(client_a.fallbacks_sent(), 0);
  EXPECT_EQ(client_b.fallbacks_sent(), 0);
}

// --------------------------------------------------------- accountant

TEST(SecAggAccountant, HonestServerEpsilonIdenticalAcrossModes) {
  const auto budget = privacy::PrivacyBudget::gradient_dominated(4.0);
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  core::DeviceConfig dc;
  dc.minibatch_size = 2;
  dc.budget = budget;

  core::Device classic(dc, model, rng::Engine(1));
  core::Device cohort(dc, model, rng::Engine(1));
  rng::Engine eng(2);
  for (int i = 0; i < 2; ++i) {
    linalg::Vector x(4, 0.25);
    classic.on_sample(models::Sample(x, 0.0));
    cohort.on_sample(models::Sample(x, 0.0));
  }
  classic.begin_checkout();
  cohort.begin_checkout();
  (void)classic.compute_checkin(linalg::Vector(12, 0.0), 0);
  (void)cohort.compute_checkin_masked(linalg::Vector(12, 0.0), 0,
                                      /*min_survivors=*/8);

  // The lifetime per-sample budget is mode-independent...
  EXPECT_DOUBLE_EQ(classic.accountant().per_sample_epsilon(),
                   cohort.accountant().per_sample_epsilon());
  EXPECT_DOUBLE_EQ(classic.accountant().per_sample_epsilon(),
                   budget.per_sample_epsilon(3));
  // ...and classic mode's if-unmasked bound degenerates to the same.
  EXPECT_DOUBLE_EQ(classic.accountant().per_sample_epsilon_if_unmasked(),
                   classic.accountant().per_sample_epsilon());
  // A cohort release unmasks to sqrt(min_survivors) x the base epsilon.
  EXPECT_DOUBLE_EQ(cohort.accountant().per_sample_epsilon_if_unmasked(),
                   cohort.accountant().per_sample_epsilon() * std::sqrt(8.0));
}

TEST(SecAggAccountant, FallbackChargesTheExtraRelease) {
  const auto budget = privacy::PrivacyBudget::gradient_dominated(4.0);
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  core::DeviceConfig dc;
  dc.minibatch_size = 1;
  dc.budget = budget;
  core::Device dev(dc, model, rng::Engine(1));
  dev.on_sample(models::Sample(linalg::Vector(4, 0.25), 1.0));
  dev.begin_checkout();
  const auto masked = dev.compute_checkin_masked(linalg::Vector(12, 0.0), 0,
                                                 /*min_survivors=*/4);
  const double base = dev.accountant().per_sample_epsilon();
  dev.charge_fallback(masked.batch_size);
  // Honest-server bound unchanged; the if-unmasked bound adds the full
  // classic release on top of the sqrt(4)-inflated masked one.
  EXPECT_DOUBLE_EQ(dev.accountant().per_sample_epsilon(), base);
  EXPECT_DOUBLE_EQ(dev.accountant().per_sample_epsilon_if_unmasked(),
                   base * (std::sqrt(4.0) + 1.0));
  EXPECT_EQ(dev.accountant().checkins(), 2);
  EXPECT_EQ(dev.accountant().fallback_checkins(), 1);
  // Each sample still released exactly once into the model pipeline.
  EXPECT_EQ(dev.accountant().samples_released(), 1);
}

TEST(SecAggAccountant, CohortScaledEpsilonMath) {
  EXPECT_DOUBLE_EQ(privacy::cohort_scaled_epsilon(2.0, 1), 2.0);
  EXPECT_DOUBLE_EQ(privacy::cohort_scaled_epsilon(2.0, 4), 4.0);
  EXPECT_DOUBLE_EQ(privacy::cohort_scaled_epsilon(2.0, 16), 8.0);
  EXPECT_TRUE(std::isinf(
      privacy::cohort_scaled_epsilon(privacy::kNoPrivacy, 8)));
}

// Cohort-scaled noise is the whole point: at equal per-sample epsilon,
// the variance of a cohort-of-m sum of sqrt(m)-scaled Laplace draws
// equals the variance of ONE full-noise draw — an m-fold reduction per
// contribution (Eq. 10's noise floor shrinks ~x m).
TEST(SecAggAccountant, CohortNoiseVarianceMatchesSingleDeviceDraw) {
  const double eps = 1.0, sensitivity = 1.0;
  const std::size_t m = 16;
  const int trials = 20000;
  rng::Engine eng(42);
  double sum_sq_cohort = 0.0, sum_sq_classic = 0.0;
  for (int t = 0; t < trials; ++t) {
    double cohort_sum = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      cohort_sum += rng::laplace(
          eng, sensitivity / privacy::cohort_scaled_epsilon(eps, m));
    sum_sq_cohort += cohort_sum * cohort_sum;
    const double classic = rng::laplace(eng, sensitivity / eps);
    sum_sq_classic += classic * classic;
  }
  const double var_cohort = sum_sq_cohort / trials;
  const double var_classic = sum_sq_classic / trials;
  // Equal within Monte-Carlo tolerance (ratio ~1, not ~m).
  EXPECT_NEAR(var_cohort / var_classic, 1.0, 0.15);
}

// ------------------------------------------- dropout smoke (ctest)

// A cohort of eight loses two devices mid-round (after assignment,
// before their masked submission); the six survivors recover the sum
// via seed reveals and the round applies. Registered as the
// `secagg_dropout` ctest.
TEST(SecAggDropout, CohortOfEightRecoversFromTwoMidRoundDeaths) {
  SecAggHarness h(/*cohort=*/8, /*min_survivors=*/2);
  constexpr int kDevices = 8, kDead = 2;

  std::vector<std::unique_ptr<core::Device>> devices;
  for (int i = 0; i < kDevices; ++i) {
    core::DeviceConfig dc;
    dc.minibatch_size = 1;
    devices.push_back(
        std::make_unique<core::Device>(dc, h.model, rng::Engine(100 + i)));
    devices.back()->set_credentials(h.registry.enroll());
  }

  // A dying device's exchange delivers checkout and assign frames but
  // drops its masked submission on the floor — death mid-round.
  std::atomic<int> deaths{0};
  auto dying_exchange = [&]() -> core::DeviceClient::Exchange {
    return [this_h = &h,
            &deaths](const net::Bytes& req) -> std::optional<net::Bytes> {
      const net::Frame f = net::decode_frame(req);
      if (f.type == net::MessageType::kSecAggMasked) {
        ++deaths;
        return std::nullopt;
      }
      return this_h->protocol.handle(req);
    };
  };

  auto opts = h.options();
  opts.max_polls = 1000000;
  opts.sleep_ms = [](std::uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  std::vector<std::unique_ptr<core::SecAggDeviceClient>> clients;
  for (int i = 0; i < kDevices; ++i) {
    clients.push_back(std::make_unique<core::SecAggDeviceClient>(
        *devices[i], i < kDead ? dying_exchange() : h.loopback(), opts));
  }

  rng::Engine eng(7);
  std::vector<models::Sample> samples;
  for (int i = 0; i < kDevices; ++i) samples.push_back(h.sample(eng));

  // Advance the manual clock exactly once, after all six survivors have
  // submitted and both dying devices have lost their blobs: the round
  // deterministically moves to recovery, and the recovery deadline then
  // never expires under the survivors.
  std::atomic<bool> stop{false};
  std::thread clock_driver([&] {
    while (!stop.load()) {
      // Also wait for both deaths: a dying device still polling for its
      // assignment when the round leaves collection is re-queued into a
      // fresh cohort that never fills while the manual clock stands still.
      if (h.mgr->masked_checkins() >= kDevices - kDead &&
          deaths.load() >= kDead) {
        h.clock += h.cfg.round_timeout_ms + 1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::optional<core::SecAggDeviceClient::CycleResult>> results(
      kDevices);
  std::vector<std::thread> threads;
  for (int i = 0; i < kDevices; ++i)
    threads.emplace_back(
        [&, i] { results[i] = clients[i]->offer_sample(samples[i]); });
  for (auto& t : threads) t.join();
  stop = true;
  clock_driver.join();

  // The two dead devices failed their cycle and never fell back (their
  // blob could still be in a live round).
  for (int i = 0; i < kDead; ++i) {
    EXPECT_FALSE(results[i].has_value() &&
                 results[i]->outcome == secagg::RoundOutcome::kApplied);
    EXPECT_EQ(clients[i]->fallbacks_sent(), 0);
  }
  // All six survivors saw the round apply after recovery.
  int recovered_clients = 0;
  for (int i = kDead; i < kDevices; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "survivor " << i;
    EXPECT_EQ(results[i]->outcome, secagg::RoundOutcome::kApplied);
    if (results[i]->recovered) ++recovered_clients;
  }
  EXPECT_GE(recovered_clients, 1);
  EXPECT_EQ(h.mgr->rounds_completed(), 1);
  EXPECT_EQ(h.mgr->rounds_recovered(), 1);
  EXPECT_EQ(h.mgr->rounds_aborted(), 0);
  // Exactly one cohort record, carrying the six survivors' samples.
  EXPECT_EQ(h.server.version(), 1u);
  EXPECT_EQ(h.server.total_samples(), kDevices - kDead);
}

// Starved below min_survivors, the round aborts and every survivor
// falls back to a classic LDP checkin — the batches are never lost and
// the fallback counter moves.
TEST(SecAggDropout, AbortBelowMinSurvivorsFallsBackToClassic) {
  SecAggHarness h(/*cohort=*/4, /*min_survivors=*/3);
  constexpr int kDevices = 4, kDead = 2;

  std::vector<std::unique_ptr<core::Device>> devices;
  for (int i = 0; i < kDevices; ++i) {
    core::DeviceConfig dc;
    dc.minibatch_size = 1;
    dc.budget = privacy::PrivacyBudget::gradient_dominated(8.0);
    devices.push_back(
        std::make_unique<core::Device>(dc, h.model, rng::Engine(200 + i)));
    devices.back()->set_credentials(h.registry.enroll());
  }

  std::atomic<int> deaths{0};
  auto dying_exchange = [&]() -> core::DeviceClient::Exchange {
    return [this_h = &h,
            &deaths](const net::Bytes& req) -> std::optional<net::Bytes> {
      const net::Frame f = net::decode_frame(req);
      if (f.type == net::MessageType::kSecAggMasked) {
        ++deaths;
        return std::nullopt;
      }
      return this_h->protocol.handle(req);
    };
  };

  std::atomic<int> fallback_events{0};
  auto opts = h.options();
  opts.max_polls = 1000000;
  opts.sleep_ms = [](std::uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  opts.on_fallback = [&] { ++fallback_events; };

  std::vector<std::unique_ptr<core::SecAggDeviceClient>> clients;
  for (int i = 0; i < kDevices; ++i) {
    clients.push_back(std::make_unique<core::SecAggDeviceClient>(
        *devices[i], i < kDead ? dying_exchange() : h.loopback(), opts));
  }

  rng::Engine eng(8);
  std::vector<models::Sample> samples;
  for (int i = 0; i < kDevices; ++i) samples.push_back(h.sample(eng));

  std::atomic<bool> stop{false};
  std::thread clock_driver([&] {
    while (!stop.load()) {
      // Also wait for both deaths: a dying device still polling for its
      // assignment when the round leaves collection is re-queued into a
      // fresh cohort that never fills while the manual clock stands still.
      if (h.mgr->masked_checkins() >= kDevices - kDead &&
          deaths.load() >= kDead) {
        h.clock += h.cfg.round_timeout_ms + 1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::optional<core::SecAggDeviceClient::CycleResult>> results(
      kDevices);
  std::vector<std::thread> threads;
  for (int i = 0; i < kDevices; ++i)
    threads.emplace_back(
        [&, i] { results[i] = clients[i]->offer_sample(samples[i]); });
  for (auto& t : threads) t.join();
  stop = true;
  clock_driver.join();

  EXPECT_EQ(h.mgr->rounds_aborted(), 1);
  EXPECT_EQ(h.mgr->rounds_completed(), 0);
  // Both survivors re-released classically; the model advanced by two
  // ordinary checkins, not a cohort record.
  for (int i = kDead; i < kDevices; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "survivor " << i;
    EXPECT_EQ(results[i]->outcome, secagg::RoundOutcome::kAborted);
    EXPECT_TRUE(results[i]->fallback_sent);
    EXPECT_EQ(clients[i]->fallbacks_sent(), 1);
    EXPECT_EQ(devices[i]->accountant().fallback_checkins(), 1);
  }
  EXPECT_EQ(fallback_events, kDevices - kDead);
  EXPECT_EQ(h.server.version(), 2u);
  EXPECT_EQ(h.server.total_samples(), 2);
}
