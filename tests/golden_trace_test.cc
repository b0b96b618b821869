// Golden-trace regression: a small dumbbell scenario is run once per queue
// discipline, the delivered-packet event stream is folded into an FNV-1a
// digest, and the digests are compared against checked-in constants. Any
// unintended drift in the engine — scheduler ordering, link timing, AQM
// decision sequences, PRNG streams — changes a digest and fails loudly here
// long before it would show up as a subtly shifted figure.
//
// The scenarios, the fold, and the checked-in constants live in
// golden_digests.h, shared with cm_test (which re-runs the same worlds with
// the shared congestion manager on). Update protocol is documented there.
#include <gtest/gtest.h>

#include <string>

#include "golden_digests.h"
#include "obs/trace.h"

namespace mcc::sim {
namespace {

using mcc::testing::golden;
using mcc::testing::kAdaptivePulseGolden;
using mcc::testing::kPulseAttackGolden;
using mcc::testing::kReplicatedGolden;
using mcc::testing::kSenderFarmGolden;
using mcc::testing::run_adaptive_pulse_digest;
using mcc::testing::run_digest;
using mcc::testing::run_pulse_attack_digest;
using mcc::testing::run_replicated_digest;
using mcc::testing::run_sender_farm_digest;

class golden_trace : public ::testing::TestWithParam<qdisc> {};

TEST_P(golden_trace, delivered_packet_stream_matches_checked_in_digest) {
  const qdisc d = GetParam();
  const std::string digest = run_digest(d);
  EXPECT_EQ(digest, golden(d))
      << "engine behaviour drifted under " << qdisc_name(d)
      << " (if intentional, update golden() with the digest above)";
}

TEST_P(golden_trace, digest_is_reproducible_within_a_process) {
  const qdisc d = GetParam();
  EXPECT_EQ(run_digest(d), run_digest(d));
}

INSTANTIATE_TEST_SUITE_P(all_qdiscs, golden_trace,
                         ::testing::Values(qdisc::droptail,
                                           qdisc::ecn_threshold, qdisc::red,
                                           qdisc::codel),
                         [](const auto& info) {
                           return std::string(qdisc_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Adversary golden traces: the pulse_inflate and adaptive_pulse attack
// timelines on a FLID-DS dumbbell, pinned end to end (scenario details in
// golden_digests.h).
// ---------------------------------------------------------------------------

TEST(golden_trace_adversary, pulse_inflate_timeline_matches_checked_in_digest) {
  EXPECT_EQ(run_pulse_attack_digest(), kPulseAttackGolden)
      << "adversary attack timeline drifted (if intentional, update the "
         "digest with the value above)";
}

TEST(golden_trace_adversary, pulse_digest_is_reproducible_within_a_process) {
  EXPECT_EQ(run_pulse_attack_digest(), run_pulse_attack_digest());
}

TEST(golden_trace_adversary, adaptive_pulse_timeline_matches_checked_in_digest) {
  EXPECT_EQ(run_adaptive_pulse_digest(), kAdaptivePulseGolden)
      << "adaptive-attacker timeline drifted (if intentional, update the "
         "digest with the value above)";
}

TEST(golden_trace_adversary, adaptive_digest_is_reproducible_within_a_process) {
  EXPECT_EQ(run_adaptive_pulse_digest(), run_adaptive_pulse_digest());
}

// ---------------------------------------------------------------------------
// Sender-side golden worlds: the slot pacing of many FLID-DS senders and
// their SIGMA control emitters (8-session cm farm), and the replicated
// sender. Each digest folds the full metrics snapshot minus the scheduler's
// queue gauges, plus the analysis outputs (scenarios in golden_digests.h).
// ---------------------------------------------------------------------------

TEST(golden_trace_senders, farm_world_matches_checked_in_digest) {
  EXPECT_EQ(run_sender_farm_digest(), kSenderFarmGolden)
      << "multi-session FLID-DS farm drifted (if intentional, update the "
         "digest with the value above)";
}

TEST(golden_trace_senders, replicated_world_matches_checked_in_digest) {
  EXPECT_EQ(run_replicated_digest(), kReplicatedGolden)
      << "replicated-sender world drifted (if intentional, update the "
         "digest with the value above)";
}

// ---------------------------------------------------------------------------
// Tracing must be a pure observer: with an obs::trace_scope installed, every
// checked-in digest stays bit-identical (the hooks draw no PRNG values and
// perturb no event), while the buffer proves the hooks actually fired.
// ---------------------------------------------------------------------------

TEST_P(golden_trace, digest_is_bit_identical_with_tracing_enabled) {
  const qdisc d = GetParam();
  obs::trace_buffer tb;
  std::string digest;
  {
    obs::trace_scope scope(&tb);
    digest = run_digest(d);
  }
  EXPECT_EQ(digest, golden(d))
      << "enabling the event trace perturbed the engine under "
      << qdisc_name(d);
  EXPECT_FALSE(tb.empty()) << "trace hooks recorded nothing";
}

TEST(golden_trace_adversary, pulse_digest_is_bit_identical_with_tracing) {
  obs::trace_buffer tb;
  std::string digest;
  {
    obs::trace_scope scope(&tb);
    digest = run_pulse_attack_digest();
  }
  EXPECT_EQ(digest, kPulseAttackGolden)
      << "enabling the event trace perturbed the attack timeline";
  EXPECT_FALSE(tb.empty());
}

TEST(golden_trace_adversary, adaptive_digest_is_bit_identical_with_tracing) {
  obs::trace_buffer tb;
  std::string digest;
  {
    obs::trace_scope scope(&tb);
    digest = run_adaptive_pulse_digest();
  }
  EXPECT_EQ(digest, kAdaptivePulseGolden)
      << "enabling the event trace perturbed the adaptive-attack timeline";
  EXPECT_FALSE(tb.empty());
}

}  // namespace
}  // namespace mcc::sim
