// Unit tests of the fault-tolerance building blocks (ISSUE-7):
//   - rdma::FaultInjector: deterministic seeded schedules, rule windows,
//     firing budgets, link matching.
//   - rdma::Channel under injected faults: drop, duplicate, delay, corrupt.
//   - net::ReliableSender / ReliableReceiver: sequencing, cumulative ACK,
//     NACK-triggered go-back-N retransmission, head-only resends on
//     timeout, backoff, epoch resets, the RTT-adaptive retransmit timeout
//     (Karn's rule), and the receiver's duplicate/stale drop before
//     payload verification.
//   - bat decode fuzz: every single-byte flip and every truncation of a
//     serialized BAT frame must surface Status::Corruption — never crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/column.h"
#include "bat/serialize.h"
#include "net/reliable.h"
#include "rdma/channel.h"
#include "rdma/fault.h"

namespace dcy {
namespace {

using rdma::FaultDecision;
using rdma::FaultInjector;
using rdma::FaultLink;

// ---------------------------------------------------------------------------
// FaultInjector: determinism and rule matching.
// ---------------------------------------------------------------------------

std::vector<FaultDecision> Draw(FaultInjector* inj, uint32_t src, uint32_t dst,
                                uint32_t channel, int n) {
  std::vector<FaultDecision> out;
  for (int i = 0; i < n; ++i) out.push_back(inj->Decide(src, dst, channel));
  return out;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector a(42), b(42);
  for (FaultInjector* inj : {&a, &b}) {
    inj->AddRule(FaultInjector::Drop({0, 1, rdma::kFaultChannelData}, 0.3));
    inj->AddRule(FaultInjector::Corrupt({0, 1, rdma::kFaultChannelData}, 0.2));
  }
  const auto da = Draw(&a, 0, 1, rdma::kFaultChannelData, 200);
  const auto db = Draw(&b, 0, 1, rdma::kFaultChannelData, 200);
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(da[i].drop, db[i].drop);
    EXPECT_EQ(da[i].corrupt, db[i].corrupt);
    EXPECT_EQ(da[i].corrupt_seed, db[i].corrupt_seed);
    if (!da[i].clean()) ++fired;
  }
  // A 30% + 20% schedule over 200 frames fires essentially always.
  EXPECT_GT(fired, 20);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(1), b(2);
  a.AddRule(FaultInjector::Drop({0, 1, 0}, 0.5));
  b.AddRule(FaultInjector::Drop({0, 1, 0}, 0.5));
  const auto da = Draw(&a, 0, 1, 0, 256);
  const auto db = Draw(&b, 0, 1, 0, 256);
  int differs = 0;
  for (int i = 0; i < 256; ++i) differs += da[i].drop != db[i].drop;
  EXPECT_GT(differs, 0);
}

TEST(FaultInjectorTest, LinksHaveIndependentStreams) {
  // The same rule on two links must not fire in lockstep: each link draws
  // from its own SplitMix64(seed ^ key) stream.
  FaultInjector inj(7);
  inj.AddRule(FaultInjector::Drop({rdma::kAnyEndpoint, rdma::kAnyEndpoint, 0}, 0.5));
  const auto a = Draw(&inj, 0, 1, 0, 256);
  const auto b = Draw(&inj, 1, 2, 0, 256);
  int differs = 0;
  for (int i = 0; i < 256; ++i) differs += a[i].drop != b[i].drop;
  EXPECT_GT(differs, 0);
}

TEST(FaultInjectorTest, RuleMatchesOnlyItsLink) {
  FaultInjector inj(3);
  inj.AddRule(FaultInjector::Drop({0, 1, rdma::kFaultChannelData}, 1.0));
  EXPECT_TRUE(inj.Decide(0, 1, rdma::kFaultChannelData).drop);
  EXPECT_FALSE(inj.Decide(1, 0, rdma::kFaultChannelData).drop);   // reverse direction
  EXPECT_FALSE(inj.Decide(0, 1, rdma::kFaultChannelCtrl).drop);   // other channel
  EXPECT_FALSE(inj.Decide(0, 2, rdma::kFaultChannelData).drop);   // other dst
}

TEST(FaultInjectorTest, PartitionWindowIsHalfOpen) {
  FaultInjector inj(5);
  inj.AddRule(FaultInjector::Partition({0, 1, 0}, 2, 5));
  std::vector<bool> dropped;
  for (int i = 0; i < 8; ++i) dropped.push_back(inj.Decide(0, 1, 0).drop);
  EXPECT_EQ(dropped, (std::vector<bool>{false, false, true, true, true, false, false,
                                        false}));
  EXPECT_EQ(inj.FramesSeen(0, 1, 0), 8u);
}

TEST(FaultInjectorTest, MaxCountBudgetsTheRule) {
  FaultInjector inj(5);
  auto rule = FaultInjector::Drop({0, 1, 0}, 1.0);
  rule.max_count = 3;
  inj.AddRule(rule);
  int fired = 0;
  for (int i = 0; i < 50; ++i) fired += inj.Decide(0, 1, 0).drop;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.counters().dropped.load(), 3u);
}

TEST(FaultInjectorTest, DropDominatesStackedRules) {
  FaultInjector inj(9);
  inj.AddRule(FaultInjector::Drop({0, 1, 0}, 1.0));
  inj.AddRule(FaultInjector::Duplicate({0, 1, 0}, 1.0));
  const FaultDecision d = inj.Decide(0, 1, 0);
  EXPECT_TRUE(d.drop);
  EXPECT_TRUE(d.duplicate);  // recorded, but the channel drops first
}

TEST(FaultInjectorTest, ClearRulesKeepsStreamPosition) {
  FaultInjector inj(11);
  inj.AddRule(FaultInjector::Drop({0, 1, 0}, 1.0));
  (void)inj.Decide(0, 1, 0);
  inj.ClearRules();
  EXPECT_TRUE(inj.Decide(0, 1, 0).clean());
  EXPECT_EQ(inj.FramesSeen(0, 1, 0), 2u);
}

// ---------------------------------------------------------------------------
// Channel integration: the injector's verdicts change delivery.
// ---------------------------------------------------------------------------

rdma::Channel::Options SmallChannel() {
  rdma::Channel::Options o;
  o.capacity_bytes = 1 << 20;
  return o;
}

TEST(ChannelFaultTest, DroppedFrameVanishesButSendSucceeds) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Drop({0, 1, 0}, 1.0));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, /*dst=*/1, /*channel_class=*/0);
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer("payload"), 0));
  EXPECT_FALSE(ch.TryReceive().has_value());
  EXPECT_EQ(inj.counters().dropped.load(), 1u);
}

TEST(ChannelFaultTest, DuplicateDeliversTwice) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Duplicate({0, 1, 0}, 1.0));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, 1, 0);
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer("payload"), 0));
  auto first = ch.TryReceive();
  auto second = ch.TryReceive();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first->payload, *second->payload);
  EXPECT_FALSE(ch.TryReceive().has_value());
}

TEST(ChannelFaultTest, DelayedFrameArrivesAfterItsDue) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Delay({0, 1, 0}, 1.0, FromMillis(30)));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, 1, 0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer("late"), 0));
  EXPECT_FALSE(ch.TryReceive().has_value());  // still held back
  auto msg = ch.Receive();                    // blocks until the due time
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(*msg->payload, "late");
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 25);
}

TEST(ChannelFaultTest, CorruptFlipsExactlyOnePayloadBit) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Corrupt({0, 1, 0}, 1.0));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, 1, 0);
  const std::string original(256, 'x');
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer(original), 0));
  auto msg = ch.TryReceive();
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->payload->size(), original.size());
  int bit_diffs = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>((*msg->payload)[i] ^ original[i]);
    while (diff != 0) {
      bit_diffs += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bit_diffs, 1);
  // The header stays intact when a payload is present.
  EXPECT_EQ(msg->meta.view(), "hdr");
}

TEST(ChannelFaultTest, CorruptHitsMetaWhenPayloadEmpty) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Corrupt({0, 1, 0}, 1.0));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, 1, 0);
  const std::string original = "control-msg-bytes";
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob(original), nullptr, 0));
  auto msg = ch.TryReceive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_NE(msg->meta.view(), original);
  EXPECT_EQ(msg->meta.size(), original.size());
}

TEST(ChannelFaultTest, SenderWithoutInjectorIsUnaffected) {
  rdma::Channel ch(SmallChannel());
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer("clean"), 0));
  auto msg = ch.TryReceive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(*msg->payload, "clean");
}

// ---------------------------------------------------------------------------
// ReliableSender / ReliableReceiver.
// ---------------------------------------------------------------------------

net::ReliableOptions FastLink() {
  net::ReliableOptions o;
  o.initial_backoff = FromMillis(1);
  o.max_backoff = FromMillis(4);
  o.jitter = 0.0;
  o.max_attempts = 3;
  o.max_unacked = 8;
  return o;
}

TEST(ReliableSenderTest, HeadersSequenceWithinAnEpoch) {
  net::ReliableSender s;
  s.Init(2, net::kChData, FastLink(), 99);
  const auto h0 = s.NextHeader(0xAB);
  const auto h1 = s.NextHeader(0xCD);
  EXPECT_EQ(h0.sender, 2u);
  EXPECT_EQ(h0.seq, 0u);
  EXPECT_EQ(h1.seq, 1u);
  EXPECT_EQ(h0.epoch, h1.epoch);
  EXPECT_EQ(h0.magic, net::kFrameMagic);
}

TEST(ReliableSenderTest, CumulativeAckShrinksTheWindow) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);
  for (int i = 0; i < 4; ++i) {
    const auto h = s.NextHeader(0);
    s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, /*now=*/0);
  }
  EXPECT_EQ(s.window_size(), 4u);
  s.OnAck(s.epoch(), 2, 0);
  EXPECT_EQ(s.window_size(), 1u);
  s.OnAck(s.epoch(), 3, 0);
  EXPECT_EQ(s.window_size(), 0u);
}

TEST(ReliableSenderTest, StaleEpochAckIsIgnored) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);
  const auto h = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  s.OnAck(s.epoch() + 1, 0, 0);
  EXPECT_EQ(s.window_size(), 1u);
}

TEST(ReliableSenderTest, NackRetransmitsFromTheExpectedSeq) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);
  for (int i = 0; i < 3; ++i) {
    const auto h = s.NextHeader(0);
    s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  }
  // Peer expected seq 1: seq 0 implicitly ACKed, 1..2 due immediately.
  s.OnNack(s.epoch(), 1, /*now=*/100);
  ASSERT_EQ(s.CollectRetransmits(100), 2u);
  EXPECT_EQ(s.window()[0].seq, 1u);
  EXPECT_EQ(s.window()[1].seq, 2u);
  EXPECT_EQ(s.metrics().retransmits, 2u);
}

/// Tracks `n` payload-less frames sent at time 0.
void SendFrames(net::ReliableSender* s, int n) {
  for (int i = 0; i < n; ++i) {
    const auto h = s->NextHeader(0);
    s->Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  }
}

TEST(ReliableSenderTest, TimeoutResendsOnlyTheWindowHead) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);
  SendFrames(&s, 4);
  // No NACK arrived: nothing says seqs 1..3 were lost, so only seq 0 goes.
  ASSERT_EQ(s.CollectRetransmits(FromMillis(2)), 1u);
  EXPECT_EQ(s.window()[0].seq, 0u);
  EXPECT_TRUE(s.window()[0].retransmitted);
  EXPECT_FALSE(s.window()[1].retransmitted);
  EXPECT_EQ(s.metrics().retransmits, 1u);
  EXPECT_EQ(s.window_size(), 4u);
  // The next timeout again re-sends the head alone.
  EXPECT_EQ(s.CollectRetransmits(FromMillis(10)), 1u);
  EXPECT_EQ(s.metrics().retransmits, 2u);
}

TEST(ReliableSenderTest, NackResendsTheWindowAndALaterTimeoutOnlyTheHead) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);
  SendFrames(&s, 5);
  // The peer expected seq 2: it dropped everything from there on.
  s.OnNack(s.epoch(), 2, /*now=*/FromMicros(500));
  ASSERT_EQ(s.CollectRetransmits(FromMicros(500)), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(s.window()[i].seq, 2u + i);
    EXPECT_TRUE(s.window()[i].retransmitted);
  }
  EXPECT_EQ(s.metrics().retransmits, 3u);
  // The NACK is spent: a timeout with no new NACK re-sends the head only.
  EXPECT_EQ(s.CollectRetransmits(FromMillis(10)), 1u);
  EXPECT_EQ(s.window()[0].seq, 2u);
  EXPECT_EQ(s.metrics().retransmits, 4u);
}

TEST(ReliableSenderTest, HeadOnlyTimeoutsStillResetTheLinkAtMaxAttempts) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);  // max_attempts = 3
  SendFrames(&s, 3);
  const uint32_t epoch0 = s.epoch();
  SimTime now = 0;
  std::vector<size_t> resent;
  while (s.epoch() == epoch0 && resent.size() < 10) {
    now += FromMillis(50);
    resent.push_back(s.CollectRetransmits(now));
  }
  // Two head-only attempts, then the third timeout abandons the window.
  EXPECT_EQ(resent, (std::vector<size_t>{1, 1, 0}));
  EXPECT_EQ(s.epoch(), epoch0 + 1);
  EXPECT_EQ(s.window_size(), 0u);
  EXPECT_EQ(s.metrics().retransmits, 2u);
  EXPECT_EQ(s.metrics().frames_abandoned, 3u);
  EXPECT_EQ(s.metrics().link_resets, 1u);
}

TEST(ReliableSenderTest, RetransmitWaitsOutTheBackoff) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);
  const auto h = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, /*now=*/0);
  // Unacked but the (1ms) timer has not expired yet.
  EXPECT_EQ(s.CollectRetransmits(FromMicros(100)), 0u);
  EXPECT_NE(s.CollectRetransmits(FromMillis(2)), 0u);
}

TEST(ReliableSenderTest, ExhaustedAttemptsResetTheLink) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);  // max_attempts = 3
  const auto h = s.NextHeader(0);
  const uint32_t epoch0 = s.epoch();
  s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  SimTime now = 0;
  int rounds = 0;
  while (s.epoch() == epoch0 && rounds < 10) {
    now += FromMillis(50);
    (void)s.CollectRetransmits(now);
    ++rounds;
  }
  EXPECT_EQ(s.epoch(), epoch0 + 1);
  EXPECT_EQ(s.window_size(), 0u);
  EXPECT_EQ(s.next_seq(), 0u);
  EXPECT_EQ(s.metrics().frames_abandoned, 1u);
  EXPECT_EQ(s.metrics().link_resets, 1u);
}

TEST(ReliableSenderTest, WindowOverflowResetsInsteadOfGrowingForever) {
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 1);  // max_unacked = 8
  for (int i = 0; i < 9; ++i) {
    const auto h = s.NextHeader(0);
    s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  }
  EXPECT_EQ(s.metrics().link_resets, 1u);
  EXPECT_LE(s.window_size(), 8u);
}

net::ReliableOptions AdaptiveLink() {
  net::ReliableOptions o;
  o.initial_backoff = FromMillis(1);
  o.max_backoff = FromMillis(100);
  o.jitter = 0.0;
  return o;
}

/// Sends one frame at `sent` and acknowledges it at `acked`: one RTT sample.
void SendAndAck(net::ReliableSender* s, SimTime sent, SimTime acked) {
  const auto h = s->NextHeader(0);
  s->Track(1, rdma::MetaBlob("m"), nullptr, h.seq, sent);
  s->OnAck(s->epoch(), h.seq, acked);
}

TEST(ReliableSenderTest, SlowAcksRaiseTheTimeoutAboveTheInitialBackoff) {
  net::ReliableSender s;
  s.Init(0, net::kChData, AdaptiveLink(), 1);
  EXPECT_EQ(s.rto(), FromMillis(1));  // no sample yet: initial_backoff
  // A peer that takes 10 ms to verify, forward and ACK each frame.
  SimTime now = 0;
  for (int i = 0; i < 4; ++i) {
    SendAndAck(&s, now, now + FromMillis(10));
    now += FromMillis(20);
  }
  EXPECT_GE(s.srtt(), FromMillis(9));
  EXPECT_LE(s.srtt(), FromMillis(11));
  EXPECT_GT(s.rto(), FromMillis(10));
  // A timer at the old fixed backoff no longer fires on a merely slow ACK...
  const auto h = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, now);
  EXPECT_EQ(s.CollectRetransmits(now + FromMillis(1)), 0u);
  EXPECT_EQ(s.CollectRetransmits(now + FromMillis(9)), 0u);
  // ...but a frame that is really late still goes out again.
  EXPECT_NE(s.CollectRetransmits(now + s.rto()), 0u);
  EXPECT_EQ(s.metrics().retransmits, 1u);
}

TEST(ReliableSenderTest, AckOfARetransmittedFrameLeavesTheEstimate) {
  net::ReliableSender s;
  s.Init(0, net::kChData, AdaptiveLink(), 1);
  SendAndAck(&s, 0, FromMillis(2));
  const SimTime srtt = s.srtt();
  const SimTime rto = s.rto();
  // Karn's rule: once re-sent, an ACK cannot tell which copy it answers,
  // so a (very late) ACK of it must not feed the estimator.
  const auto h = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, FromMillis(10));
  ASSERT_NE(s.CollectRetransmits(FromMillis(50)), 0u);
  s.OnAck(s.epoch(), h.seq, FromMillis(90));
  EXPECT_EQ(s.window_size(), 0u);
  EXPECT_EQ(s.srtt(), srtt);
  EXPECT_EQ(s.rto(), rto);
  // The backed-off timeout is kept for the next frame: only a valid sample
  // shows the peer is back within the estimate.
  const auto h2 = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h2.seq, FromMillis(100));
  EXPECT_EQ(s.CollectRetransmits(FromMillis(100) + rto + 1), 0u);
  // A frame sent after the retransmission is unambiguous again, and its
  // sample ends the backoff.
  s.OnAck(s.epoch(), h2.seq, FromMillis(108));
  EXPECT_NE(s.srtt(), srtt);
  const auto h3 = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h3.seq, FromMillis(200));
  EXPECT_EQ(s.CollectRetransmits(FromMillis(200) + s.rto() - 1), 0u);
  EXPECT_NE(s.CollectRetransmits(FromMillis(200) + s.rto()), 0u);
}

TEST(ReliableSenderTest, AckRetiringARetransmittedHeadSamplesOnlyTheNewestFrame) {
  net::ReliableSender s;
  s.Init(0, net::kChData, AdaptiveLink(), 1);
  const auto h0 = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h0.seq, 0);
  ASSERT_NE(s.CollectRetransmits(FromMillis(5)), 0u);  // h0 re-sent
  const auto h1 = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h1.seq, FromMillis(6));
  // One cumulative ACK retires both; the sample is the fresh h1's 3 ms.
  s.OnAck(s.epoch(), h1.seq, FromMillis(9));
  EXPECT_EQ(s.srtt(), FromMillis(3));
}

TEST(ReliableSenderTest, TimeoutStaysWithinTheBackoffBounds) {
  const net::ReliableOptions o = AdaptiveLink();
  net::ReliableSender fast;
  fast.Init(0, net::kChData, o, 1);
  for (int i = 0; i < 8; ++i) {
    SendAndAck(&fast, FromMicros(100 * i), FromMicros(100 * i + 5));
  }
  EXPECT_EQ(fast.rto(), o.initial_backoff);  // floor: tiny RTTs never undercut it

  net::ReliableSender slow;
  slow.Init(0, net::kChData, o, 1);
  SimTime now = 0;
  for (int i = 0; i < 8; ++i) {
    SendAndAck(&slow, now, now + FromSeconds(1));
    now += FromSeconds(2);
  }
  EXPECT_EQ(slow.rto(), o.max_backoff);  // cap: the estimate is clamped
  // Per-attempt doubling stays capped too.
  const auto h = slow.NextHeader(0);
  slow.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, now);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(slow.CollectRetransmits(now + o.max_backoff - 1), 0u);
    now += o.max_backoff;
    ASSERT_NE(slow.CollectRetransmits(now), 0u);
  }
}

net::FrameHeader Frame(uint32_t sender, uint32_t epoch, uint64_t seq) {
  net::FrameHeader h;
  h.sender = sender;
  h.epoch = epoch;
  h.seq = seq;
  return h;
}

TEST(ReliableReceiverTest, InOrderFramesDeliver) {
  net::ReliableReceiver r;
  for (uint64_t seq = 0; seq < 3; ++seq) {
    const auto out = r.OnFrame(Frame(1, 0, seq), true);
    EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kDeliver);
    EXPECT_FALSE(out.send_nack);
  }
  uint32_t epoch = 0;
  uint64_t seq = 0;
  ASSERT_TRUE(r.CumulativeAck(1, &epoch, &seq));
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(seq, 2u);
}

TEST(ReliableReceiverTest, GapNacksOnceUntilProgress) {
  net::ReliableReceiver r;
  (void)r.OnFrame(Frame(1, 0, 0), true);
  auto out = r.OnFrame(Frame(1, 0, 5), true);  // 1..4 missing
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kGap);
  EXPECT_TRUE(out.send_nack);
  EXPECT_EQ(out.nack_seq, 1u);
  // The same gap again: dropped, no second NACK (dedupe).
  out = r.OnFrame(Frame(1, 0, 6), true);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kGap);
  EXPECT_FALSE(out.send_nack);
  // Progress re-arms the NACK.
  EXPECT_EQ(r.OnFrame(Frame(1, 0, 1), true).verdict,
            net::ReliableReceiver::Verdict::kDeliver);
  out = r.OnFrame(Frame(1, 0, 7), true);
  EXPECT_TRUE(out.send_nack);
  EXPECT_EQ(out.nack_seq, 2u);
}

TEST(ReliableReceiverTest, DuplicateAndStaleAndInvalidDropSilently) {
  net::ReliableReceiver r;
  (void)r.OnFrame(Frame(1, 1, 0), true);  // adopts epoch 1
  EXPECT_EQ(r.OnFrame(Frame(1, 1, 0), true).verdict,
            net::ReliableReceiver::Verdict::kDuplicate);
  EXPECT_EQ(r.OnFrame(Frame(1, 0, 3), true).verdict,
            net::ReliableReceiver::Verdict::kStale);
  net::FrameHeader bad = Frame(1, 1, 1);
  bad.magic = 0xBAD;
  EXPECT_EQ(r.OnFrame(bad, true).verdict, net::ReliableReceiver::Verdict::kInvalid);
  EXPECT_EQ(r.metrics().frames_duplicate, 1u);
  EXPECT_EQ(r.metrics().frames_stale, 1u);
  EXPECT_EQ(r.metrics().frames_invalid, 1u);
}

TEST(ReliableReceiverTest, CorruptFrameNacksItsOwnSeq) {
  net::ReliableReceiver r;
  const auto out = r.OnFrame(Frame(1, 0, 0), /*crc_ok=*/false);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kCorrupt);
  EXPECT_TRUE(out.send_nack);
  EXPECT_EQ(out.nack_seq, 0u);
  EXPECT_EQ(r.metrics().frames_corrupted, 1u);
  // The retransmission then delivers.
  EXPECT_EQ(r.OnFrame(Frame(1, 0, 0), true).verdict,
            net::ReliableReceiver::Verdict::kDeliver);
}

TEST(ReliableReceiverTest, HigherEpochAdoptsFresh) {
  net::ReliableReceiver r;
  (void)r.OnFrame(Frame(1, 0, 0), true);
  (void)r.OnFrame(Frame(1, 0, 1), true);
  // The sender reset: epoch 1 restarts at seq 0 and must deliver.
  const auto out = r.OnFrame(Frame(1, 1, 0), true);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kDeliver);
  uint32_t epoch = 0;
  uint64_t seq = 0;
  ASSERT_TRUE(r.CumulativeAck(1, &epoch, &seq));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(seq, 0u);
}

TEST(ReliableReceiverTest, CorruptFrameCannotSteerTheEpoch) {
  // A flipped bit in the epoch field must not be adopted as a sender reset:
  // nothing in a corrupt frame is trustworthy, and adopting a huge bogus
  // epoch would make every genuine frame "stale" — a permanent link wedge.
  net::ReliableReceiver r;
  (void)r.OnFrame(Frame(1, 0, 0), true);
  const auto out = r.OnFrame(Frame(1, 0x40000000u, 1), /*crc_ok=*/false);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kCorrupt);
  // The genuine epoch-0 stream still delivers.
  EXPECT_EQ(r.OnFrame(Frame(1, 0, 1), true).verdict,
            net::ReliableReceiver::Verdict::kDeliver);
  uint32_t epoch = 99;
  uint64_t seq = 0;
  ASSERT_TRUE(r.CumulativeAck(1, &epoch, &seq));
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(seq, 1u);
}

TEST(ReliableReceiverTest, DuplicatesAndStaleFramesDropBeforeVerification) {
  net::ReliableReceiver r;
  // Nothing is known about a peer before its first verified frame.
  EXPECT_FALSE(r.DropBeforeVerify(Frame(1, 1, 0)));
  ASSERT_EQ(r.OnFrame(Frame(1, 1, 0), true).verdict,
            net::ReliableReceiver::Verdict::kDeliver);
  ASSERT_EQ(r.OnFrame(Frame(1, 1, 1), true).verdict,
            net::ReliableReceiver::Verdict::kDeliver);
  // Already-delivered seqs and superseded epochs are decided by the header.
  EXPECT_TRUE(r.DropBeforeVerify(Frame(1, 1, 0)));
  EXPECT_TRUE(r.DropBeforeVerify(Frame(1, 1, 1)));
  EXPECT_TRUE(r.DropBeforeVerify(Frame(1, 0, 7)));
  EXPECT_EQ(r.metrics().frames_duplicate, 2u);
  EXPECT_EQ(r.metrics().frames_stale, 1u);
  // In-order, gap and newer-epoch frames still need the full check.
  EXPECT_FALSE(r.DropBeforeVerify(Frame(1, 1, 2)));
  EXPECT_FALSE(r.DropBeforeVerify(Frame(1, 1, 5)));
  EXPECT_FALSE(r.DropBeforeVerify(Frame(1, 2, 0)));
  EXPECT_FALSE(r.DropBeforeVerify(Frame(2, 0, 0)));  // unknown peer
  // Dropped frames delivered nothing and moved nothing: the cumulative ACK
  // still names seq 1, and a corrupt in-order frame still NACKs it.
  uint32_t epoch = 0;
  uint64_t seq = 0;
  ASSERT_TRUE(r.CumulativeAck(1, &epoch, &seq));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(seq, 1u);
  const auto out = r.OnFrame(Frame(1, 1, 2), /*crc_ok=*/false);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kCorrupt);
  EXPECT_TRUE(out.send_nack);
  EXPECT_EQ(out.nack_seq, 2u);
  EXPECT_EQ(out.nack_epoch, 1u);
  EXPECT_EQ(r.metrics().frames_corrupted, 1u);
  EXPECT_EQ(r.metrics().frames_duplicate, 2u);
  EXPECT_EQ(r.metrics().frames_stale, 1u);
}

TEST(ReliableEnvelopeTest, AnyEnvelopeBitFlipFailsVerification) {
  // NextHeader folds EnvelopeCrc(sender, epoch, seq) into payload_crc; the
  // receiver XORs it back out over the *received* fields. Flip any bit of
  // any identity field and verification must fail.
  net::ReliableSender s;
  s.Init(1, net::kChData, FastLink(), 7);
  const uint32_t content_crc = 0xFEEDFACE;
  const net::FrameHeader h = s.NextHeader(content_crc);
  ASSERT_EQ(h.payload_crc ^ net::EnvelopeCrc(h), content_crc);
  const auto verify = [&](const net::FrameHeader& got) {
    return (got.payload_crc ^ net::EnvelopeCrc(got)) == content_crc;
  };
  for (int bit = 0; bit < 32; ++bit) {
    net::FrameHeader flipped = h;
    flipped.sender ^= 1u << bit;
    EXPECT_FALSE(verify(flipped)) << "sender bit " << bit;
    flipped = h;
    flipped.epoch ^= 1u << bit;
    EXPECT_FALSE(verify(flipped)) << "epoch bit " << bit;
  }
  for (int bit = 0; bit < 64; ++bit) {
    net::FrameHeader flipped = h;
    flipped.seq ^= 1ull << bit;
    EXPECT_FALSE(verify(flipped)) << "seq bit " << bit;
  }
}

TEST(ReliableEnvelopeTest, AnyCtrlBitFlipFailsItsChecksum) {
  net::CtrlMsg c;
  c.sender = 2;
  c.channel = net::kChData;
  c.kind = static_cast<uint32_t>(net::CtrlKind::kAck);
  c.epoch = 3;
  c.seq = 41;
  c.crc = net::CtrlCrc(c);
  EXPECT_EQ(c.crc, net::CtrlCrc(c));
  const auto check = [](net::CtrlMsg m) { return m.crc == net::CtrlCrc(m); };
  for (int bit = 0; bit < 32; ++bit) {
    net::CtrlMsg f = c;
    f.sender ^= 1u << bit;
    EXPECT_FALSE(check(f)) << "sender bit " << bit;
    f = c;
    f.channel ^= 1u << bit;
    EXPECT_FALSE(check(f)) << "channel bit " << bit;
    f = c;
    f.kind ^= 1u << bit;
    EXPECT_FALSE(check(f)) << "kind bit " << bit;
    f = c;
    f.epoch ^= 1u << bit;
    EXPECT_FALSE(check(f)) << "epoch bit " << bit;
  }
  for (int bit = 0; bit < 64; ++bit) {
    net::CtrlMsg f = c;
    f.seq ^= 1ull << bit;
    EXPECT_FALSE(check(f)) << "seq bit " << bit;
  }
}

TEST(ReliableLoopTest, LossyLinkConvergesViaNackAndRetransmit) {
  // Sender -> receiver over an imaginary wire that loses every third frame;
  // the NACK/retransmit loop must still deliver 0..N-1 in order.
  net::ReliableSender s;
  s.Init(0, net::kChData, FastLink(), 13);
  net::ReliableReceiver r;
  std::vector<uint64_t> delivered;
  SimTime now = 0;
  int sent = 0;
  for (uint64_t i = 0; i < 6; ++i) {
    const auto h = s.NextHeader(0);
    s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, now);
    if (++sent % 3 == 0) continue;  // lost on the wire
    const auto out = r.OnFrame(h, true);
    if (out.verdict == net::ReliableReceiver::Verdict::kDeliver) {
      delivered.push_back(h.seq);
    }
    if (out.send_nack) s.OnNack(out.nack_epoch, out.nack_seq, now);
  }
  for (int round = 0; round < 20 && delivered.size() < 6; ++round) {
    now += FromMillis(5);
    const size_t due = s.CollectRetransmits(now);
    if (due == 0) continue;
    uint64_t acked = 0;
    bool have_ack = false;
    for (size_t i = 0; i < due; ++i) {
      const auto& st = s.window()[i];
      const auto out = r.OnFrame(Frame(0, s.epoch(), st.seq), true);
      if (out.verdict == net::ReliableReceiver::Verdict::kDeliver) {
        delivered.push_back(st.seq);
        acked = st.seq;
        have_ack = true;
      }
    }
    if (have_ack) s.OnAck(s.epoch(), acked, now);
  }
  EXPECT_EQ(delivered, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.window_size(), 0u);
}

// ---------------------------------------------------------------------------
// Decode fuzz: corruption and truncation must fail typed, never crash.
// ---------------------------------------------------------------------------

bat::BatPtr FuzzTargetBat() {
  return bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 5, 8, 13, 21, 34}));
}

TEST(DecodeFuzzTest, EveryByteFlipIsCorruption) {
  const std::string frame = bat::Serialize(*FuzzTargetBat());
  for (size_t i = 0; i < frame.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80}) {
      std::string mutated = frame;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      auto decoded = bat::Deserialize(mutated);
      ASSERT_FALSE(decoded.ok()) << "flip at byte " << i << " decoded cleanly";
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << decoded.status().ToString();
    }
  }
}

TEST(DecodeFuzzTest, EveryTruncationIsCorruption) {
  const std::string frame = bat::Serialize(*FuzzTargetBat());
  for (size_t len = 0; len < frame.size(); ++len) {
    auto decoded = bat::Deserialize(std::string_view(frame).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded cleanly";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(DecodeFuzzTest, StringColumnSurvivesTheSameFuzz) {
  const auto b = bat::Bat::MakeColumn(
      bat::MakeStrColumn({"alpha", "beta", "", "a longer string payload"}));
  const std::string frame = bat::Serialize(*b);
  // Byte flips across the whole frame, single-bit, both edges of each byte.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string mutated = frame;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    auto decoded = bat::Deserialize(mutated);
    ASSERT_FALSE(decoded.ok()) << "flip at byte " << i;
  }
  // Round-trip still intact.
  auto decoded = bat::Deserialize(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->size(), 4u);
}

}  // namespace
}  // namespace dcy
