// Unit tests of the ring's hop transport (runtime/ring_link.h). Two link
// ends are wired over real rdma::Channels exactly as two ring neighbours
// are: node 0's successor link sends BAT and delta frames into node 1's
// port, and node 1's predecessor link sends requests back into node 0's.
// A seeded FaultInjector drops, duplicates, delays and corrupts frames on
// every channel; the links must still deliver each frame exactly once, in
// order, and never hand a corrupted payload to the protocol above.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bat/serialize.h"
#include "rdma/fault.h"
#include "runtime/ring_link.h"

namespace dcy::runtime {
namespace {

using rdma::FaultInjector;

/// One frame as the protocol above the link would see it.
struct Delivered {
  uint32_t opcode = 0;
  uint64_t index = 0;
  std::string payload;
  uint32_t payload_crc = 0;
};

/// Deterministic payload bytes of the index-th data frame.
std::string PayloadOf(uint64_t index) {
  std::string s(64 + (index * 37) % 900, '\0');
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<char>((index * 131 + i * 7) & 0xFF);
  }
  return s;
}

net::ReliableOptions LinkOptions() {
  net::ReliableOptions o;
  o.initial_backoff = FromMillis(1);
  o.max_backoff = FromMillis(10);
  o.max_attempts = 64;  // a reset would abandon frames: keep it out of reach
  return o;
}

class RingLinkTest : public ::testing::Test {
 protected:
  /// Node 0 -> node 1 data frames: every third one a delta, the rest BATs.
  void SendData(uint64_t index) {
    const rdma::Buffer payload = rdma::MakeBuffer(PayloadOf(index));
    const uint32_t crc = bat::Crc32(payload->data(), payload->size());
    if (index % 3 == 2) {
      DeltaFrame df;
      df.fragment = 7;
      df.origin = 0;
      df.version = index;
      succ_.Send(kOpDelta, df, payload, crc);
    } else {
      net::DataFrame df;
      df.bat.owner = 0;
      df.bat.bat_id = static_cast<core::BatId>(index);
      df.bat.bat_size = payload->size();
      succ_.Send(kOpBat, df, payload, crc);
    }
  }

  /// Node 1 -> node 0 request frames.
  void SendRequest(uint64_t index) {
    net::RequestFrame rf;
    rf.req.origin = 1;
    rf.req.bat_id = static_cast<core::BatId>(index);
    pred_.Send(kOpRequest, rf, nullptr, 0);
  }

  /// Drains one link's inbox through Accept, as a node's service loop does,
  /// then sends the batch's coalesced ACK.
  void DrainInbox(RingLink& link, std::vector<Delivered>* out) {
    std::vector<rdma::Message> batch;
    if (link.inbox().TryReceiveAll(&batch) == 0) return;
    for (const rdma::Message& m : batch) {
      Delivered d;
      d.opcode = m.opcode;
      bool ok = false;
      if (m.opcode == kOpBat) {
        net::DataFrame df;
        ok = link.Accept(m, &df, &d.payload_crc);
        d.index = df.bat.bat_id;
      } else if (m.opcode == kOpDelta) {
        DeltaFrame df;
        ok = link.Accept(m, &df, &d.payload_crc);
        d.index = df.version;
      } else if (m.opcode == kOpRequest) {
        net::RequestFrame rf;
        ok = link.Accept(m, &rf, &d.payload_crc);
        d.index = rf.req.bat_id;
      }
      if (!ok) continue;
      if (m.payload != nullptr) d.payload = *m.payload;
      out->push_back(std::move(d));
    }
    link.AckDrained(batch);
  }

  /// Feeds a node's control channel to its link, then pumps retransmits.
  void ServiceCtrl(RingPort& port, RingLink& link) {
    std::vector<rdma::Message> batch;
    port.ctrl.TryReceiveAll(&batch);
    const SimTime now = SteadyNowNs();
    for (const rdma::Message& m : batch) {
      net::CtrlMsg c;
      if (link.AcceptCtrl(m, &c)) link.OnCtrl(c, now);
    }
    link.PumpRetransmits(now);
  }

  /// Runs both ends until `data` and `requests` frames have been delivered
  /// (or a generous deadline passes), sending a few new frames per round.
  void Run(uint64_t data, uint64_t requests) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    uint64_t sent_data = 0, sent_requests = 0;
    while ((data_in_.size() < data || requests_in_.size() < requests) &&
           std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 4 && sent_data < data; ++i) SendData(sent_data++);
      for (int i = 0; i < 2 && sent_requests < requests; ++i) {
        SendRequest(sent_requests++);
      }
      DrainInbox(pred_, &data_in_);
      DrainInbox(succ_, &requests_in_);
      ServiceCtrl(port0_, succ_);
      ServiceCtrl(port1_, pred_);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Exactly once, in order, and byte-identical to what was sent.
  void ExpectExactlyOnceInOrder(uint64_t data, uint64_t requests) {
    ASSERT_EQ(data_in_.size(), data);
    for (uint64_t i = 0; i < data; ++i) {
      const Delivered& d = data_in_[i];
      ASSERT_EQ(d.index, i) << "data frame " << i << " out of order or repeated";
      EXPECT_EQ(d.opcode, i % 3 == 2 ? kOpDelta : kOpBat) << "frame " << i;
      ASSERT_EQ(d.payload, PayloadOf(i)) << "frame " << i << " delivered corrupted";
      EXPECT_EQ(d.payload_crc, bat::Crc32(d.payload.data(), d.payload.size()));
    }
    ASSERT_EQ(requests_in_.size(), requests);
    for (uint64_t i = 0; i < requests; ++i) {
      ASSERT_EQ(requests_in_[i].index, i) << "request " << i << " out of order";
      EXPECT_EQ(requests_in_[i].opcode, kOpRequest);
    }
    for (const RingLink* link : {&succ_, &pred_}) {
      EXPECT_EQ(link->sender().metrics().link_resets, 0u);
      EXPECT_EQ(link->sender().metrics().frames_abandoned, 0u);
    }
  }

  /// Installed on every channel; without rules the fabric is clean.
  FaultInjector fault_{0x5EED};
  RingPort port0_{0, rdma::TransferMode::kZeroCopy, 64 << 20, &fault_};
  RingPort port1_{1, rdma::TransferMode::kZeroCopy, 64 << 20, &fault_};
  std::vector<RingPort*> ports_{&port0_, &port1_};
  RingLink succ_{0, RingLink::kSuccessor, /*peer=*/1, &ports_, LinkOptions(), 11};
  RingLink pred_{1, RingLink::kPredecessor, /*peer=*/0, &ports_, LinkOptions(), 11};
  std::vector<Delivered> data_in_;      ///< what node 1 delivered
  std::vector<Delivered> requests_in_;  ///< what node 0 delivered
};

TEST_F(RingLinkTest, CleanFabricDeliversBothDirectionsAndAcksEverything) {
  Run(/*data=*/60, /*requests=*/20);
  ExpectExactlyOnceInOrder(60, 20);
  // Once the last ACKs land, both retransmit windows are empty.
  for (int i = 0; i < 200 && (succ_.sender().window_size() > 0 ||
                              pred_.sender().window_size() > 0);
       ++i) {
    ServiceCtrl(port0_, succ_);
    ServiceCtrl(port1_, pred_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(succ_.sender().window_size(), 0u);
  EXPECT_EQ(pred_.sender().window_size(), 0u);
  EXPECT_GT(pred_.receiver().metrics().acks_sent, 0u);  // ACKs are counted
  EXPECT_GT(succ_.receiver().metrics().acks_sent, 0u);
  EXPECT_EQ(pred_.receiver().metrics().frames_corrupted, 0u);
}

/// A fixture whose fabric corrupts exactly data frame 3 on its first pass.
class RingLinkCorruptOnce : public RingLinkTest {
 protected:
  RingLinkCorruptOnce() {
    rdma::FaultRule rule;
    rule.link = {0, 1, rdma::kFaultChannelData};
    rule.type = rdma::FaultType::kCorrupt;
    rule.from_frame = 3;
    rule.to_frame = 4;
    fault_.AddRule(rule);
  }
};

TEST_F(RingLinkCorruptOnce, CorruptedFrameIsNackedAndResentNeverDelivered) {
  for (uint64_t i = 0; i < 6; ++i) SendData(i);
  DrainInbox(pred_, &data_in_);
  // Frames 0-2 passed; 3 failed its CRC and drew the NACK; 4-5 are a gap.
  ASSERT_EQ(data_in_.size(), 3u);
  EXPECT_EQ(pred_.receiver().metrics().frames_corrupted, 1u);
  EXPECT_EQ(pred_.receiver().metrics().frames_gap, 2u);
  EXPECT_EQ(pred_.receiver().metrics().nacks_sent, 1u);
  // The NACK makes node 0 go back and resend 3..5 at once.
  ServiceCtrl(port0_, succ_);
  EXPECT_EQ(succ_.sender().metrics().retransmits, 3u);
  DrainInbox(pred_, &data_in_);
  ExpectExactlyOnceInOrder(6, 0);
  EXPECT_EQ(fault_.counters().corrupted.load(), 1u);
}

/// The lossy fabric: drop, duplicate, corrupt and delay on every channel,
/// control traffic included.
class RingLinkLossy : public RingLinkTest {
 protected:
  RingLinkLossy() {
    const rdma::FaultLink all;
    fault_.AddRule(FaultInjector::Drop(all, 0.05));
    fault_.AddRule(FaultInjector::Duplicate(all, 0.05));
    fault_.AddRule(FaultInjector::Corrupt(all, 0.05));
    fault_.AddRule(FaultInjector::Delay(all, 0.02, FromMillis(1)));
  }
};

TEST_F(RingLinkLossy, InterleavedBatAndDeltaFramesArriveExactlyOnceInOrder) {
  Run(/*data=*/300, /*requests=*/100);
  ExpectExactlyOnceInOrder(300, 100);
  // The schedule bit on every fault kind, and the links absorbed it.
  EXPECT_GT(fault_.counters().dropped.load(), 0u);
  EXPECT_GT(fault_.counters().duplicated.load(), 0u);
  EXPECT_GT(fault_.counters().corrupted.load(), 0u);
  EXPECT_GT(pred_.receiver().metrics().frames_corrupted, 0u);
  EXPECT_GT(pred_.receiver().metrics().frames_duplicate, 0u);
  EXPECT_GT(succ_.sender().metrics().retransmits, 0u);
}

}  // namespace
}  // namespace dcy::runtime
