// The hop transport of the live ring: one RingLink per neighbour direction
// (paper §2.3: one point-to-point connection to each ring neighbour). The
// successor link sends BAT and delta frames clockwise and receives requests;
// the predecessor link sends requests and receives data. A link owns the
// net::ReliableSender towards its peer, the net::ReliableReceiver for frames
// from it, the peer and its heard-from clock, and every ACK, NACK and
// heartbeat it sends.
//
// Every frame kind goes out through one Send and comes in through one
// Accept: size and envelope check, the duplicate drop before the payload
// CRC, the CRC over envelope, header and payload, in-order classification,
// the NACK, and the heard-from update. Driven by the node's service thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "core/types.h"
#include "net/reliable.h"
#include "rdma/channel.h"
#include "rdma/fault.h"

namespace dcy::runtime {

/// Opcodes of ring traffic.
constexpr uint32_t kOpBat = 1;
constexpr uint32_t kOpRequest = 2;
constexpr uint32_t kOpCtrl = 3;
constexpr uint32_t kOpDelta = 4;

/// Envelope + routing header of a circulating delta frame: the payload is
/// one write::SerializeDelta wire image. Deltas ride the data channel and
/// share its sequence space with BAT frames, so loss, reordering and
/// corruption are handled by the same hop machinery.
struct DeltaFrame {
  net::FrameHeader frame;
  uint32_t fragment = 0;  ///< base fragment the delta applies to
  uint32_t origin = 0;    ///< committing node; circulation ends back there
  uint64_t version = 0;   ///< commit version (purged once folded into a base)
  uint32_t hops = 0;      ///< hops travelled (orphan bound when origin dies)
  uint32_t reserved = 0;
};

static_assert(sizeof(DeltaFrame) <= rdma::MetaBlob::kCapacity);

/// CRC of a frame's application header (what follows the envelope),
/// re-stamped per hop; the payload's CRC is XORed on top.
uint32_t HeaderCrc(const net::RequestFrame& f);
uint32_t HeaderCrc(const net::DataFrame& f);
uint32_t HeaderCrc(const DeltaFrame& f);

/// The node-local monotonic clock the hop layer runs on.
inline SimTime SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief The inbound channels of one ring node; its neighbours' links send
/// into them. `fault` (nullable, not owned) applies to all three.
struct RingPort {
  RingPort(core::NodeId id, rdma::TransferMode data_mode, uint64_t data_capacity,
           rdma::FaultInjector* fault);
  void Close();
  void Reopen();  ///< discards everything queued

  rdma::Channel data;     ///< BAT and delta frames from the predecessor
  rdma::Channel request;  ///< request frames from the successor
  rdma::Channel ctrl;     ///< ACK, NACK and heartbeat from either neighbour
};

/// \brief One direction of a node's neighbour connections.
class RingLink {
 public:
  enum Side : size_t {
    kSuccessor = 0,    ///< sends data, receives requests
    kPredecessor = 1,  ///< sends requests, receives data
  };

  /// `ports` maps node ids to ports (not owned): frames go to the peer's,
  /// ACKs and NACKs to whichever member sent the acknowledged frame.
  RingLink(core::NodeId self, Side side, core::NodeId peer,
           const std::vector<RingPort*>* ports, const net::ReliableOptions& options,
           uint64_t seed);

  core::NodeId peer() const { return peer_.load(std::memory_order_acquire); }
  /// Rewires to `peer` on a fresh epoch and restarts the heard-from clock.
  void Adopt(core::NodeId peer, SimTime now);
  void RestartSilenceClock(SimTime now) { last_heard_ = now; }

  /// This node's channel the peer's frames arrive on.
  rdma::Channel& inbox() const;
  /// Bytes queued in the peer channel this link sends into.
  uint64_t OutboundQueuedBytes() const { return Outbound().queued_bytes(); }

  /// Stamps, sends and tracks one frame towards the peer (nothing when the
  /// peer is this node). `payload_crc` is the CRC of `payload` alone.
  template <typename FrameT>
  void Send(uint32_t opcode, FrameT frame, rdma::Buffer payload, uint32_t payload_crc);

  /// The verify step of every inbound frame; true when `m` is delivered,
  /// with its header in `*frame` and its payload-only CRC in `*payload_crc`.
  template <typename FrameT>
  bool Accept(const rdma::Message& m, FrameT* frame, uint32_t* payload_crc);

  /// One coalesced cumulative ACK per distinct sender in a drained batch.
  void AckDrained(const std::vector<rdma::Message>& batch);

  /// Reads one control message; false when short, foreign or corrupted.
  bool AcceptCtrl(const rdma::Message& m, net::CtrlMsg* c);
  /// An ACK/NACK of this link's outbound channel moves its window; a
  /// heartbeat from the peer refreshes the heard-from clock.
  void OnCtrl(const net::CtrlMsg& c, SimTime now);

  void PumpRetransmits(SimTime now);
  void SendHeartbeat();
  /// True, once per silence window, when the peer was quiet beyond `bound`.
  bool Silent(SimTime now, SimTime bound);

  const net::ReliableSender& sender() const { return out_; }
  const net::ReliableReceiver& receiver() const { return rx_; }

 private:
  rdma::Channel& Outbound() const;
  /// Garbage must not steer per-peer state: a bad magic or impossible
  /// sender is counted and dropped without a NACK.
  bool ValidEnvelope(const net::FrameHeader& h);
  bool Verify(const net::FrameHeader& h, uint32_t header_crc, const rdma::Buffer& payload,
              uint32_t* payload_crc);
  /// The one builder of ACK, NACK and heartbeat messages.
  bool SendCtrl(core::NodeId to, net::CtrlKind kind, uint32_t channel, uint32_t epoch,
                uint64_t seq);

  const core::NodeId self_;
  const Side side_;
  const std::vector<RingPort*>* ports_;
  const uint32_t out_channel_;  ///< channel class of the frames sent
  const uint32_t in_channel_;
  std::atomic<core::NodeId> peer_;
  net::ReliableSender out_;
  net::ReliableReceiver rx_;
  SimTime last_heard_ = 0;
};

template <typename FrameT>
void RingLink::Send(uint32_t opcode, FrameT frame, rdma::Buffer payload,
                    uint32_t payload_crc) {
  if (peer() == self_) return;
  frame.frame = out_.NextHeader(HeaderCrc(frame) ^ payload_crc);
  const rdma::MetaBlob meta = rdma::MetaBlob::Of(frame);
  if (Outbound().Send(opcode, meta, payload, self_)) {
    out_.Track(opcode, meta, std::move(payload), frame.frame.seq, SteadyNowNs());
  }
}

template <typename FrameT>
bool RingLink::Accept(const rdma::Message& m, FrameT* frame, uint32_t* payload_crc) {
  static_assert(offsetof(FrameT, frame) == 0, "the envelope leads every frame");
  if (m.meta.size() < sizeof(FrameT)) return false;
  *frame = m.meta.As<FrameT>();
  if (!ValidEnvelope(frame->frame) || rx_.DropBeforeVerify(frame->frame)) return false;
  return Verify(frame->frame, HeaderCrc(*frame), m.payload, payload_crc);
}

}  // namespace dcy::runtime
