// Hop-level reliability for the live ring transport: framing, sequence
// numbers, CRC verification, cumulative ACK / NACK, and go-back-N
// retransmission with exponential backoff.
//
// Each directed neighbour link (data clockwise, requests anti-clockwise)
// gets a ReliableSender at the sending node and a ReliableReceiver slot at
// the receiving node. Every frame carries a FrameHeader {sender, epoch,
// seq, payload_crc, magic}; the receiver verifies the CRC, delivers
// in-order frames, and answers gaps or corruption with a NACK naming the
// sequence it expected. The sender keeps un-ACKed frames in a window and
// retransmits from the NACKed frame onward — classic go-back-N, which
// preserves the ring's FIFO contract — or, when the timer expires without
// a NACK, only the oldest frame.
//
// The retransmit timeout adapts to the link (RFC 6298): the sender keeps a
// smoothed RTT and RTT variance from cumulative ACKs, sampling only frames
// that were never retransmitted (Karn's rule), so a receiver that spends a
// millisecond verifying and forwarding each large payload does not look
// like a lossy link and get its whole window re-sent.
//
// Epochs make restarts safe: whenever a sender resets (node restart, ring
// re-splice, or an exhausted retransmit budget abandoning the window), it
// bumps its epoch and restarts seq at 0. A receiver that sees a higher
// epoch adopts it fresh; frames and ACKs from older epochs are stale and
// dropped, so no NACK loop can form across a reset.
//
// This layer is deliberately transport-agnostic: it never touches a
// channel. The ring runtime owns the wiring — it stamps outgoing frames
// via NextHeader/Track, feeds incoming control messages to OnAck/OnNack,
// and sends whatever CollectRetransmits returns.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "common/random.h"
#include "common/units.h"
#include "core/types.h"
#include "rdma/channel.h"

namespace dcy::net {

/// Sanity marker; a corrupted meta whose magic mismatches is counted and
/// dropped without consulting any per-sender state.
constexpr uint32_t kFrameMagic = 0xDC7F5EEDu;

/// Logical channel classes, shared with rdma::FaultLink::channel.
constexpr uint32_t kChData = 0;
constexpr uint32_t kChRequest = 1;
constexpr uint32_t kChCtrl = 2;

/// \brief Per-frame reliability envelope, prepended (inline, in the
/// MetaBlob) to the application header.
struct FrameHeader {
  uint32_t sender = core::kInvalidNode;
  uint32_t epoch = 0;
  uint64_t seq = 0;
  /// CRC32 over application header bytes XOR CRC32 over the payload bytes
  /// (0 for payload-less frames). The payload half is set once at load —
  /// for a frame that ends in its own CRC it is bat::kFrameCrcResidue —
  /// and forwarded hop to hop; the receiver recomputes it for verification.
  uint32_t payload_crc = 0;
  uint32_t magic = kFrameMagic;
};
static_assert(sizeof(FrameHeader) == 24);

/// Mixes the envelope's identity fields (sender, epoch, seq) into a 32-bit
/// checksum that NextHeader folds into payload_crc. Without it a bit flip in
/// the epoch field reads as a legitimate sender reset: the receiver adopts
/// the bogus (usually huge) epoch, every genuine frame is then "stale", and
/// the link wedges permanently — the sender's epoch++ resets never catch up.
inline uint32_t EnvelopeCrc(uint32_t sender, uint32_t epoch, uint64_t seq) {
  SplitMix64 mix(seq ^ (static_cast<uint64_t>(epoch) << 32) ^
                 (static_cast<uint64_t>(sender) * 0x9E3779B97F4A7C15ull));
  const uint64_t z = mix.Next();
  return static_cast<uint32_t>(z) ^ static_cast<uint32_t>(z >> 32);
}

inline uint32_t EnvelopeCrc(const FrameHeader& h) {
  return EnvelopeCrc(h.sender, h.epoch, h.seq);
}

/// \brief A data-channel frame: reliability envelope + BAT admin header.
/// Exactly fills the 64-byte inline meta budget.
struct DataFrame {
  FrameHeader frame;
  core::BatHeader bat;
};
static_assert(sizeof(DataFrame) == 64);
static_assert(sizeof(DataFrame) <= rdma::MetaBlob::kCapacity);

/// \brief A request-channel frame: reliability envelope + ring request.
struct RequestFrame {
  FrameHeader frame;
  core::RequestMsg req;
};
static_assert(sizeof(RequestFrame) <= rdma::MetaBlob::kCapacity);

enum class CtrlKind : uint32_t { kAck = 1, kNack = 2, kHeartbeat = 3 };

/// \brief Control-channel message (ACK/NACK/heartbeat); meta-only.
struct CtrlMsg {
  uint32_t sender = core::kInvalidNode;
  uint32_t channel = kChData;  ///< which link the ack/nack refers to
  uint32_t kind = 0;           ///< CtrlKind
  uint32_t epoch = 0;
  /// kAck: highest in-order seq received (cumulative). kNack: the seq the
  /// receiver expected (retransmit from here). kHeartbeat: unused.
  uint64_t seq = 0;
  uint32_t magic = kFrameMagic;
  uint32_t crc = 0;  ///< CtrlCrc over the fields above
};
static_assert(sizeof(CtrlMsg) <= rdma::MetaBlob::kCapacity);

/// Checksum over a control message's content. ACK/NACK frames steer the
/// sender's window, so a flipped seq bit in an ACK would falsely retire
/// frames the receiver never saw; a checksummed ctrl frame is dropped
/// instead (loss-tolerant: a later cumulative ACK or the retransmit timer
/// covers it).
inline uint32_t CtrlCrc(const CtrlMsg& c) {
  // One odd multiplier per field: each is a bijection mod 2^64, so a bit
  // flip in any single field always changes the XOR-combined seed.
  SplitMix64 mix(c.seq ^ (static_cast<uint64_t>(c.epoch) << 32) ^
                 (static_cast<uint64_t>(c.sender) * 0x9E3779B97F4A7C15ull) ^
                 (static_cast<uint64_t>(c.channel) * 0xBF58476D1CE4E5B9ull) ^
                 (static_cast<uint64_t>(c.kind) * 0x94D049BB133111EBull));
  const uint64_t z = mix.Next();
  return static_cast<uint32_t>(z) ^ static_cast<uint32_t>(z >> 32);
}

/// \brief Tunables for one reliable link.
struct ReliableOptions {
  /// Retransmission attempts for the window head before the sender declares
  /// the link flapped and resets (new epoch, window abandoned).
  uint32_t max_attempts = 10;
  /// Retransmit timeout before the first RTT sample, and the floor of the
  /// adaptive timeout (srtt + 4 * rttvar) once samples arrive.
  SimTime initial_backoff = FromMillis(2);
  /// Cap on the timeout, which doubles per retransmit since the last valid
  /// RTT sample.
  SimTime max_backoff = FromMillis(100);
  /// Backoff jitter fraction: each delay is scaled by 1 + jitter*U(-1,1).
  double jitter = 0.25;
  /// Un-ACKed frames the sender will hold before resetting the link
  /// (back-pressure of last resort; the channel's byte capacity usually
  /// throttles first).
  size_t max_unacked = 1024;
};

/// \brief Counters for one node's reliability state (both directions).
struct ReliableMetrics {
  uint64_t retransmits = 0;        ///< frames re-sent after NACK/timeout
  uint64_t frames_abandoned = 0;   ///< dropped with a link reset
  uint64_t link_resets = 0;        ///< epoch bumps (flaps + restarts)
  uint64_t frames_corrupted = 0;   ///< CRC mismatches detected on receive
  uint64_t frames_duplicate = 0;   ///< already-delivered seqs discarded
  uint64_t frames_gap = 0;         ///< out-of-order arrivals NACKed/dropped
  uint64_t frames_stale = 0;       ///< frames from a superseded epoch
  uint64_t frames_invalid = 0;     ///< bad magic / nonsense sender
  uint64_t nacks_sent = 0;
  uint64_t acks_sent = 0;
};

/// \brief Sending half of one directed link. Single-threaded: owned by the
/// node service thread that also owns the outgoing channel.
class ReliableSender {
 public:
  void Init(uint32_t self, uint32_t channel, const ReliableOptions& opts,
            uint64_t seed) {
    self_ = self;
    channel_ = channel;
    opts_ = opts;
    rng_.Seed(SplitMix64(seed ^ ((static_cast<uint64_t>(self) << 8) | channel)).Next());
  }

  /// Stamps the envelope for the next outgoing frame. The envelope's own
  /// identity fields are folded into payload_crc, so verification covers the
  /// whole frame: XOR EnvelopeCrc back out to recover the content CRC.
  FrameHeader NextHeader(uint32_t payload_crc) {
    FrameHeader h;
    h.sender = self_;
    h.epoch = epoch_;
    h.seq = next_seq_++;
    h.payload_crc = payload_crc ^ EnvelopeCrc(h);
    return h;
  }

  /// Records a sent frame in the retransmit window. Call right after the
  /// channel Send with the same seq NextHeader issued.
  void Track(uint32_t opcode, const rdma::MetaBlob& meta, rdma::Buffer payload,
             uint64_t seq, SimTime now);

  /// Cumulative acknowledgement: everything <= seq (in this epoch) is done.
  /// The highest retired frame feeds the RTT estimate unless it was ever
  /// retransmitted (Karn's rule: its ACK is ambiguous).
  void OnAck(uint32_t epoch, uint64_t seq, SimTime now);

  /// The peer expected `seq`: frames < seq are implicitly ACKed, the rest
  /// retransmit immediately.
  void OnNack(uint32_t epoch, uint64_t seq, SimTime now);

  /// One un-ACKed frame in the retransmit window.
  struct Stored {
    uint32_t opcode = 0;
    rdma::MetaBlob meta;
    rdma::Buffer payload;
    uint64_t seq = 0;
    SimTime sent_at = 0;
    bool retransmitted = false;
  };
  /// How many leading window() frames are due for re-sending now (0 when
  /// none). After a NACK the whole window goes again from the NACKed seq:
  /// the receiver drops everything past a gap (go-back-N). A timeout
  /// re-sends only the head: nothing shows the frames behind it were lost
  /// (a gap would have drawn a NACK), and a window re-sent on every timeout
  /// floods a receiver that is merely slow. On the head frame exhausting
  /// its attempt budget the whole window is abandoned with a link reset
  /// (go-back-N cannot skip one frame without leaving the receiver gapped
  /// forever).
  size_t CollectRetransmits(SimTime now);

  /// The un-ACKed frames, oldest (lowest seq) first.
  const std::deque<Stored>& window() const { return unacked_; }

  /// Bumps the epoch, restarts seq at 0, abandons the window. Used on node
  /// restart, ring re-splice, and retransmit exhaustion. The RTT estimate
  /// is kept: it describes the link, not the epoch.
  void Reset(SimTime now);

  uint32_t epoch() const { return epoch_; }
  uint64_t next_seq() const { return next_seq_; }
  size_t window_size() const { return unacked_.size(); }
  const ReliableMetrics& metrics() const { return metrics_; }

  /// Current retransmit timeout before backoff and jitter:
  /// max(initial_backoff, srtt + 4 * rttvar), capped at max_backoff;
  /// initial_backoff until the first RTT sample.
  SimTime rto() const;
  /// Smoothed RTT; 0 until the first sample.
  SimTime srtt() const { return srtt_; }

 private:
  void SampleRtt(SimTime rtt);
  /// rto() doubled backoff_ times, capped at max_backoff, then jittered.
  SimTime RetxDelay();

  uint32_t self_ = core::kInvalidNode;
  uint32_t channel_ = kChData;
  ReliableOptions opts_;
  Rng rng_;
  uint32_t epoch_ = 0;
  uint64_t next_seq_ = 0;
  std::deque<Stored> unacked_;
  uint32_t head_attempts_ = 0;
  /// Timeouts since the last valid RTT sample. Unlike head_attempts_ it
  /// survives ACK progress (Karn's algorithm): while every ACK retires only
  /// retransmitted frames, the peer is slower than the estimate says, so
  /// the doubled timeout stays until a fresh frame is acknowledged.
  uint32_t backoff_ = 0;
  SimTime next_retx_ = 0;
  /// A NACK asked for the window; the next collection re-sends all of it.
  bool nack_pending_ = false;
  bool have_rtt_ = false;
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  ReliableMetrics metrics_;
};

/// \brief Receiving half: in-order delivery decisions per sending peer.
/// Single-threaded (node service thread).
class ReliableReceiver {
 public:
  enum class Verdict {
    kDeliver,    ///< in order and intact: hand to the application
    kDuplicate,  ///< seq below expected: drop silently
    kGap,        ///< seq above expected: drop, NACK the expected seq
    kCorrupt,    ///< CRC mismatch: drop, NACK this seq
    kStale,      ///< superseded epoch: drop
    kInvalid,    ///< bad magic / unknown sender: drop, no NACK
  };

  struct Outcome {
    Verdict verdict = Verdict::kInvalid;
    bool send_nack = false;
    uint64_t nack_seq = 0;
    uint32_t nack_epoch = 0;
  };

  /// Classifies one arriving frame. `crc_ok` is the caller's verification
  /// result (the receiver does not see payload bytes).
  Outcome OnFrame(const FrameHeader& h, bool crc_ok);

  /// Pre-check before the payload CRC: true (and counted) when the header
  /// alone shows the frame can only be dropped — a seq below expected in
  /// the peer's current epoch, or an older epoch. Such frames change no
  /// state whether or not their bytes are intact, so the caller skips the
  /// CRC pass and drops them; the drained batch's cumulative ACK still
  /// goes out. In-order, gap and newer-epoch frames return false and must
  /// be verified and classified by OnFrame.
  bool DropBeforeVerify(const FrameHeader& h);

  /// Highest in-order seq accepted from `sender` in its current epoch, for
  /// the coalesced per-drain cumulative ACK; false when nothing to ack yet.
  bool CumulativeAck(uint32_t sender, uint32_t* epoch, uint64_t* seq) const;

  const ReliableMetrics& metrics() const { return metrics_; }
  ReliableMetrics* mutable_metrics() { return &metrics_; }

 private:
  struct PeerState {
    uint32_t epoch = 0;
    uint64_t expected = 0;  ///< next seq to deliver
    /// NACK dedupe: one NACK per gap event, re-armed when expected moves.
    uint64_t last_nacked = UINT64_MAX;
  };

  std::unordered_map<uint32_t, PeerState> peers_;
  ReliableMetrics metrics_;
};

}  // namespace dcy::net
