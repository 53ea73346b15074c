#include "net/reliable.h"

#include <algorithm>

namespace dcy::net {

void ReliableSender::Track(uint32_t opcode, const rdma::MetaBlob& meta,
                           rdma::Buffer payload, uint64_t seq, SimTime now) {
  if (unacked_.size() >= opts_.max_unacked) {
    // Window full: the peer has not acknowledged anything for a long time.
    // Abandon and reset rather than grow without bound.
    Reset(now);
    return;
  }
  const bool was_empty = unacked_.empty();
  unacked_.push_back(Stored{opcode, meta, std::move(payload), seq, now});
  if (was_empty) {
    head_attempts_ = 0;
    nack_pending_ = false;  // a NACK of an emptied window is moot
    next_retx_ = now + RetxDelay();
  }
}

void ReliableSender::OnAck(uint32_t epoch, uint64_t seq, SimTime now) {
  if (epoch != epoch_) return;  // stale (pre-reset) acknowledgement
  bool advanced = false;
  SimTime sent_at = 0;
  bool ambiguous = false;
  while (!unacked_.empty() && unacked_.front().seq <= seq) {
    sent_at = unacked_.front().sent_at;
    ambiguous = unacked_.front().retransmitted;
    unacked_.pop_front();
    advanced = true;
  }
  if (advanced) {
    if (!ambiguous) {
      SampleRtt(now - sent_at);
      backoff_ = 0;  // Karn: only a valid sample ends the backoff
    }
    head_attempts_ = 0;
    next_retx_ = unacked_.empty() ? 0 : now + RetxDelay();
  }
}

void ReliableSender::OnNack(uint32_t epoch, uint64_t seq, SimTime now) {
  if (epoch != epoch_) return;
  while (!unacked_.empty() && unacked_.front().seq < seq) {
    unacked_.pop_front();  // implicitly acknowledged by the NACK point
    head_attempts_ = 0;
  }
  if (!unacked_.empty()) {
    next_retx_ = now;  // retransmit on the next pump
    nack_pending_ = true;
  }
}

size_t ReliableSender::CollectRetransmits(SimTime now) {
  if (unacked_.empty() || now < next_retx_) return 0;
  if (head_attempts_ + 1 >= opts_.max_attempts) {
    // The head frame is not getting through; go-back-N cannot skip it
    // without leaving the receiver gapped forever, so flap the whole link.
    Reset(now);
    return 0;
  }
  ++head_attempts_;
  ++backoff_;
  const size_t due = nack_pending_ ? unacked_.size() : 1;
  nack_pending_ = false;
  metrics_.retransmits += due;
  for (size_t i = 0; i < due; ++i) unacked_[i].retransmitted = true;
  next_retx_ = now + RetxDelay();
  return due;
}

void ReliableSender::Reset(SimTime now) {
  metrics_.frames_abandoned += unacked_.size();
  ++metrics_.link_resets;
  unacked_.clear();
  nack_pending_ = false;
  ++epoch_;
  next_seq_ = 0;
  head_attempts_ = 0;
  backoff_ = 0;
  next_retx_ = now;
}

void ReliableSender::SampleRtt(SimTime rtt) {
  if (!have_rtt_) {
    // RFC 6298 (2.2): the first measurement seeds both estimators.
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    have_rtt_ = true;
    return;
  }
  // RFC 6298 (2.3) with alpha = 1/8, beta = 1/4; rttvar uses the old srtt.
  const SimTime err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
  rttvar_ += (err - rttvar_) / 4;
  srtt_ += (rtt - srtt_) / 8;
}

SimTime ReliableSender::rto() const {
  const SimTime estimate = have_rtt_ ? srtt_ + 4 * rttvar_ : 0;
  return std::min(std::max(opts_.initial_backoff, estimate), opts_.max_backoff);
}

SimTime ReliableSender::RetxDelay() {
  SimTime base = rto();
  for (uint32_t i = 0; i < backoff_ && base < opts_.max_backoff; ++i) base *= 2;
  base = std::min(base, opts_.max_backoff);
  const double scale = 1.0 + opts_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  return std::max<SimTime>(1, static_cast<SimTime>(static_cast<double>(base) * scale));
}

ReliableReceiver::Outcome ReliableReceiver::OnFrame(const FrameHeader& h,
                                                    bool crc_ok) {
  Outcome out;
  if (h.magic != kFrameMagic || h.sender == core::kInvalidNode) {
    ++metrics_.frames_invalid;
    out.verdict = Verdict::kInvalid;
    return out;
  }
  PeerState& peer = peers_[h.sender];
  if (!crc_ok) {
    // Nothing in a corrupt frame can be trusted — its epoch/seq may be the
    // very bits that flipped — so classify before any state is adopted. The
    // NACK names what *we* expect in the epoch we believe in; if the frame
    // was genuinely from a newer epoch the retransmit timer re-delivers it
    // intact and the adoption happens then.
    ++metrics_.frames_corrupted;
    out.verdict = Verdict::kCorrupt;
    if (peer.last_nacked != peer.expected) {
      peer.last_nacked = peer.expected;
      out.send_nack = true;
      out.nack_seq = peer.expected;
      out.nack_epoch = peer.epoch;
      ++metrics_.nacks_sent;
    }
    return out;
  }
  if (h.epoch < peer.epoch) {
    ++metrics_.frames_stale;
    out.verdict = Verdict::kStale;
    return out;
  }
  if (h.epoch > peer.epoch) {
    // The sender reset (restart / re-splice / flap): adopt the new epoch.
    peer.epoch = h.epoch;
    peer.expected = 0;
    peer.last_nacked = UINT64_MAX;
  }
  if (h.seq < peer.expected) {
    ++metrics_.frames_duplicate;
    out.verdict = Verdict::kDuplicate;
    return out;
  }
  if (h.seq > peer.expected) {
    ++metrics_.frames_gap;
    out.verdict = Verdict::kGap;
    if (peer.last_nacked != peer.expected) {
      peer.last_nacked = peer.expected;
      out.send_nack = true;
      out.nack_seq = peer.expected;
      out.nack_epoch = peer.epoch;
      ++metrics_.nacks_sent;
    }
    return out;
  }
  ++peer.expected;
  peer.last_nacked = UINT64_MAX;  // progress re-arms the NACK dedupe
  out.verdict = Verdict::kDeliver;
  return out;
}

bool ReliableReceiver::DropBeforeVerify(const FrameHeader& h) {
  if (h.magic != kFrameMagic) return false;
  auto it = peers_.find(h.sender);
  if (it == peers_.end()) return false;
  const PeerState& peer = it->second;
  if (h.epoch < peer.epoch) {
    ++metrics_.frames_stale;
    return true;
  }
  if (h.epoch == peer.epoch && h.seq < peer.expected) {
    ++metrics_.frames_duplicate;
    return true;
  }
  return false;
}

bool ReliableReceiver::CumulativeAck(uint32_t sender, uint32_t* epoch,
                                     uint64_t* seq) const {
  auto it = peers_.find(sender);
  if (it == peers_.end() || it->second.expected == 0) return false;
  *epoch = it->second.epoch;
  *seq = it->second.expected - 1;
  return true;
}

}  // namespace dcy::net
