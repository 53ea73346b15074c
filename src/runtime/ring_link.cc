#include "runtime/ring_link.h"

#include <cstring>

#include "bat/serialize.h"

namespace dcy::runtime {

namespace {

/// CRC of the fields' bytes. Header structs carry padding, and struct
/// assignment need not preserve padding bytes, so a CRC over the raw struct
/// would fail clean frames depending on what the copy left behind.
template <typename... T>
uint32_t FieldsCrc(const T&... fields) {
  unsigned char buf[(sizeof(T) + ...)];
  size_t off = 0;
  ((std::memcpy(buf + off, &fields, sizeof(fields)), off += sizeof(fields)), ...);
  return bat::Crc32(buf, off);
}

}  // namespace

uint32_t HeaderCrc(const net::RequestFrame& f) {
  return FieldsCrc(f.req.origin, f.req.bat_id);
}

uint32_t HeaderCrc(const net::DataFrame& f) {
  const core::BatHeader& h = f.bat;
  return FieldsCrc(h.owner, h.bat_id, h.bat_size, h.loi, h.copies, h.hops, h.cycles);
}

uint32_t HeaderCrc(const DeltaFrame& f) {
  return FieldsCrc(f.fragment, f.origin, f.version, f.hops);
}

RingPort::RingPort(core::NodeId id, rdma::TransferMode data_mode, uint64_t data_capacity,
                   rdma::FaultInjector* fault)
    // Requests and control messages are meta-only: default zero-copy channels.
    : data({data_mode, data_capacity}), request({}), ctrl({}) {
  data.SetFaultInjector(fault, id, rdma::kFaultChannelData);
  request.SetFaultInjector(fault, id, rdma::kFaultChannelRequest);
  ctrl.SetFaultInjector(fault, id, rdma::kFaultChannelCtrl);
}

void RingPort::Close() {
  data.Close();
  request.Close();
  ctrl.Close();
}

void RingPort::Reopen() {
  data.Reopen();
  request.Reopen();
  ctrl.Reopen();
}

RingLink::RingLink(core::NodeId self, Side side, core::NodeId peer,
                   const std::vector<RingPort*>* ports,
                   const net::ReliableOptions& options, uint64_t seed)
    : self_(self),
      side_(side),
      ports_(ports),
      out_channel_(side == kSuccessor ? net::kChData : net::kChRequest),
      in_channel_(side == kSuccessor ? net::kChRequest : net::kChData),
      peer_(peer) {
  out_.Init(self, out_channel_, options, seed);
}

void RingLink::Adopt(core::NodeId peer, SimTime now) {
  peer_.store(peer, std::memory_order_release);
  out_.Reset(now);
  last_heard_ = now;
}

rdma::Channel& RingLink::inbox() const {
  RingPort& own = *(*ports_)[self_];
  return side_ == kSuccessor ? own.request : own.data;
}

rdma::Channel& RingLink::Outbound() const {
  RingPort& to = *(*ports_)[peer()];
  return side_ == kSuccessor ? to.data : to.request;
}

bool RingLink::ValidEnvelope(const net::FrameHeader& h) {
  if (h.magic == net::kFrameMagic && h.sender < ports_->size() && h.sender != self_) {
    return true;
  }
  ++rx_.mutable_metrics()->frames_invalid;
  return false;
}

bool RingLink::Verify(const net::FrameHeader& h, uint32_t header_crc,
                      const rdma::Buffer& payload, uint32_t* payload_crc) {
  // Data frames always carry a payload, requests never do.
  const bool carries_payload = in_channel_ == net::kChData;
  const uint32_t body_crc =
      payload != nullptr ? bat::Crc32(payload->data(), payload->size()) : 0;
  const bool crc_ok = (payload != nullptr) == carries_payload &&
                      (header_crc ^ body_crc ^ net::EnvelopeCrc(h)) == h.payload_crc;
  const auto outcome = rx_.OnFrame(h, crc_ok);
  if (outcome.send_nack) {
    SendCtrl(h.sender, net::CtrlKind::kNack, in_channel_, outcome.nack_epoch,
             outcome.nack_seq);
  }
  if (outcome.verdict != net::ReliableReceiver::Verdict::kDeliver) return false;
  if (h.sender == peer()) last_heard_ = SteadyNowNs();
  *payload_crc = body_crc;
  return true;
}

void RingLink::AckDrained(const std::vector<rdma::Message>& batch) {
  uint32_t seen[2] = {core::kInvalidNode, core::kInvalidNode};
  size_t n = 0;
  for (const rdma::Message& m : batch) {
    if (m.meta.size() < sizeof(net::FrameHeader)) continue;
    const uint32_t s = m.meta.As<net::FrameHeader>().sender;
    if (s >= ports_->size()) continue;
    bool known = false;
    for (size_t i = 0; i < n; ++i) known = known || seen[i] == s;
    if (known) continue;
    if (n < 2) seen[n++] = s;
    uint32_t epoch = 0;
    uint64_t seq = 0;
    if (rx_.CumulativeAck(s, &epoch, &seq) &&
        SendCtrl(s, net::CtrlKind::kAck, in_channel_, epoch, seq)) {
      ++rx_.mutable_metrics()->acks_sent;
    }
  }
}

bool RingLink::AcceptCtrl(const rdma::Message& m, net::CtrlMsg* c) {
  if (m.meta.size() < sizeof(net::CtrlMsg)) return false;
  *c = m.meta.As<net::CtrlMsg>();
  if (c->magic != net::kFrameMagic || c->sender >= ports_->size()) return false;
  if (c->crc != net::CtrlCrc(*c)) {
    // A corrupted ACK could falsely retire un-delivered frames from the
    // sender's window; drop it and let a later cumulative ACK (or the
    // retransmit timer) carry the information instead.
    ++rx_.mutable_metrics()->frames_invalid;
    return false;
  }
  return true;
}

void RingLink::OnCtrl(const net::CtrlMsg& c, SimTime now) {
  switch (static_cast<net::CtrlKind>(c.kind)) {
    case net::CtrlKind::kAck:
      if (c.channel == out_channel_) out_.OnAck(c.epoch, c.seq, now);
      break;
    case net::CtrlKind::kNack:
      if (c.channel == out_channel_) out_.OnNack(c.epoch, c.seq, now);
      break;
    case net::CtrlKind::kHeartbeat:
      if (c.sender == peer()) last_heard_ = now;
      break;
  }
}

void RingLink::PumpRetransmits(SimTime now) {
  const size_t due = out_.CollectRetransmits(now);
  if (due == 0) return;
  rdma::Channel& to = Outbound();
  for (size_t i = 0; i < due; ++i) {
    const auto& s = out_.window()[i];
    to.Send(s.opcode, s.meta, s.payload, self_);
  }
}

void RingLink::SendHeartbeat() {
  SendCtrl(peer(), net::CtrlKind::kHeartbeat, net::kChCtrl, 0, 0);
}

bool RingLink::Silent(SimTime now, SimTime bound) {
  if (now - last_heard_ <= bound) return false;
  last_heard_ = now;  // one report per silence window, not a storm
  return true;
}

bool RingLink::SendCtrl(core::NodeId to, net::CtrlKind kind, uint32_t channel,
                        uint32_t epoch, uint64_t seq) {
  net::CtrlMsg c;
  c.sender = self_;
  c.channel = channel;
  c.kind = static_cast<uint32_t>(kind);
  c.epoch = epoch;
  c.seq = seq;
  c.crc = net::CtrlCrc(c);
  return (*ports_)[to]->ctrl.Send(kOpCtrl, rdma::MetaBlob::Of(c), nullptr, self_);
}

}  // namespace dcy::runtime
