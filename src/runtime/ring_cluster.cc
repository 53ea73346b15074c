#include "runtime/ring_cluster.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <unordered_set>

#include "bat/serialize.h"
#include "common/logging.h"
#include "runtime/ring_link.h"
#include "sql/compiler.h"

namespace dcy::runtime {

namespace {

/// Longest a node's service thread sleeps when idle (reaction latency to
/// work posted from other threads).
constexpr SimTime kIdleWait = FromMicros(200);

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The "schema.table.column" contract of LoadBat: exactly three non-empty
/// dot-separated parts.
Status ValidateQualifiedName(const std::string& name) {
  const size_t d1 = name.find('.');
  const size_t d2 = d1 == std::string::npos ? std::string::npos : name.find('.', d1 + 1);
  const bool three_parts = d1 != std::string::npos && d2 != std::string::npos &&
                           name.find('.', d2 + 1) == std::string::npos;
  const bool nonempty = three_parts && d1 > 0 && d2 > d1 + 1 && d2 + 1 < name.size();
  if (!nonempty) {
    return Status::InvalidArgument("BAT name must be \"schema.table.column\", got \"" +
                                   name + "\"");
  }
  return Status::OK();
}

/// The per-node two-tier store configuration: the cluster-wide budget and
/// spill tunables, rooted in a per-node subdirectory of the spill root.
storage::FragmentStoreOptions NodeStoreOptions(const storage::FragmentStoreOptions& base,
                                               const std::string& spill_root,
                                               core::NodeId id) {
  storage::FragmentStoreOptions opts = base;
  opts.spill_dir =
      spill_root.empty() ? "" : spill_root + "/node" + std::to_string(id);
  return opts;
}

}  // namespace

// ===========================================================================
// Node
// ===========================================================================

class RingCluster::Node final : public core::DcEnv {
 public:
  /// One submission waiting in (or admitted from) the FIFO admission queue.
  struct QueuedQuery {
    std::shared_ptr<internal::QueryState> state;
    PreparedQueryPtr plan;
    SubmitOptions options;
  };

  Node(RingCluster* cluster, core::NodeId id)
      : cluster_(cluster),
        id_(id),
        store_(NodeStoreOptions(cluster->options_.memory, cluster->options_.spill_dir,
                                id)),
        loit_(cluster->options_.adaptive),
        // Hard backpressure at four times the logical BAT-queue capacity.
        port_(id, cluster->options_.mode, cluster->options_.bat_queue_capacity * 4,
              cluster->options_.fault),
        links_{{MakeLink(cluster, id, RingLink::kSuccessor),
                MakeLink(cluster, id, RingLink::kPredecessor)}} {
    dc_ = std::make_unique<core::DcNode>(ProtocolOptions(), this, &loit_);
  }

  // ---- wiring ---------------------------------------------------------------

  core::NodeId id() const { return id_; }
  RingPort* port() { return &port_; }

  /// Ring re-splice, posted onto the service thread: the `side` link is
  /// rewired to `peer` on a fresh epoch (see RingLink::Adopt).
  void Adopt(RingLink::Side side, core::NodeId peer) {
    Post([this, side, peer] { links_[side].Adopt(peer, SteadyNowNs()); });
  }

  storage::FragmentStore& store() { return store_; }
  core::DcNode& dc() { return *dc_; }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Service-thread-owned reliability + hop counters, summed. Call via
  /// PostSync (or any serialized context on a crashed node).
  void SnapshotResilience(RingCluster::ResilienceMetrics* out) const {
    for (const RingLink& link : links_) {
      for (const net::ReliableMetrics* m :
           {&link.sender().metrics(), &link.receiver().metrics()}) {
        out->retransmits += m->retransmits;
        out->frames_abandoned += m->frames_abandoned;
        out->link_resets += m->link_resets;
        out->frames_corrupted += m->frames_corrupted;
        out->frames_duplicate += m->frames_duplicate;
        out->frames_gap += m->frames_gap;
        out->frames_stale += m->frames_stale;
        out->frames_invalid += m->frames_invalid;
        out->nacks_sent += m->nacks_sent;
        out->acks_sent += m->acks_sent;
      }
    }
    out->heartbeats_sent += hop_.heartbeats_sent;
    out->heartbeats_received += hop_.heartbeats_received;
    out->heartbeats_missed += hop_.heartbeats_missed;
    out->forwards_without_payload += hop_.forwards_without_payload;
    out->orphan_frames_dropped += hop_.orphan_frames_dropped;
    out->frames_adopted += hop_.frames_adopted;
    out->decode_failures += hop_.decode_failures;
  }

  /// Service-thread-owned wire-compression counters, summed. Call via
  /// PostSync (or any serialized context on a crashed node).
  void SnapshotBandwidth(RingCluster::BandwidthMetrics* out) const {
    out->frames_encoded += wire_.frames_encoded;
    out->raw_bytes += wire_.raw_bytes;
    out->wire_bytes += wire_.wire_bytes;
    out->hops += wire_.hops;
    out->hop_bytes += wire_.hop_bytes;
    out->dict_columns += wire_.dict_columns;
    out->for_columns += wire_.for_columns;
    out->plain_columns += wire_.plain_columns;
  }

  // ---- lifecycle -------------------------------------------------------------

  void Start() {
    stop_.store(false);
    service_ = std::thread([this] { ServiceLoop(); });
    // The query-runner pool: exactly C threads, created once per Start, so
    // at most C queries of this node execute concurrently however large the
    // submission burst (the rest wait in the FIFO). `accepting_` gates
    // EnqueueQuery so concurrent submits never touch the runners_ vector
    // while it is being populated; early submissions simply queue until the
    // runners come up.
    const uint32_t c = std::max<uint32_t>(1, cluster_->options_.admission.max_concurrent);
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      runners_stop_ = false;
      accepting_ = true;
    }
    runners_.reserve(c);
    for (uint32_t i = 0; i < c; ++i) {
      runners_.emplace_back([this] { QueryRunnerLoop(); });
    }
  }

  /// Cancels running queries, fails queued ones, joins the runner pool.
  /// Must run while the service thread is still alive (running queries
  /// unwind through Unpin posts to it). `error` is the terminal status of
  /// everything abandoned: Aborted on shutdown, Unavailable on crash.
  void StopRunners(const Status& error) {
    std::deque<QueuedQuery> abandoned;
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      runners_stop_ = true;
      accepting_ = false;
      abandoned.swap(admission_queue_);
      admission_.queued = 0;
      // Abandoned entries are terminal: keep the counters balanced
      // (submitted == completed + rejected over the node's lifetime).
      admission_.completed += abandoned.size();
      admission_.cancelled_queued += abandoned.size();
      for (const auto& state : running_states_) state->cancel.Cancel();
    }
    admission_cv_.notify_all();
    // Wake every pin blocked on the ring; the woken sessions observe the
    // cancel flag set above.
    AbortAllWaiters(error);
    for (auto& t : runners_) {
      if (t.joinable()) t.join();
    }
    runners_.clear();
    for (auto& item : abandoned) {
      item.state->Finish(error);
    }
  }

  void Stop() {
    stop_.store(true);
    port_.Close();
    mailbox_cv_.notify_all();
    if (service_.joinable()) service_.join();
  }

  /// Abrupt node death (fault injection): queries on this node fail with
  /// Unavailable, the channels close, the service thread exits. The node
  /// object stays around for Restart(); holders of Post/PostSync keep
  /// working (tasks run inline, serialized) so no caller can hang on a
  /// corpse.
  void Crash() {
    StopRunners(Status::Unavailable("node " + std::to_string(id_) + " crashed"));
    // The crash loses RAM but not the disk tier: the store forgets every
    // frame while the spill files survive for RestartNode's recovery scan.
    store_.ForgetAllForCrash();
    std::lock_guard<std::mutex> dead(dead_exec_mu_);
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      crashed_.store(true, std::memory_order_release);
    }
    Stop();
    // Run what the service thread left behind: posted tasks may carry
    // PostSync promises whose callers would otherwise block forever.
    std::deque<std::function<void()>> leftover;
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      leftover.swap(mailbox_);
    }
    for (auto& task : leftover) task();
  }

  /// Re-admission after Crash(): a restarted node comes back amnesiac — a
  /// fresh protocol state machine, reopened channels, reset senders (new
  /// epochs) — wired between `successor` and `predecessor`.
  void Restart(core::NodeId successor, core::NodeId predecessor) {
    std::lock_guard<std::mutex> dead(dead_exec_mu_);
    dc_ = std::make_unique<core::DcNode>(ProtocolOptions(), this, &loit_);
    decoded_.clear();
    decoded_in_store_.clear();
    decode_rejected_.clear();
    delta_cache_.clear();
    current_payload_ = nullptr;
    current_payload_crc_ = 0;
    port_.Reopen();
    const SimTime now = SteadyNowNs();
    links_[RingLink::kSuccessor].Adopt(successor, now);
    links_[RingLink::kPredecessor].Adopt(predecessor, now);
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      mailbox_.clear();
      crashed_.store(false, std::memory_order_release);
    }
    Start();
  }

  /// Runs `task` on the service thread (the only thread touching dc_). On a
  /// crashed node the task runs inline instead, serialized by dead_exec_mu_
  /// (the service thread is gone, so this is the single-writer substitute).
  void Post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      if (!crashed_.load(std::memory_order_acquire)) {
        mailbox_.push_back(std::move(task));
        mailbox_cv_.notify_one();
        return;
      }
    }
    std::lock_guard<std::mutex> dead(dead_exec_mu_);
    task();
  }

  /// Posts `task` and waits for it to finish.
  void PostSync(std::function<void()> task) {
    std::promise<void> done;
    Post([&task, &done] {
      task();
      done.set_value();
    });
    done.get_future().wait();
  }

  // ---- query admission ------------------------------------------------------

  Status EnqueueQuery(QueuedQuery item) {
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      if (!accepting_ || runners_stop_) {
        if (crashed()) {
          return Status::Unavailable("node " + std::to_string(id_) + " is down");
        }
        return Status::FailedPrecondition("node " + std::to_string(id_) +
                                          " is not accepting queries");
      }
      if (cluster_->degraded() &&
          admission_queue_.size() >= cluster_->options_.admission.degraded_max_queued) {
        // A recovering ring gets breathing room: shed queue growth early
        // with a retryable status instead of piling work behind it.
        ++admission_.shed_degraded;
        return Status::Unavailable("ring degraded: load shed on node " +
                                   std::to_string(id_));
      }
      if (store_.UnderPressure() &&
          admission_queue_.size() >= cluster_->options_.admission.degraded_max_queued) {
        // Same graceful degradation under memory pressure: spill I/O is not
        // keeping up with the resident set, so new work is shed retryable
        // at the degraded bound instead of deepening the overhang.
        store_.NotePressureShed();
        return Status::Unavailable("memory pressure: load shed on node " +
                                   std::to_string(id_));
      }
      if (admission_queue_.size() >= cluster_->options_.admission.max_queued) {
        ++admission_.rejected;
        return Status::ResourceExhausted(
            "admission queue full on node " + std::to_string(id_) + ": " +
            std::to_string(admission_queue_.size()) + " queued, limit " +
            std::to_string(cluster_->options_.admission.max_queued));
      }
      admission_queue_.push_back(std::move(item));
      ++admission_.submitted;
      admission_.queued = static_cast<uint32_t>(admission_queue_.size());
      admission_.peak_queued = std::max(admission_.peak_queued, admission_.queued);
    }
    admission_cv_.notify_one();
    return Status::OK();
  }

  core::AdmissionMetrics admission_metrics() const {
    std::lock_guard<std::mutex> lock(admission_mu_);
    return admission_;
  }

  /// Fails queued queries whose token tripped (cancel or deadline) without
  /// waiting for a runner slot: with every slot occupied by long queries, a
  /// queued submission would otherwise outlive its own deadline unnoticed.
  /// Runs on the service thread's maintenance tick.
  void SweepAdmissionQueue() {
    std::vector<std::pair<QueuedQuery, Status>> expired;
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      for (auto it = admission_queue_.begin(); it != admission_queue_.end();) {
        Status live = it->state->cancel.CheckLive();
        if (live.ok()) {
          ++it;
          continue;
        }
        if (live.code() == StatusCode::kAborted) ++admission_.cancelled_queued;
        if (live.code() == StatusCode::kTimedOut) ++admission_.timed_out_queued;
        ++admission_.completed;
        expired.emplace_back(std::move(*it), std::move(live));
        it = admission_queue_.erase(it);
      }
      admission_.queued = static_cast<uint32_t>(admission_queue_.size());
    }
    for (auto& [item, status] : expired) item.state->Finish(status);
  }

  // ---- query-session support ---------------------------------------------------

  /// Registers a waiter resolved by DeliverToQuery/FailQuery.
  std::future<Result<bat::BatPtr>> AddWaiter(core::QueryId q, core::BatId b) {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    auto& p = waiters_[{q, b}];
    return p.get_future();
  }

  /// Drops a waiter that was satisfied through the immediate path.
  void RemoveWaiter(core::QueryId q, core::BatId b) {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    waiters_.erase({q, b});
  }

  /// Thread-safe resolution of one waiter (delivery, failure, cancel or
  /// deadline); a no-op if it was already resolved — whichever side erases
  /// the entry first wins.
  void ResolveWaiter(core::QueryId query, core::BatId bat, Result<bat::BatPtr> value) {
    std::promise<Result<bat::BatPtr>> promise;
    {
      std::lock_guard<std::mutex> lock(waiters_mu_);
      auto it = waiters_.find({query, bat});
      if (it == waiters_.end()) return;  // nobody waiting (local pin path)
      promise = std::move(it->second);
      waiters_.erase(it);
    }
    promise.set_value(std::move(value));
  }

  /// Fails every outstanding waiter of `query` (cooperative Cancel()).
  void AbortQueryWaiters(core::QueryId query) {
    std::vector<std::promise<Result<bat::BatPtr>>> taken;
    {
      std::lock_guard<std::mutex> lock(waiters_mu_);
      auto it = waiters_.lower_bound({query, 0});
      while (it != waiters_.end() && it->first.first == query) {
        taken.push_back(std::move(it->second));
        it = waiters_.erase(it);
      }
    }
    for (auto& p : taken) p.set_value(Status::Aborted("query cancelled"));
  }

  /// Fails every outstanding waiter (cluster shutdown).
  void AbortAllWaiters(const Status& error) {
    std::map<std::pair<core::QueryId, core::BatId>, std::promise<Result<bat::BatPtr>>>
        taken;
    {
      std::lock_guard<std::mutex> lock(waiters_mu_);
      taken.swap(waiters_);
    }
    for (auto& [_, p] : taken) p.set_value(error);
  }

  // ---- DcEnv (service thread only) ----------------------------------------------

  SimTime Now() override { return SteadyNowNs(); }

  void SendRequestMsg(const core::RequestMsg& msg) override {
    // Requests travel anti-clockwise.
    net::RequestFrame rf;
    rf.req = msg;
    links_[RingLink::kPredecessor].Send(kOpRequest, rf, nullptr, 0);
  }

  void SendBatMsg(const core::BatHeader& header, bool is_load) override {
    rdma::Buffer payload;
    uint32_t payload_crc = 0;
    if (is_load) {
      auto b = store_.GetById(header.bat_id);
      if (!b.ok() && (b.status().code() == StatusCode::kCorruption ||
                      b.status().code() == StatusCode::kNotFound)) {
        // Corruption: the spilled image of an owned fragment rotted on disk
        // and the store already deleted it. NotFound: this node became the
        // owner through a re-homing while its only registered copy was a
        // transient decoded-cache entry that the cache upkeep has since
        // dropped. Either way the cluster registry still holds the durable
        // payload — re-materialize from it and retry once.
        if (cluster_->RefetchFragment(header.bat_id, this).ok()) {
          b = store_.GetById(header.bat_id);
        }
      }
      if (!b.ok()) {
        DCY_LOG(kError) << "node " << id_ << " cannot load BAT " << header.bat_id << ": "
                        << b.status().ToString();
        return;
      }
      // Serialize into a pooled frame: the frame circulates the ring
      // zero-copy and returns to this pool when the last hop releases it.
      // FrameEncoder plans per-column codecs once for both the size and
      // the encode, and reports what compression bought this frame.
      const bat::FrameEncoder enc(**b);
      auto frame = frame_pool_.Acquire(enc.encoded_size());
      enc.SerializeInto(frame.get());
      const bat::CodecStats& cs = enc.stats();
      ++wire_.frames_encoded;
      wire_.raw_bytes += cs.raw_bytes;
      wire_.wire_bytes += cs.wire_bytes;
      wire_.dict_columns += cs.dict_columns;
      wire_.for_columns += cs.for_columns;
      wire_.plain_columns += cs.plain_columns;
      // The frame ends in its own CRC footer, so its whole-frame CRC is
      // the fixed residue: no second pass over the payload.
      payload_crc = bat::kFrameCrcResidue;
      payload = std::move(frame);
    } else {
      payload = current_payload_;
      if (payload == nullptr) {
        // A protocol state forced a forward with no frame in hand (e.g. a
        // duplicate delivery already consumed it). Dropping the forward is
        // recoverable — the owner's lost-BAT timer reloads it — where the
        // old DCY_CHECK here took the whole process down.
        ++hop_.forwards_without_payload;
        DCY_LOG(kWarn) << "node " << id_ << " cannot forward BAT " << header.bat_id
                       << " without payload; leaving recovery to the owner";
        return;
      }
      payload_crc = current_payload_crc_;
    }
    ++wire_.hops;
    wire_.hop_bytes += payload->size();
    net::DataFrame df;
    df.bat = header;
    links_[RingLink::kSuccessor].Send(kOpBat, df, std::move(payload), payload_crc);
  }

  void DeliverToQuery(core::QueryId query, core::BatId bat) override {
    Result<bat::BatPtr> value = [&]() -> Result<bat::BatPtr> {
      auto it = decoded_.find(bat);
      if (it != decoded_.end()) return it->second;
      // A delivery the store refused to cache (budget): fail the pin with
      // the typed backpressure recorded at decode time — retryable, so the
      // session layer resubmits instead of hanging on a frame that cannot
      // be kept.
      auto rej = decode_rejected_.find(bat);
      if (rej != decode_rejected_.end()) {
        Status refused = rej->second;
        decode_rejected_.erase(rej);
        return refused;
      }
      auto resident = store_.GetResident(bat);
      if (resident.ok()) return resident;
      return Status::NotFound("decoded BAT " + std::to_string(bat) + " missing");
    }();
    ResolveWaiter(query, bat, std::move(value));
  }

  void FailQuery(core::QueryId query, core::BatId bat) override {
    ResolveWaiter(query, bat, cluster_->FragmentFailureStatus(bat));
  }

  uint64_t BatQueueLoadBytes() override {
    return links_[RingLink::kSuccessor].OutboundQueuedBytes();
  }

  uint64_t BatQueueCapacityBytes() override { return cluster_->options_.bat_queue_capacity; }

  /// Decoded-BAT cache upkeep: drop entries the protocol cache released,
  /// returning their budget charge to the store.
  void TrimDecoded() {
    for (auto it = decoded_.begin(); it != decoded_.end();) {
      if (!dc_->cache().Contains(it->first)) {
        if (decoded_in_store_.erase(it->first) > 0) {
          store_.Unpin(it->first);
          store_.Drop(it->first);
        }
        it = decoded_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = decode_rejected_.begin(); it != decode_rejected_.end();) {
      if (!dc_->pins().HasBlocked(it->first)) {
        it = decode_rejected_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Pin via the two-tier store with fault-in, retrying once through a ring
  /// re-fetch when the spill image turned out corrupt. Runs on a query
  /// runner thread (never the service thread) — the disk read may block.
  Result<bat::BatPtr> PinStored(core::BatId bat,
                                std::chrono::steady_clock::time_point deadline) {
    auto pinned = store_.Pin(bat, deadline);
    if (pinned.ok() || pinned.status().code() != StatusCode::kCorruption) {
      return pinned;
    }
    DCY_LOG(kWarn) << "node " << id_ << ": " << pinned.status().message();
    DCY_RETURN_NOT_OK(cluster_->RefetchFragment(bat, this));
    return store_.Pin(bat, deadline);
  }

  /// Launches one committed delta onto the ring. Runs on a query-runner
  /// thread: the serialization happens here (pooled frame, shared by every
  /// hop zero-copy), only the send is posted to the service thread.
  void PublishDelta(const write::DeltaPtr& d) {
    auto frame = frame_pool_.Acquire(write::EncodedDeltaSize(*d));
    write::SerializeDeltaInto(*d, frame.get());
    rdma::Buffer payload = std::move(frame);
    DeltaFrame df;
    df.fragment = d->fragment;
    df.origin = id_;
    df.version = d->version;
    // A delta frame ends in its own CRC too: stamp the residue.
    Post([this, df, payload = std::move(payload)] {
      links_[RingLink::kSuccessor].Send(kOpDelta, df, payload, bat::kFrameCrcResidue);
    });
  }

 private:
  /// The dispatch of every inbound frame: the link's Accept verifies it,
  /// the protocol sees only what passed.
  void HandleFrame(RingLink& link, const rdma::Message& m) {
    uint32_t crc = 0;
    if (m.opcode == kOpRequest) {
      net::RequestFrame rf;
      if (link.Accept(m, &rf, &crc)) dc_->OnRequestMsg(rf.req);
    } else if (m.opcode == kOpBat) {
      net::DataFrame df;
      if (link.Accept(m, &df, &crc)) OnBatFrame(df.bat, m.payload, crc);
    } else if (m.opcode == kOpDelta) {
      DeltaFrame df;
      if (link.Accept(m, &df, &crc)) OnDeltaFrame(df, m.payload, crc);
    }
  }

  void HandleCtrl(const rdma::Message& m) {
    net::CtrlMsg c;
    if (!links_[RingLink::kPredecessor].AcceptCtrl(m, &c)) return;
    if (c.kind == static_cast<uint32_t>(net::CtrlKind::kHeartbeat)) {
      ++hop_.heartbeats_received;
    }
    const SimTime now = SteadyNowNs();
    for (RingLink& link : links_) link.OnCtrl(c, now);
  }

  /// The one orphan bound of BAT and delta frames: a frame whose owner (or
  /// origin) died circulates until adopted or back home; past one full lap
  /// plus slack for in-flight duplicates it is dropped on receipt.
  bool Orphaned(uint32_t hops) {
    if (hops <= 2 * cluster_->options_.num_nodes + 4) return false;
    ++hop_.orphan_frames_dropped;
    return true;
  }

  void OnBatFrame(core::BatHeader header, const rdma::Buffer& payload,
                  uint32_t payload_crc) {
    if (!cluster_->IsNodeAlive(header.owner)) {
      if (dc_->owned().Find(header.bat_id) != nullptr) {
        // This node inherited the fragment (re-homing): take ownership of
        // the circulating frame too, so hot-set accounting has an owner.
        header.owner = id_;
        ++hop_.frames_adopted;
      } else if (Orphaned(header.hops)) {
        return;  // a dead owner and no heir: nobody would retire it
      }
    }

    current_payload_ = payload;
    current_payload_crc_ = payload_crc;
    // Decode up front if local queries are blocked on it (delivery needs the
    // typed BAT) — cheap check, decode once.
    if (dc_->pins().HasBlocked(header.bat_id) && decoded_.count(header.bat_id) == 0) {
      auto decoded = bat::Deserialize(*payload);
      if (decoded.ok()) {
        // The decoded payload charges the memory budget like any other
        // resident fragment: admit it as a non-durable (droppable) frame,
        // pinned until the protocol cache releases it. Over budget, the
        // typed refusal is delivered to the blocked pin instead of the data
        // (retryable backpressure, never an unaccounted allocation).
        Status admitted = store_.Admit(header.bat_id, "", *decoded,
                                       /*durable=*/false, /*initial_pins=*/1);
        if (admitted.ok()) {
          decoded_[header.bat_id] = *decoded;
          decoded_in_store_.insert(header.bat_id);
        } else if (admitted.code() == StatusCode::kAlreadyExists) {
          decoded_[header.bat_id] = *decoded;
        } else {
          decode_rejected_[header.bat_id] = admitted;
        }
      } else {
        ++hop_.decode_failures;  // hop CRC passed but the encoding is bad
      }
    }
    dc_->OnBatMsg(header);
    store_.NoteRingLoi(header.bat_id, header.loi);
    current_payload_ = nullptr;
    current_payload_crc_ = 0;
    TrimDecoded();
  }

  void OnDeltaFrame(DeltaFrame df, const rdma::Buffer& payload, uint32_t payload_crc) {
    // Full lap: the origin already holds the commit in the write log.
    if (df.origin == id_ || Orphaned(df.hops)) return;
    write::WriteLog& log = cluster_->write_log_;
    // Stale: the compactor folded this version into a base already.
    if (df.version <= log.BaseVersionOf(df.fragment)) return;
    auto decoded = write::DeserializeDelta(*payload);
    if (!decoded.ok()) {
      // Hop CRC passed but the delta encoding itself is bad (corrupted at
      // the source): count it, never apply garbage.
      ++hop_.decode_failures;
      log.NoteDeltaDecodeFailure();
      return;
    }
    delta_cache_[df.fragment].push_back(std::move(decoded).value());
    // Forward until every node held a copy: circulation ends back at the
    // origin, the orphan bound reaps frames whose origin died.
    ++df.hops;
    links_[RingLink::kSuccessor].Send(kOpDelta, df, payload, payload_crc);
    log.NoteDeltaForwarded(payload->size());
  }

  /// Drops cached delta copies the compactor has folded into new bases
  /// (their versions are <= the fragment's base version). Maintenance tick.
  void TrimDeltaCache() {
    for (auto it = delta_cache_.begin(); it != delta_cache_.end();) {
      const uint64_t base = cluster_->write_log_.BaseVersionOf(it->first);
      auto& deltas = it->second;
      deltas.erase(std::remove_if(deltas.begin(), deltas.end(),
                                  [base](const write::DeltaPtr& d) {
                                    return d->version <= base;
                                  }),
                   deltas.end());
      it = deltas.empty() ? delta_cache_.erase(it) : std::next(it);
    }
  }

  /// Heartbeats each distinct neighbour and reports one that has been
  /// silent for too long to the membership oracle.
  void Heartbeat(SimTime now) {
    const auto& res = cluster_->options_.resilience;
    const SimTime silence_bound = res.heartbeat_miss_threshold * res.heartbeat_period;
    const core::NodeId succ = links_[RingLink::kSuccessor].peer();
    for (RingLink& link : links_) {
      // A two-node ring has one neighbour on both sides, a lone survivor none.
      const core::NodeId peer = link.peer();
      const bool pred = &link == &links_[RingLink::kPredecessor];
      if (peer == id_ || (pred && peer == succ)) continue;
      link.SendHeartbeat();
      ++hop_.heartbeats_sent;
      if (link.Silent(now, silence_bound)) {
        ++hop_.heartbeats_missed;
        cluster_->ReportSuspect(id_, peer);
      }
    }
  }

  void ServiceLoop() {
    const auto& node_opts = dc_->options();
    const auto& res = cluster_->options_.resilience;
    SimTime next_load_all = SteadyNowNs() + node_opts.load_all_period;
    SimTime next_maintenance = SteadyNowNs() + node_opts.maintenance_period;
    SimTime next_adapt = SteadyNowNs() + node_opts.adapt_period;
    SimTime next_heartbeat = SteadyNowNs() + res.heartbeat_period;
    for (RingLink& link : links_) link.RestartSilenceClock(SteadyNowNs());

    while (!stop_.load(std::memory_order_relaxed)) {
      bool did_work = false;

      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(mailbox_mu_);
        if (!mailbox_.empty()) {
          task = std::move(mailbox_.front());
          mailbox_.pop_front();
        }
      }
      if (task) {
        task();
        did_work = true;
      }

      // Drain whole backlogs in one lock acquisition per link (requests
      // from the successor, then data from the predecessor): at high
      // message rates a rotation delivers bursts, and per-message locking
      // was the dominant hop cost.
      for (RingLink& link : links_) {
        drain_.clear();
        if (link.inbox().TryReceiveAll(&drain_) == 0) continue;
        for (const rdma::Message& m : drain_) HandleFrame(link, m);
        link.AckDrained(drain_);
        did_work = true;
      }
      drain_.clear();  // release payload references promptly

      // Control right before the pump: ACKs that arrived while this loop
      // drained its own data must retire frames before their timers are
      // judged, or a merely slow peer gets its whole window re-sent.
      if (port_.ctrl.TryReceiveAll(&drain_) > 0) {
        for (const rdma::Message& m : drain_) HandleCtrl(m);
        did_work = true;
      }

      const SimTime now = SteadyNowNs();
      for (RingLink& link : links_) link.PumpRetransmits(now);
      if (res.enable_heartbeats && now >= next_heartbeat) {
        Heartbeat(now);
        next_heartbeat = now + res.heartbeat_period;
        did_work = true;
      }
      if (now >= next_load_all) {
        dc_->OnLoadAllTimer();
        next_load_all = now + node_opts.load_all_period;
        did_work = true;
      }
      if (now >= next_maintenance) {
        dc_->OnMaintenanceTimer();
        SweepAdmissionQueue();
        TrimDeltaCache();
        next_maintenance = now + node_opts.maintenance_period;
        did_work = true;
      }
      if (now >= next_adapt) {
        dc_->OnAdaptTimer();
        next_adapt = now + node_opts.adapt_period;
        did_work = true;
      }

      if (!did_work) {
        std::unique_lock<std::mutex> lock(mailbox_mu_);
        mailbox_cv_.wait_for(lock, std::chrono::nanoseconds(kIdleWait));
      }
    }
  }

  /// One admission slot: dequeues FIFO, executes (or fails a query whose
  /// token tripped while it waited), publishes the terminal outcome.
  void QueryRunnerLoop() {
    for (;;) {
      QueuedQuery item;
      uint64_t seq = 0;
      {
        std::unique_lock<std::mutex> lock(admission_mu_);
        admission_cv_.wait(lock,
                           [this] { return runners_stop_ || !admission_queue_.empty(); });
        if (admission_queue_.empty()) {
          if (runners_stop_) return;
          continue;  // spurious wake
        }
        item = std::move(admission_queue_.front());
        admission_queue_.pop_front();
        admission_.queued = static_cast<uint32_t>(admission_queue_.size());
        ++admission_.running;
        admission_.peak_running = std::max(admission_.peak_running, admission_.running);
        ++admission_.admitted;
        seq = next_admitted_seq_++;
        running_states_.insert(item.state);
      }

      const auto admitted_at = std::chrono::steady_clock::now();
      const Status live = item.state->cancel.CheckLive();
      Result<QueryResult> outcome = live.ok()
          ? cluster_->RunQuery(this, *item.plan, item.state.get(), item.options)
          : Result<QueryResult>(live);
      if (outcome.ok()) {
        QueryResult& qr = outcome.value();
        qr.admitted_seq = seq;
        qr.timing.queued_seconds =
            std::chrono::duration<double>(admitted_at - item.state->submitted_at).count();
        qr.timing.wall_seconds = SecondsSince(item.state->submitted_at);
      }

      {
        std::lock_guard<std::mutex> lock(admission_mu_);
        running_states_.erase(item.state);
        --admission_.running;
        ++admission_.completed;
        if (!live.ok()) {
          if (live.code() == StatusCode::kAborted) ++admission_.cancelled_queued;
          if (live.code() == StatusCode::kTimedOut) ++admission_.timed_out_queued;
        }
      }
      item.state->Finish(std::move(outcome));
    }
  }

  /// A link wired to the neighbour on `side` in the original ring order.
  static RingLink MakeLink(RingCluster* cluster, core::NodeId id, RingLink::Side side) {
    const Options& opts = cluster->options_;
    const uint32_t step = side == RingLink::kSuccessor ? 1 : opts.num_nodes - 1;
    return RingLink(id, side, (id + step) % opts.num_nodes, &cluster->ports_,
                    opts.resilience.link, opts.resilience.seed);
  }

  /// The per-node protocol options: the cluster's, with this node's place.
  core::DcNodeOptions ProtocolOptions() const {
    core::DcNodeOptions opts = cluster_->options_.node;
    opts.node_id = id_;
    opts.ring_size = cluster_->options_.num_nodes;
    return opts;
  }

  RingCluster* cluster_;
  core::NodeId id_;
  storage::FragmentStore store_;
  core::AdaptiveLoit loit_;  ///< §5.2: the LOIT follows the BAT-queue load
  std::unique_ptr<core::DcNode> dc_;

  // Hop transport (service-thread state; read via PostSync snapshots).
  RingPort port_;
  std::array<RingLink, 2> links_;  ///< indexed by RingLink::Side
  ResilienceMetrics hop_;  ///< liveness and degradation counters of this node
  BandwidthMetrics wire_;  // serialize/send-path compression counters

  std::atomic<bool> crashed_{false};
  /// Serializes inline task execution while the node is crashed (the
  /// substitute for the dead service thread's single-writer discipline).
  std::mutex dead_exec_mu_;

  std::thread service_;
  std::atomic<bool> stop_{false};
  std::mutex mailbox_mu_;
  std::condition_variable mailbox_cv_;
  std::deque<std::function<void()>> mailbox_;

  // Admission queue + runner pool (guarded by admission_mu_).
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  std::deque<QueuedQuery> admission_queue_;
  std::set<std::shared_ptr<internal::QueryState>> running_states_;
  core::AdmissionMetrics admission_;
  uint64_t next_admitted_seq_ = 0;
  bool accepting_ = false;  ///< Start() flips it on, StopRunners() off
  bool runners_stop_ = false;
  std::vector<std::thread> runners_;

  rdma::Buffer current_payload_;
  /// Payload-only CRC of current_payload_, forwarded hop to hop so a
  /// forward never rescans the payload on the send path.
  uint32_t current_payload_crc_ = 0;
  rdma::BufferPool frame_pool_;  ///< serialization frames for owned loads
  std::vector<rdma::Message> drain_;  ///< service-loop batch receive scratch
  std::unordered_map<core::BatId, bat::BatPtr> decoded_;
  /// Decoded frames charged to the store (one pin each until TrimDecoded).
  std::unordered_set<core::BatId> decoded_in_store_;
  /// Deliveries the store refused under budget; consumed by DeliverToQuery.
  std::unordered_map<core::BatId, Status> decode_rejected_;
  /// Delta copies received from ring circulation, per fragment (service
  /// thread only); trimmed once the compactor folds past their versions.
  std::unordered_map<core::BatId, std::vector<write::DeltaPtr>> delta_cache_;

  std::mutex waiters_mu_;
  std::map<std::pair<core::QueryId, core::BatId>, std::promise<Result<bat::BatPtr>>>
      waiters_;
};

// ===========================================================================
// Session hooks: the datacyclotron.* builtins of one query execution.
// ===========================================================================

namespace {

class SessionHooks final : public mal::DcHooks {
 public:
  SessionHooks(RingCluster* cluster, RingCluster::Node* node, core::QueryId query,
               const mal::CancelToken* cancel, uint64_t snapshot)
      : cluster_(cluster), node_(node), query_(query), cancel_(cancel),
        snapshot_(snapshot) {}

  ~SessionHooks() override {
    // Release everything the plan failed to unpin (aborted / cancelled /
    // timed-out executions): delivered pins drop their cache reference and
    // bare requests retire their S2 entry, so a dead query leaks neither
    // memory nor fragment requests that would keep BATs hot.
    for (const core::BatId bat : requested_) {
      node_->Post([node = node_, q = query_, bat] { node->dc().Unpin(q, bat); });
    }
    // Buffer-frame pins likewise: a leaked pin would make the frame
    // unevictable forever.
    for (const auto& [bat, count] : store_pins_) {
      for (uint32_t i = 0; i < count; ++i) node_->store().Unpin(bat);
    }
  }

  /// Summed wall time the plan's pins spent blocked on the ring.
  double blocked_seconds() const {
    return static_cast<double>(blocked_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

  Result<mal::RequestHandle> Request(const std::string& schema, const std::string& table,
                                     const std::string& column, int64_t) override {
    const std::string name = schema + "." + table + "." + column;
    DCY_ASSIGN_OR_RETURN(core::BatId bat, cluster_->FindFragment(name));
    {
      std::lock_guard<std::mutex> lock(mu_);
      requested_.insert(bat);
    }
    node_->Post([node = node_, q = query_, bat] { node->dc().Request(q, bat); });
    return mal::RequestHandle{bat};
  }

  Result<bat::BatPtr> Pin(const mal::RequestHandle& handle) override {
    const core::BatId bat = handle.bat;
    if (cancel_ != nullptr) DCY_RETURN_NOT_OK(cancel_->CheckLive());
    {
      // Defensive pin-without-request still owes an unpin at teardown.
      std::lock_guard<std::mutex> lock(mu_);
      requested_.insert(bat);
    }
    // Register the waiter *before* pinning so a delivery racing the pin
    // cannot be missed.
    auto future = node_->AddWaiter(query_, bat);
    std::promise<Result<bat::BatPtr>> immediate;
    auto immediate_future = immediate.get_future();
    bool fault_in = false;
    node_->PostSync([&, this] {
      if (node_->dc().Pin(query_, bat)) {
        // Available now: owned locally or cached. TryPinResident never does
        // I/O — the service thread must not block on a disk read.
        auto local = node_->store().TryPinResident(bat);
        if (local.ok()) {
          NoteStorePin(bat);
          immediate.set_value(*local);
          return;
        }
        if (local.status().code() == StatusCode::kFailedPrecondition) {
          // Spilled: fault it in from the disk tier on this runner thread
          // (the whole pin instruction already runs under a BlockingScope,
          // so the executor backfills the blocked slot).
          fault_in = true;
          immediate.set_value(local.status());
          return;
        }
        // Not owned: it must be in the decoded cache via DeliverToQuery's
        // bookkeeping — fall through to the waiter resolution by asking the
        // protocol to deliver from cache.
        node_->DeliverToQuery(query_, bat);
        immediate.set_value(Status::FailedPrecondition("resolved via waiter"));
      } else {
        immediate.set_value(Status::FailedPrecondition("blocked"));
      }
    });
    Result<bat::BatPtr> quick = immediate_future.get();
    bat::BatPtr value;
    if (quick.ok()) {
      node_->RemoveWaiter(query_, bat);
      value = *quick;
    } else if (fault_in) {
      node_->RemoveWaiter(query_, bat);
      const auto blocked_at = std::chrono::steady_clock::now();
      const auto deadline = cancel_ != nullptr && cancel_->has_deadline()
                                ? cancel_->deadline()
                                : std::chrono::steady_clock::time_point::max();
      auto faulted = node_->PinStored(bat, deadline);
      blocked_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - blocked_at)
                                .count(),
                            std::memory_order_relaxed);
      if (!faulted.ok()) return faulted.status();
      NoteStorePin(bat);
      value = *faulted;
    } else {
      // Blocked until the fragment flows by — or the query is cancelled or
      // runs past its deadline. Cancellation protocol: Cancel() sets the
      // token *then* aborts this query's waiters, and we re-check the token
      // only after registering the waiter, so one side always fires.
      const auto blocked_at = std::chrono::steady_clock::now();
      if (cancel_ != nullptr) {
        if (cancel_->cancelled()) {
          node_->ResolveWaiter(query_, bat, Status::Aborted("query cancelled"));
        } else if (cancel_->has_deadline() &&
                   future.wait_until(cancel_->deadline()) != std::future_status::ready) {
          node_->ResolveWaiter(query_, bat, cancel_->CheckLive());
        }
      }
      auto delivered = future.get();  // blocks until resolved either way
      blocked_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - blocked_at)
              .count(),
          std::memory_order_relaxed);
      if (!delivered.ok()) return delivered.status();
      value = *delivered;
    }
    // Versioned read (ISSUE-9): resolve the pinned payload into this query's
    // snapshot view. For unwritten tables this is one relaxed atomic and
    // returns `value` untouched; for written tables the log serves a merged
    // view with fresh columns (base + applicable deltas), ignoring whatever
    // stale base version the ring copy happened to carry.
    {
      auto view = cluster_->write_log().ResolveView(bat, value, snapshot_);
      if (!view.ok()) return view.status();
      value = std::move(view).value();
    }
    {
      // Dataflow workers pin concurrently; the bookkeeping maps need a lock.
      std::lock_guard<std::mutex> lock(mu_);
      pinned_[bat] = value;
      by_pointer_[value.get()] = bat;
    }
    return value;
  }

  Status Unpin(const mal::Datum& pinned) override {
    core::BatId bat = core::kInvalidBat;
    bool release_store_pin = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto* h = std::get_if<mal::RequestHandle>(&pinned)) {
        bat = h->bat;
      } else if (const auto* b = std::get_if<bat::BatPtr>(&pinned)) {
        auto it = by_pointer_.find(b->get());
        if (it == by_pointer_.end()) {
          return Status::InvalidArgument("unpin of a BAT this query never pinned");
        }
        bat = it->second;
        by_pointer_.erase(it);
      } else {
        return Status::InvalidArgument("unpin expects a BAT or request handle");
      }
      pinned_.erase(bat);
      requested_.erase(bat);  // fully released: nothing left for teardown
      auto sp = store_pins_.find(bat);
      if (sp != store_pins_.end()) {
        release_store_pin = true;
        if (--sp->second == 0) store_pins_.erase(sp);
      }
    }
    if (release_store_pin) node_->store().Unpin(bat);
    node_->Post([node = node_, q = query_, bat] { node->dc().Unpin(q, bat); });
    return Status::OK();
  }

 private:
  void NoteStorePin(core::BatId bat) {
    std::lock_guard<std::mutex> lock(mu_);
    ++store_pins_[bat];
  }

  RingCluster* cluster_;
  RingCluster::Node* node_;
  core::QueryId query_;
  const mal::CancelToken* cancel_;
  const uint64_t snapshot_;  ///< commit version every pin resolves at
  std::atomic<int64_t> blocked_ns_{0};
  std::mutex mu_;  ///< guards pinned_/by_pointer_/requested_ across workers
  std::unordered_map<core::BatId, bat::BatPtr> pinned_;
  std::unordered_map<const bat::Bat*, core::BatId> by_pointer_;
  std::set<core::BatId> requested_;  ///< every fragment this query touched
  /// Buffer-frame pins this query holds in the node's store (eviction
  /// protection); released on Unpin or teardown.
  std::unordered_map<core::BatId, uint32_t> store_pins_;
};

/// The sql.wappend / sql.wcommit / sql.wdelete hooks of one query execution:
/// columns buffer locally, commits go to the cluster write log (the single
/// commit authority), and the published deltas are launched onto the ring
/// from this query's node. Thread-safe: an INSERT plan's wappend instructions
/// run on concurrent dataflow workers.
class QueryWriteHooks final : public mal::WriteHooks {
 public:
  QueryWriteHooks(RingCluster* cluster, RingCluster::Node* node, uint64_t snapshot)
      : cluster_(cluster), node_(node), snapshot_(snapshot) {}

  Result<int64_t> BufferColumn(const std::string& table, const std::string& column,
                               std::vector<bat::Value> values) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto& cols = staged_[table];
    for (const auto& [name, unused] : cols) {
      if (name == column) {
        return Status::InvalidArgument("column \"" + column +
                                       "\" buffered twice in one INSERT");
      }
    }
    cols.emplace_back(column, std::move(values));
    return static_cast<int64_t>(cols.size());
  }

  Result<int64_t> CommitInsert(const std::string& table, int64_t expected_rows) override {
    std::vector<std::pair<std::string, std::vector<bat::Value>>> cols;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = staged_.find(table);
      if (it == staged_.end()) {
        return Status::FailedPrecondition("sql.wcommit without buffered columns for " +
                                          table);
      }
      cols = std::move(it->second);
      staged_.erase(it);
    }
    for (const auto& [name, values] : cols) {
      if (static_cast<int64_t>(values.size()) != expected_rows) {
        return Status::InvalidArgument(
            "column \"" + name + "\" buffered " + std::to_string(values.size()) +
            " value(s), statement inserts " + std::to_string(expected_rows) + " row(s)");
      }
    }
    DCY_ASSIGN_OR_RETURN(write::CommitResult cr,
                         cluster_->write_log().CommitInsert(table, cols));
    Publish(cr);
    return cr.rows;
  }

  Result<int64_t> DeleteAt(const std::string& table,
                           const bat::BatPtr& positions) override {
    // The mirror BAT's tail enumerates qualifying offsets into this query's
    // snapshot view — exactly the coordinate space CommitDeleteAt expects.
    const bat::Column& tail = *positions->tail();
    std::vector<uint64_t> offsets;
    offsets.reserve(tail.size());
    for (size_t i = 0; i < tail.size(); ++i) {
      offsets.push_back(static_cast<uint64_t>(tail.GetInt64(i)));
    }
    DCY_ASSIGN_OR_RETURN(write::CommitResult cr,
                         cluster_->write_log().CommitDeleteAt(table, offsets, snapshot_));
    Publish(cr);
    return cr.rows;
  }

  /// Highest version this query committed (0 = read-only).
  uint64_t commit_version() const {
    return commit_version_.load(std::memory_order_relaxed);
  }

 private:
  void Publish(const write::CommitResult& cr) {
    uint64_t seen = commit_version_.load(std::memory_order_relaxed);
    while (seen < cr.version &&
           !commit_version_.compare_exchange_weak(seen, cr.version,
                                                  std::memory_order_relaxed)) {
    }
    for (const auto& d : cr.published) node_->PublishDelta(d);
  }

  RingCluster* cluster_;
  RingCluster::Node* node_;
  const uint64_t snapshot_;
  std::atomic<uint64_t> commit_version_{0};
  std::mutex mu_;
  /// Per table: wappend-buffered columns awaiting the statement's wcommit.
  std::map<std::string, std::vector<std::pair<std::string, std::vector<bat::Value>>>>
      staged_;
};

}  // namespace

// ===========================================================================
// RingCluster
// ===========================================================================

Result<uint32_t> CheckRingSize(int64_t nodes) {
  if (nodes < 2 || nodes > kMaxRingNodes) {
    return Status::InvalidArgument("ring size " + std::to_string(nodes) +
                                   " outside [2, " + std::to_string(kMaxRingNodes) + "]");
  }
  return static_cast<uint32_t>(nodes);
}

RingCluster::RingCluster(Options options) : options_(options) {
  DCY_CHECK(options_.num_nodes >= 2);
  if (options_.memory.budget_bytes > 0 && options_.spill_dir.empty()) {
    // A budget without a spill root would refuse every over-budget byte
    // outright; give the stores a private disk tier under the system temp
    // directory instead (removed with the cluster).
    static std::atomic<uint64_t> counter{0};
    const auto dir =
        std::filesystem::temp_directory_path() /
        ("dcy-spill-" + std::to_string(static_cast<uint64_t>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1)));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) {
      options_.spill_dir = dir.string();
      owns_spill_dir_ = true;
    }
  }
  nodes_.reserve(options_.num_nodes);
  spliced_in_.assign(options_.num_nodes, true);
  alive_ = std::make_unique<std::atomic<bool>[]>(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    alive_[i].store(true, std::memory_order_relaxed);
    nodes_.push_back(std::make_unique<Node>(this, i));
    ports_.push_back(nodes_.back()->port());
  }
}

RingCluster::~RingCluster() {
  Stop();
  if (owns_spill_dir_) {
    // The stores (and their spill threads) must be gone before their
    // directory is: destroy the nodes first.
    nodes_.clear();
    std::error_code ec;
    std::filesystem::remove_all(options_.spill_dir, ec);
  }
}

Status RingCluster::LoadBat(core::NodeId owner, const std::string& name, bat::BatPtr bat) {
  if (owner >= options_.num_nodes) return Status::InvalidArgument("bad owner node");
  if (bat == nullptr) return Status::InvalidArgument("null BAT for " + name);
  if (!IsNodeAlive(owner)) {
    return Status::Unavailable("owner node " + std::to_string(owner) + " is down");
  }
  DCY_RETURN_NOT_OK(ValidateQualifiedName(name));
  const core::BatId id = next_bat_.fetch_add(1);
  const uint64_t size = bat->ByteSize();
  const bat::ValType tail_type = bat->tail()->type();
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    if (directory_.count(name) > 0) {
      return Status::AlreadyExists("fragment \"" + name + "\" is already registered");
    }
    // Admission may wait on spill I/O when the node is near its budget —
    // bulk loads beyond memory proceed at disk speed instead of failing.
    DCY_RETURN_NOT_OK(nodes_[owner]->store().Admit(id, name, bat, /*durable=*/true,
                                                   /*initial_pins=*/0,
                                                   std::chrono::milliseconds(10000)));
    directory_[name] = id;
    sizes_[id] = size;
    column_types_[name] = tail_type;
    fragments_[id] = FragmentInfo{name, owner, size, bat};
  }
  // Register the fragment with the write log (version 0 base). Rejects a
  // column whose row count disagrees with its table's other columns — undo
  // the registration so a failed load leaves no half-loaded fragment.
  const size_t last_dot = name.rfind('.');
  Status write_reg = write_log_.RegisterFragment(id, name.substr(0, last_dot),
                                                 name.substr(last_dot + 1), bat);
  if (!write_reg.ok()) {
    std::lock_guard<std::mutex> lock(directory_mu_);
    nodes_[owner]->store().Drop(id);
    directory_.erase(name);
    sizes_.erase(id);
    column_types_.erase(name);
    fragments_.erase(id);
    return write_reg;
  }
  // Outside directory_mu_: the service thread takes that lock in
  // FragmentFailureStatus, so holding it across a PostSync would deadlock.
  if (started_.load()) {
    nodes_[owner]->PostSync([&] { nodes_[owner]->dc().AddOwnedBat(id, size); });
  } else {
    nodes_[owner]->dc().AddOwnedBat(id, size);
  }
  return Status::OK();
}

sql::Schema RingCluster::SqlSchema() const {
  std::map<std::string, bat::ValType> columns;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    columns = column_types_;
  }
  return sql::Schema::FromQualifiedColumns(columns);
}

Result<core::BatId> RingCluster::FindFragment(const std::string& name) const {
  std::lock_guard<std::mutex> lock(directory_mu_);
  auto it = directory_.find(name);
  if (it == directory_.end()) return Status::NotFound("no fragment named " + name);
  return it->second;
}

void RingCluster::Start() {
  if (started_.exchange(true)) return;
  // The kernel policy is process-wide (the executor is shared); the last
  // started cluster wins, which matches how benches and servers run one
  // cluster per process.
  exec::SetExecPolicy(options_.exec_policy);
  for (auto& node : nodes_) node->Start();
  // Background compactors, one per node, owned by the cluster — CrashNode
  // kills a node's threads without touching these, so a fold in flight on a
  // dying node is abandoned by its commit guard, never by a join.
  if (options_.compaction.enable) {
    {
      std::lock_guard<std::mutex> lock(compact_mu_);
      compactors_stop_ = false;
    }
    compactors_.reserve(options_.num_nodes);
    for (uint32_t i = 0; i < options_.num_nodes; ++i) {
      compactors_.emplace_back([this, i] { CompactorLoop(i); });
    }
  }
}

void RingCluster::Stop() {
  if (!started_.exchange(false)) return;
  // Compactors first: a fold republishes through node stores and must not
  // race the teardown below.
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compactors_stop_ = true;
  }
  compact_cv_.notify_all();
  for (auto& t : compactors_) {
    if (t.joinable()) t.join();
  }
  compactors_.clear();
  // Runner pools next (running queries unwind through the still-live
  // service threads), then the protocol layer. Crashed nodes are already
  // quiescent; both calls are no-ops for them.
  for (auto& node : nodes_) {
    if (!node->crashed()) node->StopRunners(Status::Aborted("cluster stopping"));
  }
  for (auto& node : nodes_) {
    if (!node->crashed()) node->Stop();
  }
}

void RingCluster::CompactorLoop(core::NodeId node) {
  const auto interval =
      std::chrono::nanoseconds(std::max<SimTime>(1, options_.compaction.interval));
  std::unique_lock<std::mutex> lock(compact_mu_);
  while (!compactors_stop_) {
    compact_cv_.wait_for(lock, interval);
    if (compactors_stop_) return;
    if (!IsNodeAlive(node)) continue;  // a dead node's compactor idles
    lock.unlock();
    CompactionPass(node);
    lock.lock();
  }
}

void RingCluster::CompactionPass(core::NodeId node) {
  const auto ready = write_log_.TablesReadyToFold(options_.compaction);
  for (const auto& [table, first_fragment] : ready) {
    // A table is folded by the node owning its first fragment; after a
    // re-homing the heir's compactor naturally takes over.
    core::NodeId owner = core::kInvalidNode;
    {
      std::lock_guard<std::mutex> lock(directory_mu_);
      auto it = fragments_.find(first_fragment);
      if (it == fragments_.end()) continue;
      owner = it->second.owner;
    }
    if (owner != node) continue;
    auto folded =
        write_log_.FoldTable(table, [this, node] { return IsNodeAlive(node); });
    if (!folded.ok()) {
      // Aborted: this node died mid-fold (the guard rejected the commit and
      // the log stands untouched) or a concurrent fold won. Retry later.
      continue;
    }
    if (folded->rebased.empty()) continue;
    // Republish every rebased fragment under the new base version: the
    // cluster registry first (the durable copy re-homing and refetch read),
    // then the owner's store, so subsequent pins resolve the new base.
    Node* owner_node = nodes_[node].get();
    for (auto& [id, fname, base] : folded->rebased) {
      const uint64_t bytes = base->ByteSize();
      {
        std::lock_guard<std::mutex> lock(directory_mu_);
        auto it = fragments_.find(id);
        if (it != fragments_.end()) {
          it->second.loader = base;
          it->second.size = bytes;
        }
        sizes_[id] = bytes;
      }
      if (!IsNodeAlive(node)) break;  // crashed between commit and republish
      owner_node->store().Drop(id);
      Status admitted = owner_node->store().Admit(id, fname, base, /*durable=*/true,
                                                  /*initial_pins=*/0,
                                                  std::chrono::milliseconds(10000),
                                                  folded->new_version);
      if (!admitted.ok()) {
        // The registry still carries the folded payload; the next pin
        // refetches it from there.
        DCY_LOG(kWarn) << "republish of folded fragment " << fname
                       << " failed: " << admitted.ToString();
      }
    }
    DCY_LOG(kInfo) << "node " << node << " folded " << folded->deltas_folded
                   << " delta(s) of " << table << " into base version "
                   << folded->new_version;
  }
}

// ---- fault tolerance -------------------------------------------------------

bool RingCluster::IsNodeAlive(core::NodeId node) const {
  return node < options_.num_nodes && alive_[node].load(std::memory_order_acquire);
}

core::NodeId RingCluster::NextAliveLocked(core::NodeId from) const {
  for (uint32_t step = 1; step < options_.num_nodes; ++step) {
    const core::NodeId n = (from + step) % options_.num_nodes;
    if (spliced_in_[n]) return n;
  }
  return from;
}

core::NodeId RingCluster::PrevAliveLocked(core::NodeId from) const {
  for (uint32_t step = 1; step < options_.num_nodes; ++step) {
    const core::NodeId n = (from + options_.num_nodes - step) % options_.num_nodes;
    if (spliced_in_[n]) return n;
  }
  return from;
}

Status RingCluster::CrashNode(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");
  Node* victim = nodes_[node].get();
  if (victim->crashed()) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is already crashed");
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (dead_count_.load(std::memory_order_relaxed) + 1 >= options_.num_nodes) {
      return Status::FailedPrecondition("refusing to crash the last alive node");
    }
    ++nodes_crashed_;
    crashed_at_ = std::chrono::steady_clock::now();
  }
  alive_[node].store(false, std::memory_order_release);
  dead_count_.fetch_add(1, std::memory_order_relaxed);
  victim->Crash();
  return Status::OK();
}

void RingCluster::ReportSuspect(core::NodeId reporter, core::NodeId suspect) {
  if (suspect >= options_.num_nodes || reporter == suspect) return;
  Node* pred = nullptr;
  Node* succ = nullptr;
  core::NodeId heir = suspect;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    ++suspicions_;
    // Membership oracle: a suspicion only sticks if the node really is
    // down. A live-but-slow neighbour (GC pause, overload) is counted as a
    // false suspicion and the ring stays intact — this reproduction does
    // not attempt distributed consensus on membership.
    if (!nodes_[suspect]->crashed()) {
      ++false_suspicions_;
      return;
    }
    if (!spliced_in_[suspect]) return;  // another reporter already handled it
    spliced_in_[suspect] = false;
    ++resplices_;
    last_recovery_seconds_ = SecondsSince(crashed_at_);
    const core::NodeId p = PrevAliveLocked(suspect);
    const core::NodeId s = NextAliveLocked(suspect);
    if (p == suspect || s == suspect) return;  // nothing left to splice
    pred = nodes_[p].get();
    succ = nodes_[s].get();
    heir = s;
  }
  DCY_LOG(kInfo) << "node " << reporter << " detected node " << suspect
                 << " dead; splicing " << pred->id() << " -> " << succ->id();
  // Bypass the corpse: the predecessor's data now flows to the successor
  // and the successor's requests to the predecessor, each on a new epoch.
  pred->Adopt(RingLink::kSuccessor, succ->id());
  succ->Adopt(RingLink::kPredecessor, pred->id());
  HandleDeadFragments(suspect, heir);
}

void RingCluster::HandleDeadFragments(core::NodeId suspect, core::NodeId heir) {
  struct Rehome {
    core::BatId id;
    std::string name;
    uint64_t size;
    bat::BatPtr loader;
  };
  std::vector<Rehome> rehomes;
  std::vector<core::BatId> failed;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    for (auto& [id, info] : fragments_) {
      if (info.owner != suspect) continue;
      if (options_.resilience.auto_rehome) {
        info.owner = heir;
        rehomes.push_back(Rehome{id, info.name, info.size, info.loader});
      } else {
        failed.push_back(id);
      }
    }
  }
  if (!rehomes.empty()) {
    Node* heir_node = nodes_[heir].get();
    for (auto& r : rehomes) {
      // The heir may have seen this name before (a restarted node's second
      // death); AlreadyExists just means the payload is still registered.
      Status reg = heir_node->store().Admit(r.id, r.name, r.loader, /*durable=*/true,
                                            /*initial_pins=*/0,
                                            std::chrono::milliseconds(5000),
                                            write_log_.BaseVersionOf(r.id));
      if (!reg.ok() && reg.code() != StatusCode::kAlreadyExists) {
        DCY_LOG(kError) << "re-home of fragment " << r.name << " failed: "
                        << reg.ToString();
        continue;
      }
      heir_node->Post([heir_node, id = r.id, size = r.size] {
        heir_node->dc().AddOwnedBat(id, size);
      });
    }
    std::lock_guard<std::mutex> lock(ring_mu_);
    rehomed_fragments_ += rehomes.size();
    DCY_LOG(kInfo) << rehomes.size() << " fragment(s) of dead node " << suspect
                   << " re-homed to node " << heir;
  }
  // Without re-homing the fragments are gone: every node fails its waiting
  // queries with a typed Unavailable instead of letting pins hang.
  for (const core::BatId id : failed) {
    for (auto& n : nodes_) {
      if (n->crashed()) continue;
      Node* node = n.get();
      node->Post([node, id] { node->dc().FailBat(id); });
    }
  }
}

Status RingCluster::RefetchFragment(core::BatId bat, Node* node) {
  std::string name;
  bat::BatPtr loader;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    auto it = fragments_.find(bat);
    if (it == fragments_.end()) {
      return Status::NotFound("fragment " + std::to_string(bat) +
                              " is not in the cluster registry");
    }
    name = it->second.name;
    loader = it->second.loader;
  }
  Status admitted = node->store().Admit(bat, name, loader, /*durable=*/true,
                                        /*initial_pins=*/0,
                                        std::chrono::milliseconds(5000),
                                        write_log_.BaseVersionOf(bat));
  if (admitted.code() == StatusCode::kAlreadyExists) return Status::OK();
  if (admitted.ok()) node->store().NoteRefetched();
  return admitted;
}

Status RingCluster::FragmentFailureStatus(core::BatId bat) {
  std::lock_guard<std::mutex> lock(directory_mu_);
  auto it = fragments_.find(bat);
  if (it != fragments_.end() && !IsNodeAlive(it->second.owner)) {
    unavailable_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("fragment \"" + it->second.name + "\" (BAT " +
                               std::to_string(bat) + ") is on crashed node " +
                               std::to_string(it->second.owner));
  }
  return Status::NotFound("BAT " + std::to_string(bat) + " does not exist");
}

Status RingCluster::RestartNode(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");
  Node* comer = nodes_[node].get();
  if (!comer->crashed()) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is not crashed");
  }
  Node* pred = nullptr;
  Node* succ = nullptr;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    spliced_in_[node] = true;
    ++nodes_restarted_;
    pred = nodes_[PrevAliveLocked(node)].get();
    succ = nodes_[NextAliveLocked(node)].get();
  }
  comer->Restart(succ->id(), pred->id());
  alive_[node].store(true, std::memory_order_release);
  dead_count_.fetch_sub(1, std::memory_order_relaxed);
  // Crash-safe recovery of the two-tier store: re-admit every checksum-valid
  // spill file from the node's disk tier (payloads stay on disk until
  // pinned); damaged files were deleted by the scan and their fragments —
  // like everything never spilled — are re-materialized from the ring's
  // durable registry below.
  const auto recovered = comer->store().Recover();
  if (!recovered.recovered.empty() || recovered.corrupt_files > 0) {
    DCY_LOG(kInfo) << "node " << node << " recovery: " << recovered.recovered.size()
                   << " fragment(s) reloaded from disk, " << recovered.corrupt_files
                   << " damaged spill file(s) discarded";
  }
  // Re-introduce the node's surviving fragments (those not re-homed while
  // it was down) to its fresh protocol state.
  std::vector<std::pair<core::BatId, uint64_t>> owned;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    for (const auto& [id, info] : fragments_) {
      if (info.owner == node) owned.emplace_back(id, info.size);
    }
  }
  for (const auto& [id, size] : owned) {
    if (comer->store().Contains(id)) continue;
    Status refetched = RefetchFragment(id, comer);
    if (!refetched.ok()) {
      DCY_LOG(kError) << "node " << node << " cannot re-materialize fragment " << id
                      << ": " << refetched.ToString();
    }
  }
  comer->PostSync([&] {
    for (const auto& [id, size] : owned) comer->dc().AddOwnedBat(id, size);
  });
  // Close the ring around the newcomer (fresh epochs towards it).
  if (pred != comer) pred->Adopt(RingLink::kSuccessor, node);
  if (succ != comer) succ->Adopt(RingLink::kPredecessor, node);
  DCY_LOG(kInfo) << "node " << node << " restarted and re-spliced between "
                 << pred->id() << " and " << succ->id();
  return Status::OK();
}

RingCluster::ResilienceMetrics RingCluster::Resilience() const {
  ResilienceMetrics out;
  for (const auto& node : nodes_) {
    Node* n = node.get();
    n->PostSync([n, &out] { n->SnapshotResilience(&out); });
    out.shed_degraded += n->admission_metrics().shed_degraded;
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    out.nodes_crashed = nodes_crashed_;
    out.nodes_restarted = nodes_restarted_;
    out.ring_resplices = resplices_;
    out.suspicions = suspicions_;
    out.false_suspicions = false_suspicions_;
    out.rehomed_fragments = rehomed_fragments_;
    out.last_recovery_seconds = last_recovery_seconds_;
  }
  out.unavailable_failures = unavailable_failures_.load(std::memory_order_relaxed);
  return out;
}

RingCluster::BandwidthMetrics RingCluster::Bandwidth() const {
  BandwidthMetrics out;
  for (const auto& node : nodes_) {
    Node* n = node.get();
    n->PostSync([n, &out] { n->SnapshotBandwidth(&out); });
  }
  return out;
}

storage::MemoryMetrics RingCluster::NodeMemory(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  return nodes_[node]->store().Metrics();
}

storage::MemoryMetrics RingCluster::Memory() const {
  storage::MemoryMetrics total;
  for (const auto& node : nodes_) total.Add(node->store().Metrics());
  return total;
}

// ---- session API ----------------------------------------------------------

Result<Session> RingCluster::OpenSession(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  return Session(this, node);
}

Result<PreparedQueryPtr> RingCluster::Prepare(const std::string& text,
                                              const PrepareOptions& options) {
  Language language = options.language;
  if (language == Language::kAuto) {
    language = sql::LooksLikeSql(text) ? Language::kSQL : Language::kMAL;
  }
  // The dialect is part of the key: the same text prepared as SQL and as MAL
  // compiles to different programs, so the two must occupy distinct slots.
  const char* dialect = language == Language::kSQL ? "sql" : "mal";
  const std::string key = opt::PlanCacheKey(text, {}, dialect);
  bool use_cache = options.use_cache;
  if (use_cache) {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      // The 64-bit key is not trusted alone: a hit must carry the same
      // source text, or a hash collision would silently run the wrong plan.
      if (it->second->text() == text) {
        ++plan_cache_stats_.hits;
        return it->second;
      }
      use_cache = false;  // collision: compile fresh, leave the entry alone
    }
  }
  Result<mal::Program> compiled =
      language == Language::kSQL
          ? sql::Compile(text, SqlSchema(), options.parse_error)
          : mal::ParseProgram(text, options.parse_error);
  if (!compiled.ok()) return compiled.status();
  DCY_ASSIGN_OR_RETURN(mal::Program program, opt::DcOptimize(*compiled));
  auto prepared = std::make_shared<const PreparedQuery>(text, key, std::move(program));
  if (use_cache) {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    ++plan_cache_stats_.misses;  // one parse + DcOptimize actually ran
    auto [it, inserted] = plan_cache_.emplace(key, prepared);
    if (inserted) {
      plan_cache_order_.push_back(key);
      // Bounded cache: ad-hoc texts (literals inlined instead of params)
      // must not grow the cache without limit; evict oldest-inserted first.
      while (plan_cache_.size() > std::max<size_t>(1, options_.plan_cache_capacity)) {
        plan_cache_.erase(plan_cache_order_.front());
        plan_cache_order_.pop_front();
      }
    }
    plan_cache_stats_.entries = plan_cache_.size();
    if (!inserted) return it->second;  // lost a prepare race; share the first
  }
  return prepared;
}

Result<QueryHandle> RingCluster::Submit(core::NodeId node_id,
                                        const PreparedQueryPtr& prepared,
                                        const SubmitOptions& options) {
  if (node_id >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (prepared == nullptr) return Status::InvalidArgument("null prepared query");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");

  auto state = std::make_shared<internal::QueryState>();
  state->id = next_query_.fetch_add(1);
  state->submitted_at = std::chrono::steady_clock::now();
  if (options.timeout.count() > 0) {
    state->cancel.set_deadline(state->submitted_at + options.timeout);
  }
  Node* node = nodes_[node_id].get();
  state->wake_pins = [node, id = state->id] { node->AbortQueryWaiters(id); };
  DCY_RETURN_NOT_OK(node->EnqueueQuery({state, prepared, options}));
  return QueryHandle(state);
}

Result<QueryResult> RingCluster::RunQuery(Node* node, const PreparedQuery& plan,
                                          internal::QueryState* state,
                                          const SubmitOptions& options) {
  QueryResult qr;
  qr.query_id = state->id;

  // Version-at-prepare (ISSUE-9): pin one commit version for the whole
  // execution, so every fragment view this query resolves belongs to the
  // same snapshot and folds cannot slide bases out from under it.
  uint64_t snapshot = 0;
  if (!options.snapshot_version.has_value()) {
    snapshot = write_log_.AcquireSnapshot();
  } else {
    DCY_ASSIGN_OR_RETURN(snapshot,
                         write_log_.AcquireSnapshotAt(*options.snapshot_version));
  }
  struct SnapshotRelease {
    write::WriteLog* log;
    uint64_t v;
    ~SnapshotRelease() { log->ReleaseSnapshot(v); }
  } snapshot_release{&write_log_, snapshot};
  qr.snapshot_version = snapshot;

  mal::ExportSink exported;
  SessionHooks hooks(this, node, state->id, &state->cancel, snapshot);
  QueryWriteHooks write_hooks(this, node, snapshot);
  // DcOptimize rewrote every sql.bind into request/pin, so the plan reads
  // through the ring and the write log only: no local catalog to bind.
  mal::Context ctx;
  ctx.dc = &hooks;
  ctx.writer = &write_hooks;
  ctx.out = nullptr;  // results are captured typed, not printed
  ctx.exported = &exported;

  mal::ExecOptions eopts;
  eopts.workers = options.plan_workers > 0 ? options.plan_workers : options_.plan_workers;
  eopts.cancel = &state->cancel;
  eopts.params = options.params.empty() ? nullptr : &options.params;

  const auto start = std::chrono::steady_clock::now();
  mal::Interpreter interp(&mal::Registry::Global(), ctx);
  auto result = interp.Execute(plan.program(), eopts);
  qr.timing.exec_seconds = SecondsSince(start);
  qr.timing.pin_blocked_seconds = hooks.blocked_seconds();
  qr.commit_version = write_hooks.commit_version();
  if (!result.ok()) return result.status();

  mal::ResultSetPtr table;
  {
    std::lock_guard<std::mutex> lock(exported.mu);
    table = exported.result;
  }
  qr.result = ResultSet::Build(table, std::move(result).value());
  return qr;
}

core::DcNodeMetrics RingCluster::NodeMetrics(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  core::DcNodeMetrics snapshot;
  nodes_[node]->PostSync([&] { snapshot = nodes_[node]->dc().metrics(); });
  return snapshot;
}

core::AdmissionMetrics RingCluster::NodeAdmissionMetrics(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  return nodes_[node]->admission_metrics();
}

size_t RingCluster::OutstandingRequestEntries(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  size_t count = 0;
  nodes_[node]->PostSync([&] { count = nodes_[node]->dc().requests().size(); });
  return count;
}

RingCluster::PlanCacheStats RingCluster::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  return plan_cache_stats_;
}

uint64_t RingCluster::TotalDataBytesMoved() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->port()->data.stats().payload_bytes.load();
  }
  return total;
}

}  // namespace dcy::runtime
