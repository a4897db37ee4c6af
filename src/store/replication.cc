#include "src/store/replication.h"

#include <algorithm>
#include <utility>

#include "src/qrpc/qrpc.h"
#include "src/store/server.h"
#include "src/util/logging.h"

namespace rover {
namespace {

// kControl payload tags. Sender -> receiver: RTXN (one shipped transaction),
// RSNP (full-image resync). Receiver -> sender: RACK (cumulative durable
// watermark), RSYN (resync request). Unknown tags are ignored so the channel
// can grow.
constexpr char kTagTxn[] = "RTXN";
constexpr char kTagAck[] = "RACK";
constexpr char kTagResyncRequest[] = "RSYN";
constexpr char kTagSnapshot[] = "RSNP";

Bytes EncodeTxnMessage(uint64_t seq, uint64_t epoch, const ServerTransaction& txn) {
  WireWriter writer;
  writer.WriteString(kTagTxn);
  writer.WriteVarint(seq);
  writer.WriteVarint(epoch);
  writer.WriteBytes(txn.Encode());
  return writer.TakeData();
}

Bytes EncodeAckMessage(uint64_t watermark) {
  WireWriter writer;
  writer.WriteString(kTagAck);
  writer.WriteVarint(watermark);
  return writer.TakeData();
}

Bytes EncodeResyncRequest(uint64_t last_applied) {
  WireWriter writer;
  writer.WriteString(kTagResyncRequest);
  writer.WriteVarint(last_applied);
  return writer.TakeData();
}

Bytes EncodeSnapshotMessage(const ReplicationSender::ResyncImage& image) {
  WireWriter writer;
  writer.WriteString(kTagSnapshot);
  writer.WriteVarint(image.baseline_seq);
  writer.WriteVarint(image.epoch);
  writer.WriteBytes(image.object_image);
  writer.WriteVarint(image.responses.size());
  for (const CachedResponseEntry& r : image.responses) {
    writer.WriteString(r.client);
    writer.WriteVarint(r.rpc_id);
    writer.WriteVarint(r.response.size());
    ChargePayloadCopy(r.response.size());
    writer.WriteRaw(r.response.data(), r.response.size());
  }
  return writer.TakeData();
}

}  // namespace

ReplicationSender::ReplicationSender(EventLoop* loop, TransportManager* transport,
                                     obs::Registry* metrics, ReplicationOptions options)
    : loop_(loop), transport_(transport), options_(std::move(options)),
      c_shipped_(metrics->counter("replication_sender.txns_shipped")),
      c_bytes_shipped_(metrics->counter("replication_sender.bytes_shipped")),
      c_acks_(metrics->counter("replication_sender.acks_received")),
      c_resyncs_(metrics->counter("replication_sender.resyncs_served")),
      c_degrades_(metrics->counter("replication_sender.sync_degrades")),
      g_lag_(metrics->gauge("replication_sender.lag_records")),
      g_watermark_(metrics->gauge("replication_sender.acked_watermark")) {
  UpdateLagGauge();
  transport_->SetHandler(MessageType::kControl,
                         [this](const Message& msg) { HandleControl(msg); });
}

ReplicationSender::~ReplicationSender() {
  transport_->SetHandler(MessageType::kControl, nullptr);
}

ReplicationSenderStats ReplicationSender::stats() const {
  ReplicationSenderStats s;
  s.transactions_shipped = c_shipped_->value();
  s.bytes_shipped = c_bytes_shipped_->value();
  s.acks_received = c_acks_->value();
  s.resyncs_served = c_resyncs_->value();
  s.sync_degrades = c_degrades_->value();
  return s;
}

void ReplicationSender::Ship(uint64_t seq, uint64_t epoch, const ServerTransaction& txn) {
  Message msg;
  msg.header.type = MessageType::kControl;
  msg.header.priority = Priority::kDefault;
  msg.header.dst = options_.peer;
  msg.payload = EncodeTxnMessage(seq, epoch, txn);
  c_bytes_shipped_->Increment(msg.payload.size());
  transport_->Send(std::move(msg));
  last_shipped_ = std::max(last_shipped_, seq);
  c_shipped_->Increment();
  UpdateLagGauge();
}

void ReplicationSender::GateRelease(uint64_t seq, std::function<void()> release) {
  if (degraded_ || seq <= acked_watermark_) {
    release();
    return;
  }
  gated_.push_back({seq, loop_->now() + options_.sync_timeout, std::move(release)});
  ArmDegradeTimer();
}

void ReplicationSender::HandleControl(const Message& msg) {
  WireReader reader(msg.payload.data(), msg.payload.size());
  auto tag = reader.ReadString();
  if (!tag.ok()) {
    return;
  }
  if (*tag == kTagAck) {
    auto watermark = reader.ReadVarint();
    if (watermark.ok()) {
      AckWatermark(*watermark);
    }
  } else if (*tag == kTagResyncRequest) {
    ServeResync();
  }
  // Anything else is not replication traffic; ignore.
}

void ReplicationSender::AckWatermark(uint64_t watermark) {
  c_acks_->Increment();
  if (watermark <= acked_watermark_) {
    return;
  }
  acked_watermark_ = watermark;
  while (!gated_.empty() && gated_.front().seq <= acked_watermark_) {
    auto release = std::move(gated_.front().release);
    gated_.pop_front();
    release();
  }
  if (degraded_ && acked_watermark_ >= last_shipped_) {
    // The backup caught back up; future releases gate again.
    degraded_ = false;
  }
  UpdateLagGauge();
}

void ReplicationSender::ServeResync() {
  if (!resync_provider_) {
    return;
  }
  ResyncImage image = resync_provider_();
  Message msg;
  msg.header.type = MessageType::kControl;
  msg.header.priority = Priority::kDefault;
  msg.header.dst = options_.peer;
  msg.payload = EncodeSnapshotMessage(image);
  transport_->Send(std::move(msg));
  c_resyncs_->Increment();
}

void ReplicationSender::ArmDegradeTimer() {
  if (degrade_timer_armed_ || gated_.empty()) {
    return;
  }
  degrade_timer_armed_ = true;
  loop_->ScheduleAt(gated_.front().deadline,
                    [this, weak = std::weak_ptr<char>(alive_)] {
    if (weak.expired()) {
      return;
    }
    degrade_timer_armed_ = false;
    if (gated_.empty()) {
      return;
    }
    if (loop_->now() >= gated_.front().deadline) {
      // The oldest gated response has waited out the sync window: stop
      // blocking the primary on an unreachable backup. Acked work released
      // from here on is no longer guaranteed to survive a failover, which
      // the checker is told about.
      degraded_ = true;
      c_degrades_->Increment();
      ROVER_LOG(Info) << "replication to " << options_.peer
                      << " degraded to async (watermark " << acked_watermark_
                      << ", shipped " << last_shipped_ << ")";
      while (!gated_.empty()) {
        auto release = std::move(gated_.front().release);
        gated_.pop_front();
        release();
      }
      if (degrade_listener_) {
        degrade_listener_();
      }
      return;
    }
    ArmDegradeTimer();
  });
}

void ReplicationSender::UpdateLagGauge() {
  g_lag_->Set(static_cast<int64_t>(last_shipped_ - acked_watermark_));
  g_watermark_->Set(static_cast<int64_t>(acked_watermark_));
}

ReplicationReceiver::ReplicationReceiver(EventLoop* loop, TransportManager* transport,
                                         RoverServer* server,
                                         ServerStableStore* stable_store,
                                         QrpcServer* qrpc, obs::Registry* metrics,
                                         ReplicationOptions options)
    : loop_(loop), transport_(transport), server_(server),
      stable_store_(stable_store), qrpc_(qrpc), options_(std::move(options)),
      c_applied_(metrics->counter("replication_receiver.txns_applied")),
      c_duplicates_(metrics->counter("replication_receiver.duplicates_ignored")),
      c_acks_(metrics->counter("replication_receiver.acks_sent")),
      c_resyncs_(metrics->counter("replication_receiver.resyncs_requested")),
      c_snapshots_(metrics->counter("replication_receiver.snapshots_applied")),
      c_promotions_(metrics->counter("replication_receiver.promotions")),
      g_last_applied_(metrics->gauge("replication_receiver.last_applied")) {
  g_last_applied_->Set(0);
  transport_->SetHandler(MessageType::kControl,
                         [this](const Message& msg) { HandleControl(msg); });
  // Bootstrap: pull whatever state the primary already has. Also heals the
  // case where this backup restarted and lost its volatile cursor.
  RequestResync();
}

ReplicationReceiver::~ReplicationReceiver() {
  transport_->SetHandler(MessageType::kControl, nullptr);
}

uint64_t ReplicationReceiver::Promote() {
  if (promoted_) {
    return qrpc_->epoch();
  }
  promoted_ = true;
  // Fence the dead primary: every response this server sends from now on
  // carries an epoch strictly above anything the primary ever used, so
  // clients treat the takeover like a restart of their home server.
  // Transactions still buffered behind a sequence gap are discarded: they
  // were never acked, so the primary never released their responses.
  const uint64_t epoch = std::max(stable_store_->epoch(), primary_epoch_seen_) + 1;
  stable_store_->AdoptEpoch(epoch);
  qrpc_->set_epoch(epoch);
  buffered_.clear();
  c_promotions_->Increment();
  if (check_ != nullptr) {
    std::vector<std::pair<std::string, uint64_t>> replicated;
    for (const auto& r : qrpc_->CachedResponses()) {
      replicated.emplace_back(r.client, r.rpc_id);
    }
    check_->OnFailover(options_.peer, transport_->local_host(), epoch, replicated);
  }
  ROVER_LOG(Info) << transport_->local_host() << " promoted to primary (epoch "
                  << epoch << ", replaces " << options_.peer << ")";
  return epoch;
}

void ReplicationReceiver::HandleControl(const Message& msg) {
  WireReader reader(msg.payload.data(), msg.payload.size());
  auto tag = reader.ReadString();
  if (!tag.ok()) {
    return;
  }
  if (*tag == kTagTxn) {
    auto seq = reader.ReadVarint();
    auto epoch = reader.ReadVarint();
    auto encoded_len = reader.ReadVarint();
    if (!seq.ok() || !epoch.ok() || !encoded_len.ok() ||
        *encoded_len > reader.remaining()) {
      return;
    }
    auto encoded_ptr = reader.ReadRaw(*encoded_len);
    if (!encoded_ptr.ok()) {
      return;
    }
    // Decode straight out of the control payload; the transaction's response
    // slice keeps the frame storage alive through the duplicate cache.
    const Buffer encoded = msg.payload.Slice(
        static_cast<size_t>(*encoded_ptr - msg.payload.data()),
        static_cast<size_t>(*encoded_len));
    auto txn = ServerTransaction::Decode(encoded);
    if (!txn.ok()) {
      ROVER_LOG(Warning) << "dropping undecodable replicated transaction seq "
                      << *seq;
      return;
    }
    HandleTransaction(*seq, *epoch, *std::move(txn));
  } else if (*tag == kTagSnapshot) {
    auto baseline = reader.ReadVarint();
    auto epoch = reader.ReadVarint();
    auto image = reader.ReadBytes();
    auto count = reader.ReadVarint();
    if (!baseline.ok() || !epoch.ok() || !image.ok() || !count.ok()) {
      return;
    }
    std::vector<CachedResponseEntry> responses;
    responses.reserve(*count);
    for (uint64_t i = 0; i < *count; ++i) {
      CachedResponseEntry entry;
      auto client = reader.ReadString();
      auto rpc_id = reader.ReadVarint();
      auto response_len = reader.ReadVarint();
      if (!client.ok() || !rpc_id.ok() || !response_len.ok() ||
          *response_len > reader.remaining()) {
        return;
      }
      auto response_ptr = reader.ReadRaw(*response_len);
      if (!response_ptr.ok()) {
        return;
      }
      entry.client = *std::move(client);
      entry.rpc_id = *rpc_id;
      entry.response = msg.payload.Slice(
          static_cast<size_t>(*response_ptr - msg.payload.data()),
          static_cast<size_t>(*response_len));
      responses.push_back(std::move(entry));
    }
    HandleSnapshot(*baseline, *epoch, *std::move(image), std::move(responses));
  }
}

void ReplicationReceiver::HandleTransaction(uint64_t seq, uint64_t epoch,
                                            ServerTransaction txn) {
  if (promoted_) {
    return;  // the old primary is fenced; nothing it says matters now
  }
  primary_epoch_seen_ = std::max(primary_epoch_seen_, epoch);
  if (seq <= last_applied_) {
    c_duplicates_->Increment();
    SendAck();  // re-ack so a primary that missed it can unblock releases
    return;
  }
  buffered_.emplace(seq, std::make_pair(epoch, std::move(txn)));
  DrainBuffered();
  if (!buffered_.empty() && buffered_.begin()->first > last_applied_ + 1) {
    // Sequence gap: ship traffic was lost with a crashed process (or this
    // backup attached after the primary already had state). Heal with a
    // full-image resync rather than applying out of order.
    RequestResync();
  }
}

void ReplicationReceiver::DrainBuffered() {
  while (true) {
    auto it = buffered_.find(last_applied_ + 1);
    if (it == buffered_.end()) {
      return;
    }
    const uint64_t seq = it->first;
    ServerTransaction txn = std::move(it->second.second);
    buffered_.erase(it);
    last_applied_ = seq;
    c_applied_->Increment();
    g_last_applied_->Set(static_cast<int64_t>(last_applied_));
    server_->ApplyReplicatedTransaction(
        txn, [this, seq, weak = std::weak_ptr<char>(alive_)](const Status& durable) {
          if (weak.expired() || !durable.ok()) {
            return;  // not durable here: never ack it
          }
          last_durable_ = std::max(last_durable_, seq);
          SendAck();
        });
  }
}

void ReplicationReceiver::HandleSnapshot(uint64_t baseline_seq, uint64_t epoch,
                                         Bytes object_image,
                                         std::vector<CachedResponseEntry> responses) {
  resync_pending_ = false;
  if (promoted_) {
    return;
  }
  primary_epoch_seen_ = std::max(primary_epoch_seen_, epoch);
  if (baseline_seq < last_applied_) {
    return;  // stale snapshot from before what we already applied
  }
  last_applied_ = baseline_seq;
  c_snapshots_->Increment();
  g_last_applied_->Set(static_cast<int64_t>(last_applied_));
  server_->AdoptReplicatedSnapshot(
      std::move(object_image), std::move(responses),
      [this, baseline_seq, weak = std::weak_ptr<char>(alive_)] {
        if (weak.expired()) {
          return;
        }
        last_durable_ = std::max(last_durable_, baseline_seq);
        SendAck();
      });
  while (!buffered_.empty() && buffered_.begin()->first <= baseline_seq) {
    buffered_.erase(buffered_.begin());
  }
  DrainBuffered();
}

void ReplicationReceiver::RequestResync() {
  if (resync_pending_ || promoted_) {
    return;
  }
  resync_pending_ = true;
  c_resyncs_->Increment();
  Message msg;
  msg.header.type = MessageType::kControl;
  msg.header.priority = Priority::kDefault;
  msg.header.dst = options_.peer;
  msg.payload = EncodeResyncRequest(last_applied_);
  transport_->Send(std::move(msg));
  // The request (or its snapshot) can be lost with a crashing process; ask
  // again if nothing arrives.
  loop_->ScheduleAfter(Duration::Seconds(2),
                       [this, weak = std::weak_ptr<char>(alive_)] {
    if (weak.expired() || !resync_pending_ || promoted_) {
      return;
    }
    resync_pending_ = false;
    RequestResync();
  });
}

void ReplicationReceiver::SendAck() {
  if (promoted_) {
    return;
  }
  Message msg;
  msg.header.type = MessageType::kControl;
  msg.header.priority = Priority::kDefault;
  msg.header.dst = options_.peer;
  msg.payload = EncodeAckMessage(last_durable_);
  transport_->Send(std::move(msg));
  c_acks_->Increment();
}

}  // namespace rover
