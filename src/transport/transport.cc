#include "src/transport/transport.h"

#include <utility>

#include "src/util/compress.h"
#include "src/util/logging.h"

namespace rover {

TransportManager::TransportManager(EventLoop* loop, Host* host, obs::Registry* metrics,
                                   SchedulerOptions options)
    : loop_(loop), host_(host), scheduler_(loop, host, metrics, options),
      c_frames_corrupt_dropped_(metrics->counter("transport.frames_corrupt_dropped")),
      c_messages_undecodable_(metrics->counter("transport.messages_undecodable")) {
  host_->SetReceiver(
      [this](Bytes frame, const std::string& from) { HandleFrame(std::move(frame), from); },
      this, [this](const std::string& peer) { scheduler_.OnPeerChanged(peer); });
}

TransportManager::~TransportManager() {
  // Owner-scoped: a replacement transport registered since (crash-restart
  // builds the new node before the old one is torn down) keeps its hooks.
  host_->ClearReceiver(this);
}

void TransportManager::Send(Message msg, NetworkScheduler::DeliveredCallback delivered,
                            Duration ttl) {
  msg.header.src = host_->name();
  if (msg.header.message_id == 0) {
    msg.header.message_id = AllocateMessageId();
  }
  if (msg.header.auth.empty()) {
    msg.header.auth = auth_token_;
  }
  scheduler_.Enqueue(std::move(msg), std::move(delivered), ttl);
}

void TransportManager::SendViaRelay(const std::string& relay_host, Message msg,
                                    NetworkScheduler::DeliveredCallback delivered) {
  msg.header.src = host_->name();
  if (msg.header.message_id == 0) {
    msg.header.message_id = AllocateMessageId();
  }
  if (msg.header.auth.empty()) {
    msg.header.auth = auth_token_;
  }
  Message envelope;
  envelope.header.message_id = AllocateMessageId();
  envelope.header.type = MessageType::kControl;
  envelope.header.priority = msg.header.priority;
  envelope.header.src = host_->name();
  envelope.header.dst = relay_host;
  envelope.payload = EncodeEnvelope(msg);
  scheduler_.Enqueue(std::move(envelope), std::move(delivered));
}

Bytes TransportManager::EncodeEnvelope(const Message& inner) {
  WireWriter writer;
  writer.WriteString("RFC822");  // envelope tag, in the spirit of the original
  inner.EncodeTo(&writer);
  return writer.TakeData();
}

Result<Message> TransportManager::DecodeEnvelope(const Buffer& payload) {
  WireReader reader(payload.data(), payload.size());
  ROVER_ASSIGN_OR_RETURN(std::string tag, reader.ReadString());
  if (tag != "RFC822") {
    return DataLossError("bad envelope tag");
  }
  // The inner payload becomes a slice of the envelope's storage.
  return Message::DecodeFrom(&reader, payload);
}

void TransportManager::SetHandler(MessageType type, MessageHandler handler) {
  handlers_[static_cast<size_t>(type)] = std::move(handler);
}

void TransportManager::HandleFrame(Bytes frame, const std::string& from) {
  auto decoded = DecodeFrame(std::move(frame));
  if (!decoded.ok()) {
    c_frames_corrupt_dropped_->Increment();
    ROVER_LOG(Warning) << host_->name() << ": dropping corrupt frame from " << from << ": "
                       << decoded.status();
    return;
  }
  for (Message& msg : *decoded) {
    if (msg.header.compressed) {
      auto raw = LzDecompress(msg.payload.data(), msg.payload.size());
      if (!raw.ok()) {
        c_messages_undecodable_->Increment();
        ROVER_LOG(Warning) << host_->name() << ": dropping message "
                           << msg.header.message_id << ": " << raw.status();
        continue;
      }
      msg.payload = std::move(*raw);
      msg.header.compressed = false;
    }
    const MessageHandler& handler = handlers_[static_cast<size_t>(msg.header.type)];
    if (handler) {
      handler(msg);
    }
  }
}

}  // namespace rover
