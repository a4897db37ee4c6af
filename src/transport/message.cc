#include "src/transport/message.h"

#include "src/obs/cpu_scope.h"
#include "src/util/crc32.h"

namespace rover {
namespace {

void EncodeHeaderTo(const MessageHeader& header, WireWriter* writer) {
  writer->WriteVarint(header.message_id);
  writer->WriteVarint(static_cast<uint64_t>(header.type));
  writer->WriteVarint(static_cast<uint64_t>(header.priority));
  writer->WriteString(header.src);
  writer->WriteString(header.dst);
  writer->WriteVarint(header.in_reply_to);
  writer->WriteBool(header.compressed);
  writer->WriteString(header.auth);
  writer->WriteString(header.reply_via);
}

size_t EncodedHeaderSize(const MessageHeader& h) {
  auto str = [](const std::string& s) { return LengthPrefixedSize(s.size()); };
  return VarintSize(h.message_id) + VarintSize(static_cast<uint64_t>(h.type)) +
         VarintSize(static_cast<uint64_t>(h.priority)) + str(h.src) + str(h.dst) +
         VarintSize(h.in_reply_to) + 1 /* compressed bool */ + str(h.auth) +
         str(h.reply_via);
}

Result<Message> DecodeMessageFrom(WireReader* reader, const Buffer* backing) {
  Message msg;
  ROVER_ASSIGN_OR_RETURN(msg.header.message_id, reader->ReadVarint());
  ROVER_ASSIGN_OR_RETURN(uint64_t type, reader->ReadVarint());
  if (type > static_cast<uint64_t>(MessageType::kControl)) {
    return DataLossError("bad message type");
  }
  msg.header.type = static_cast<MessageType>(type);
  ROVER_ASSIGN_OR_RETURN(uint64_t prio, reader->ReadVarint());
  if (prio >= kNumPriorities) {
    return DataLossError("bad message priority");
  }
  msg.header.priority = static_cast<Priority>(prio);
  ROVER_ASSIGN_OR_RETURN(msg.header.src, reader->ReadString());
  ROVER_ASSIGN_OR_RETURN(msg.header.dst, reader->ReadString());
  ROVER_ASSIGN_OR_RETURN(msg.header.in_reply_to, reader->ReadVarint());
  ROVER_ASSIGN_OR_RETURN(msg.header.compressed, reader->ReadBool());
  ROVER_ASSIGN_OR_RETURN(msg.header.auth, reader->ReadString());
  ROVER_ASSIGN_OR_RETURN(msg.header.reply_via, reader->ReadString());
  ROVER_ASSIGN_OR_RETURN(uint64_t len, reader->ReadVarint());
  if (len > reader->remaining()) {
    return DataLossError("truncated message payload");
  }
  ROVER_ASSIGN_OR_RETURN(const uint8_t* p, reader->ReadRaw(len));
  if (backing != nullptr) {
    msg.payload = backing->Slice(static_cast<size_t>(p - backing->data()), len);
  } else if (len > 0) {
    msg.payload = Buffer::CopyRaw(p, len);
  }
  return msg;
}

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kRequest:
      return "request";
    case MessageType::kResponse:
      return "response";
    case MessageType::kAck:
      return "ack";
    case MessageType::kControl:
      return "control";
  }
  return "unknown";
}

void Message::EncodeTo(WireWriter* writer) const {
  EncodeHeaderTo(header, writer);
  writer->WriteVarint(payload.size());
  // The one charged copy on the send path: payload bytes land in the frame.
  ChargePayloadCopy(payload.size());
  writer->WriteRaw(payload.data(), payload.size());
}

Result<Message> Message::DecodeFrom(WireReader* reader) {
  return DecodeMessageFrom(reader, nullptr);
}

Result<Message> Message::DecodeFrom(WireReader* reader, const Buffer& backing) {
  return DecodeMessageFrom(reader, &backing);
}

Bytes Message::Encode() const {
  WireWriter writer;
  writer.Reserve(EncodedSize());
  EncodeTo(&writer);
  return writer.TakeData();
}

size_t Message::EncodedSize() const {
  return EncodedHeaderSize(header) + VarintSize(payload.size()) + payload.size();
}

Result<Message> Message::Decode(const Bytes& data) {
  WireReader reader(data);
  ROVER_ASSIGN_OR_RETURN(Message msg, DecodeFrom(&reader));
  if (!reader.AtEnd()) {
    return DataLossError("trailing bytes after message");
  }
  return msg;
}

namespace {

template <typename Deref, typename T>
Bytes EncodeFrameImpl(const std::vector<T>& messages, Deref deref) {
  obs::CpuScope cpu(obs::CpuZone::kMarshal);
  WireWriter writer;
  size_t total = VarintSize(messages.size()) + 4;
  for (const T& msg : messages) {
    total += deref(msg).EncodedSize();
  }
  writer.Reserve(total);
  writer.WriteVarint(messages.size());
  for (const T& msg : messages) {
    deref(msg).EncodeTo(&writer);
  }
  // Trailing CRC covers count + every message -- header and payload alike --
  // so a bit flip anywhere fails decode at the receiving transport instead
  // of delivering damaged bytes to the layers above. Trailing (not leading)
  // so encoding is single-pass into the final buffer.
  const uint32_t crc = Crc32(writer.data().data(), writer.size());
  writer.WriteFixed32(crc);
  return writer.TakeData();
}

}  // namespace

Bytes EncodeFrame(const std::vector<Message>& messages) {
  return EncodeFrameImpl(messages, [](const Message& m) -> const Message& { return m; });
}

Bytes EncodeFrame(const std::vector<const Message*>& messages) {
  return EncodeFrameImpl(messages,
                         [](const Message* m) -> const Message& { return *m; });
}

Result<std::vector<Message>> DecodeFrame(Bytes frame) {
  obs::CpuScope cpu(obs::CpuZone::kMarshal);
  if (frame.size() < 4) {
    return DataLossError("frame too short for checksum");
  }
  const size_t body_size = frame.size() - 4;
  WireReader trailer(frame.data() + body_size, 4);
  ROVER_ASSIGN_OR_RETURN(uint32_t stored, trailer.ReadFixed32());
  if (Crc32(frame.data(), body_size) != stored) {
    return DataLossError("frame checksum mismatch");
  }
  // Adopt the frame storage; every payload below is a slice of it.
  Buffer backing(std::move(frame));
  WireReader reader(backing.data(), body_size);
  ROVER_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  if (count > body_size) {  // each message is at least 1 byte
    return DataLossError("frame message count implausible");
  }
  std::vector<Message> messages;
  messages.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ROVER_ASSIGN_OR_RETURN(Message msg, Message::DecodeFrom(&reader, backing));
    messages.push_back(std::move(msg));
  }
  if (!reader.AtEnd()) {
    return DataLossError("trailing bytes after frame");
  }
  return messages;
}

}  // namespace rover
