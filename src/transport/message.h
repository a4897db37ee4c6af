// Transport-layer messages. Every unit the network scheduler moves -- QRPC
// requests, responses, acknowledgements, control traffic -- is a Message:
// a small self-describing header plus an opaque payload. Messages travel in
// frames; a frame carries a batch of one or more messages (a batch pays
// per-packet header overhead on slow links once).

#ifndef ROVER_SRC_TRANSPORT_MESSAGE_H_
#define ROVER_SRC_TRANSPORT_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/buffer.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace rover {

enum class MessageType : uint8_t {
  kRequest = 0,   // QRPC request
  kResponse = 1,  // QRPC response
  kAck = 2,       // log-truncation acknowledgement
  kControl = 3,   // transport-internal (e.g. SMTP envelope)
};

// Lower value = more urgent. The paper's network scheduler "has several
// queues for different priorities" (§5.3); foreground traffic is what the
// user is waiting on, background is prefetch.
enum class Priority : uint8_t {
  kForeground = 0,
  kDefault = 1,
  kBackground = 2,
};

constexpr int kNumPriorities = 3;

struct MessageHeader {
  uint64_t message_id = 0;
  MessageType type = MessageType::kRequest;
  Priority priority = Priority::kDefault;
  std::string src;
  std::string dst;
  uint64_t in_reply_to = 0;  // message_id of the request, for responses/acks
  bool compressed = false;   // payload is LzCompress'ed
  std::string auth;          // client credential, checked by the server
  // When non-empty, responses to this request should be sent through this
  // relay host instead of directly (the SMTP path works both ways: a
  // client reachable only by mail receives its results by mail).
  std::string reply_via;
};

struct Message {
  MessageHeader header;
  // Ref-counted slice view: copying a Message bumps a refcount instead of
  // memcpy'ing the payload. On the receive path the payload aliases the
  // frame it arrived in.
  Buffer payload;

  // Serialized size, for scheduler accounting (header + payload). Computed
  // without touching the payload bytes.
  size_t EncodedSize() const;

  void EncodeTo(WireWriter* writer) const;
  // Copying decode: payload is copied out of the reader's window. Use the
  // backing overload on hot paths.
  static Result<Message> DecodeFrom(WireReader* reader);
  // Zero-copy decode: `backing` must be the storage the reader walks over;
  // the payload becomes a slice of it (no copy).
  static Result<Message> DecodeFrom(WireReader* reader, const Buffer& backing);

  Bytes Encode() const;
  static Result<Message> Decode(const Bytes& data);
};

// Frame = batch of messages shipped as one link-layer unit. Wire layout:
//   [varint count] [messages...] [fixed32 CRC over everything before it]
// The trailing CRC lets the sender encode straight into the final buffer
// (no body-then-wrap recopy) while still failing decode on any bit flip.
Bytes EncodeFrame(const std::vector<Message>& messages);
// Pointer form: lets the scheduler frame queued messages without copying
// their headers into a temporary vector first.
Bytes EncodeFrame(const std::vector<const Message*>& messages);
// Takes the frame by value: the storage is adopted and delivered messages'
// payloads alias it. Receive costs zero payload copies.
Result<std::vector<Message>> DecodeFrame(Bytes frame);

std::string_view MessageTypeName(MessageType type);

}  // namespace rover

#endif  // ROVER_SRC_TRANSPORT_MESSAGE_H_
