// TransportManager: one per host. Owns the host's network scheduler for
// outbound traffic and decodes inbound frames (including decompression)
// into Messages dispatched to a registered handler. Also provides the
// connectionless path: SendViaRelay wraps a message in an SMTP-style
// envelope addressed to a relay host, which stores and forwards it (see
// smtp.h). The paper's prototype used real SMTP for exactly this purpose:
// queued communication that survives simultaneous disconnection of both
// endpoints.

#ifndef ROVER_SRC_TRANSPORT_TRANSPORT_H_
#define ROVER_SRC_TRANSPORT_TRANSPORT_H_

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "src/obs/metrics.h"
#include "src/sim/network.h"
#include "src/transport/message.h"
#include "src/transport/scheduler.h"

namespace rover {

class TransportManager {
 public:
  using MessageHandler = std::function<void(const Message&)>;

  // Counts into `metrics` under "transport."; the scheduler it owns counts
  // into the same registry.
  TransportManager(EventLoop* loop, Host* host, obs::Registry* metrics,
                   SchedulerOptions options = {});
  // Unhooks this transport from the host so a frame or link attachment in
  // the window before a replacement transport registers (crash restart)
  // cannot reach freed state.
  ~TransportManager();

  const std::string& local_host() const { return host_->name(); }
  Host* host() const { return host_; }
  NetworkScheduler* scheduler() { return &scheduler_; }

  // Sends `msg` directly (connection-based path). Fills in header.src.
  // A non-zero `ttl` bounds the queue wait (see NetworkScheduler::Enqueue).
  void Send(Message msg, NetworkScheduler::DeliveredCallback delivered = nullptr,
            Duration ttl = Duration::Zero());

  // Sends `msg` through `relay_host` (connectionless, SMTP-like path).
  // `delivered` fires when the envelope reaches the relay -- the SMTP
  // "accepted for delivery" semantics, not end-to-end receipt.
  void SendViaRelay(const std::string& relay_host, Message msg,
                    NetworkScheduler::DeliveredCallback delivered = nullptr);

  // Registers the upcall for one inbound message type. A QrpcServer claims
  // kRequest, a QrpcClient claims kResponse/kAck, an SmtpRelay claims
  // kControl; all can share one host.
  void SetHandler(MessageType type, MessageHandler handler);

  uint64_t AllocateMessageId() { return next_message_id_++; }

  // Credential stamped on every outbound message (paper §5.1: the Rover
  // server "authenticates requests from client applications").
  void set_auth_token(std::string token) { auth_token_ = std::move(token); }
  const std::string& auth_token() const { return auth_token_; }

  // Builds the SMTP envelope payload (exposed for tests). Decode slices the
  // inner payload out of `payload`'s storage without copying.
  static Bytes EncodeEnvelope(const Message& inner);
  static Result<Message> DecodeEnvelope(const Buffer& payload);


 private:
  void HandleFrame(Bytes frame, const std::string& from);

  EventLoop* loop_;
  Host* host_;
  NetworkScheduler scheduler_;
  std::array<MessageHandler, 4> handlers_;
  uint64_t next_message_id_ = 1;
  std::string auth_token_;
  // Inbound frames dropped at the decode boundary (bit-corrupted on the
  // wire): corruption never propagates further, no partial message reaches
  // a handler. A message whose compressed payload fails to decompress is
  // dropped alone; the rest of its frame's batch still dispatches.
  obs::Counter* const c_frames_corrupt_dropped_;
  obs::Counter* const c_messages_undecodable_;
};

}  // namespace rover

#endif  // ROVER_SRC_TRANSPORT_TRANSPORT_H_
