#include "src/transport/smtp.h"

#include <utility>

#include "src/util/logging.h"

namespace rover {

SmtpRelay::SmtpRelay(EventLoop* loop, TransportManager* transport, SmtpRelayOptions options)
    : loop_(loop), transport_(transport), options_(options) {
  transport_->SetHandler(MessageType::kControl,
                         [this](const Message& envelope) { HandleEnvelope(envelope); });
}

void SmtpRelay::HandleEnvelope(const Message& envelope) {
  auto inner = TransportManager::DecodeEnvelope(envelope.payload);
  if (!inner.ok()) {
    ++stats_.envelopes_malformed;
    ROVER_LOG(Warning) << "smtp relay: malformed envelope from " << envelope.header.src;
    return;
  }
  ++stats_.envelopes_accepted;
  auto msg = std::make_shared<Message>(std::move(*inner));
  loop_->ScheduleAfter(options_.forward_delay, [this, msg] {
    ++stats_.envelopes_forwarded;
    // Keep the original sender in header.src; the relay is transparent.
    // The scheduler queues until a link to the destination is up.
    transport_->scheduler()->Enqueue(*msg, nullptr);
  });
}

}  // namespace rover
