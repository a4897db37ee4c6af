// SMTP-style store-and-forward relay. The paper (§2, §5.3) sends QRPCs
// over SMTP so that requests survive periods when client and server are
// never simultaneously connected: the mail system stores the message and
// forwards it when the next hop is reachable.
//
// SmtpRelay runs on an always-on relay host. It accepts kControl envelope
// messages, spools the inner message per final destination, and forwards
// each after `forward_delay` (modelling MTA queue-scan latency). Its own
// scheduler then holds the message until a link to the destination is up.

#ifndef ROVER_SRC_TRANSPORT_SMTP_H_
#define ROVER_SRC_TRANSPORT_SMTP_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/transport/transport.h"

namespace rover {

struct SmtpRelayOptions {
  // Time between an envelope arriving and the relay attempting delivery.
  Duration forward_delay = Duration::Seconds(1);
};

struct SmtpRelayStats {
  uint64_t envelopes_accepted = 0;
  uint64_t envelopes_forwarded = 0;
  uint64_t envelopes_malformed = 0;
};

class SmtpRelay {
 public:
  SmtpRelay(EventLoop* loop, TransportManager* transport, SmtpRelayOptions options = {});

  const SmtpRelayStats& stats() const { return stats_; }

 private:
  void HandleEnvelope(const Message& envelope);

  EventLoop* loop_;
  TransportManager* transport_;
  SmtpRelayOptions options_;
  SmtpRelayStats stats_;
};

}  // namespace rover

#endif  // ROVER_SRC_TRANSPORT_SMTP_H_
