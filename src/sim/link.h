// Point-to-point link model. A Link joins two named hosts and charges
// frames for packetization (MTU + per-packet header overhead), store-and-
// forward serialization at the profile's bandwidth, one-way propagation
// latency, optional dial-up connection establishment, and per-packet loss.
// Links honour a ConnectivitySchedule: frames sent while down fail
// immediately, and frames in flight when the link drops are lost.
//
// Profiles below are calibrated to the paper's testbed (§7): switched
// 10 Mbit/s Ethernet, 2 Mbit/s AT&T WaveLAN, and CSLIP with Van Jacobson
// TCP/IP header compression over 14.4 and 2.4 Kbit/s dial-up lines.

#ifndef ROVER_SRC_SIM_LINK_H_
#define ROVER_SRC_SIM_LINK_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/connectivity.h"
#include "src/sim/event_loop.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace rover {

struct LinkProfile {
  std::string name;
  double bandwidth_bps = 10e6;
  Duration latency = Duration::Micros(250);  // one-way propagation + switching
  size_t mtu = 1460;                         // payload bytes per packet
  size_t per_packet_overhead = 40;           // TCP/IP header bytes (5 with VJ compression)
  double loss_prob = 0.0;                    // per-packet loss probability
  // Probability a delivered frame arrives bit-damaged: the receiver gets a
  // corrupted copy (and drops it after failing to decode), while the sender
  // learns of the failure one RTT later, as with loss.
  double corrupt_prob = 0.0;
  // Probability a delivered frame arrives twice at the receiver (a stale
  // retransmission surviving in the network). The sender sees a single OK.
  double duplicate_prob = 0.0;
  // Probability a delivered frame is held back by `reorder_delay`, letting
  // frames sent after it arrive first. Sender-side completion is delayed
  // with it (the outcome is still "delivered").
  double reorder_prob = 0.0;
  Duration reorder_delay = Duration::Millis(20);
  Duration connect_cost = Duration::Zero();  // paid after `idle_threshold` of silence
  Duration idle_threshold = Duration::Seconds(30);

  // The paper's four networks.
  static LinkProfile Ethernet10();  // switched 10 Mbit/s Ethernet
  static LinkProfile WaveLan2();    // 2 Mbit/s AT&T WaveLAN (wireless)
  static LinkProfile Cslip144();    // 14.4 Kbit/s dial-up, VJ header compression
  static LinkProfile Cslip24();     // 2.4 Kbit/s dial-up, VJ header compression

  // All four, in descending bandwidth order (the order the paper's tables use).
  static std::vector<LinkProfile> PaperNetworks();
};

// Per-link traffic counters. Links are not node components, so they count
// into this plain struct rather than into a node's metrics registry.
struct LinkStats {
  uint64_t frames_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t frames_lost = 0;      // loss model or mid-transfer disconnect
  uint64_t frames_corrupted = 0;
  uint64_t frames_rejected = 0;  // link was down at send time
  uint64_t payload_bytes = 0;    // delivered payload
  uint64_t wire_bytes = 0;       // payload + packet header overhead, delivered or not
};

class Link {
 public:
  // Invoked at the *sender* when the frame outcome is known: OK on delivery,
  // kUnavailable if the link was/went down, kDataLoss for random packet loss
  // (models the sender's retransmission timer expiring).
  using DeliveryCallback = std::function<void(const Status&)>;
  // Invoked at the *receiver* when a frame arrives. The frame is passed by
  // value so the link can move its storage straight into the receiving
  // transport (which adopts it and slices message payloads out of it).
  using FrameHandler = std::function<void(Bytes frame, const std::string& from)>;

  Link(EventLoop* loop, std::string host_a, std::string host_b, LinkProfile profile,
       std::unique_ptr<ConnectivitySchedule> schedule, uint64_t loss_seed = 1);

  const std::string& host_a() const { return host_a_; }
  const std::string& host_b() const { return host_b_; }
  const LinkProfile& profile() const { return profile_; }
  const LinkStats& stats() const { return stats_; }

  // Returns the peer of `host`, or "" if `host` is not an endpoint.
  std::string PeerOf(const std::string& host) const;

  bool IsUp() const;
  TimePoint NextUpTime() const;

  // Administratively downs the link for good, overriding the connectivity
  // schedule -- models the interfaces of a host that died (failover kills).
  // Irreversible; frames already in transit complete or are lost per the
  // schedule as it stood when they were sent. Notifies state observers.
  void ForceDown();

  // Observers fire on administrative state changes (currently: ForceDown).
  // Hosts register one per endpoint to raise their peer-change upcall.
  void AddStateObserver(std::function<void()> observer);

  void SetFrameHandler(const std::string& receiving_host, FrameHandler handler);

  // Sends `frame` from `from_host` to its peer. `done` may be null.
  void SendFrame(const std::string& from_host, Bytes frame, DeliveryCallback done);

  // Pure serialization time for `payload_bytes` at this profile (packetized,
  // with header overhead; no latency, queueing, or connect cost).
  Duration TransferTime(size_t payload_bytes) const;

  size_t PacketCount(size_t payload_bytes) const;
  size_t WireBytes(size_t payload_bytes) const;

 private:
  int DirectionFrom(const std::string& host) const;  // 0: a->b, 1: b->a

  EventLoop* loop_;
  std::string host_a_;
  std::string host_b_;
  LinkProfile profile_;
  std::unique_ptr<ConnectivitySchedule> schedule_;
  bool forced_down_ = false;
  std::vector<std::function<void()>> state_observers_;
  Rng loss_rng_;
  LinkStats stats_;
  std::array<FrameHandler, 2> handlers_;  // index = receiving direction (0 means b receives)
  std::array<TimePoint, 2> busy_until_ = {TimePoint::Epoch(), TimePoint::Epoch()};
  TimePoint last_activity_ = TimePoint::FromMicros(INT64_MIN / 2);
};

}  // namespace rover

#endif  // ROVER_SRC_SIM_LINK_H_
