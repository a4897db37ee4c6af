#include "src/sim/network.h"

#include <algorithm>
#include <utility>

namespace rover {

namespace {
uint64_t g_link_scan_steps = 0;
const std::vector<Link*> kNoLinks;
}  // namespace

uint64_t HostLinkScanSteps() { return g_link_scan_steps; }
void ResetHostLinkScanSteps() { g_link_scan_steps = 0; }

const std::vector<Link*>& Host::LinksTo(const std::string& peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    ++g_link_scan_steps;
    return kNoLinks;
  }
  g_link_scan_steps += it->second.links.size();
  return it->second.links;
}

bool Host::CanReach(const std::string& peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    ++g_link_scan_steps;
    return false;
  }
  if (it->second.always_up > 0) {
    ++g_link_scan_steps;
    return true;
  }
  // No always-up link: consult this peer's (few) scheduled links.
  for (Link* link : it->second.links) {
    ++g_link_scan_steps;
    if (link->IsUp()) {
      return true;
    }
  }
  return false;
}

void Host::SetReceiver(Receiver receiver, const void* owner) {
  receiver_ = std::move(receiver);
  receiver_owner_ = owner;
}

void Host::ClearReceiver(const void* owner) {
  if (receiver_owner_ == owner) {
    receiver_ = nullptr;
    receiver_owner_ = nullptr;
  }
}

void Host::AddPeerObserver(const std::string& peer, std::function<void()> observer,
                           const void* owner) {
  peers_[peer].observers.emplace_back(owner, std::move(observer));
}

void Host::RemovePeerObservers(const void* owner) {
  for (auto& [peer, entry] : peers_) {
    auto& obs = entry.observers;
    obs.erase(std::remove_if(obs.begin(), obs.end(),
                             [owner](const auto& o) { return o.first == owner; }),
              obs.end());
  }
}

void Host::NotifyPeerChange(PeerEntry& entry) {
  // Copy: an observer may re-arm (append) while we iterate.
  const auto observers = entry.observers;
  for (const auto& [owner, fn] : observers) {
    fn();
  }
}

void Host::OnLinkForcedDown(const std::string& peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    return;
  }
  PeerEntry& entry = it->second;
  // Recompute rather than decrement: ForceDown is rare and idempotence
  // (plus future state kinds) is simpler to keep correct this way.
  entry.always_up = 0;
  for (Link* link : entry.links) {
    if (link->IsAlwaysUp()) {
      ++entry.always_up;
    }
  }
  NotifyPeerChange(entry);
}

void Host::Attach(Link* link) {
  links_.push_back(link);
  const std::string peer = link->PeerOf(name_);
  PeerEntry& entry = peers_[peer];
  entry.links.push_back(link);
  if (link->IsAlwaysUp()) {
    ++entry.always_up;
  }
  link->AddStateObserver([this, peer] { OnLinkForcedDown(peer); });
  link->SetFrameHandler(name_, [this](Bytes frame, const std::string& from) {
    HandleFrame(std::move(frame), from);
  });
  NotifyPeerChange(entry);
}

void Host::HandleFrame(Bytes frame, const std::string& from) {
  if (receiver_) {
    receiver_(std::move(frame), from);
  }
}

Host* Network::AddHost(const std::string& name) {
  auto it = hosts_.find(name);
  if (it != hosts_.end()) {
    return it->second.get();
  }
  auto host = std::unique_ptr<Host>(new Host(name));
  Host* raw = host.get();
  hosts_.emplace(name, std::move(host));
  return raw;
}

Host* Network::FindHost(const std::string& name) const {
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

Link* Network::Connect(const std::string& host_a, const std::string& host_b,
                       LinkProfile profile, std::unique_ptr<ConnectivitySchedule> schedule) {
  Host* a = AddHost(host_a);
  Host* b = AddHost(host_b);
  links_.push_back(std::make_unique<Link>(loop_, host_a, host_b, std::move(profile),
                                          std::move(schedule), next_link_seed_++));
  Link* link = links_.back().get();
  a->Attach(link);
  b->Attach(link);
  return link;
}

}  // namespace rover
