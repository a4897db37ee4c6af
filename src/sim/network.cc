#include "src/sim/network.h"

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
  g_link_scan_steps += it->second.size();
  return it->second;
}

bool Host::CanReach(const std::string& peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    ++g_link_scan_steps;
    return false;
  }
  // The peer index keeps this to the peer's own (few) links.
  for (Link* link : it->second) {
    ++g_link_scan_steps;
    if (link->IsUp()) {
      return true;
    }
  }
  return false;
}

void Host::SetReceiver(Receiver receiver, const void* owner, PeerChanged peer_changed) {
  receiver_ = std::move(receiver);
  peer_changed_ = std::move(peer_changed);
  receiver_owner_ = owner;
}

void Host::ClearReceiver(const void* owner) {
  if (receiver_owner_ == owner) {
    receiver_ = nullptr;
    peer_changed_ = nullptr;
    receiver_owner_ = nullptr;
  }
}

void Host::OnPeerChanged(const std::string& peer) {
  if (peer_changed_) {
    peer_changed_(peer);
  }
}

void Host::Attach(Link* link) {
  links_.push_back(link);
  const std::string peer = link->PeerOf(name_);
  peers_[peer].push_back(link);
  link->AddStateObserver([this, peer] { OnPeerChanged(peer); });
  link->SetFrameHandler(name_, [this](Bytes frame, const std::string& from) {
    HandleFrame(std::move(frame), from);
  });
  OnPeerChanged(peer);
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
