#include "topo/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "provenance/provenance.hpp"

namespace pimlib::topo {

net::Prefix Network::next_segment_prefix() {
    const int n = next_segment_number_++;
    if (n >= 256 * 256) throw std::runtime_error("segment address pool exhausted");
    return net::Prefix{net::Ipv4Address(10, static_cast<std::uint8_t>(n / 256),
                                        static_cast<std::uint8_t>(n % 256), 0),
                       24};
}

Router& Network::add_router(const std::string& name) {
    const int n = next_router_number_++;
    if (n >= 256 * 256) throw std::runtime_error("router id pool exhausted");
    const net::Ipv4Address rid(192, 168, static_cast<std::uint8_t>(n / 256),
                               static_cast<std::uint8_t>(n % 256));
    routers_.push_back(std::make_unique<Router>(*this, name, next_node_id_++, rid));
    if (provenance_ != nullptr) provenance_->add_rings(static_cast<std::size_t>(next_node_id_));
    return *routers_.back();
}

Segment& Network::add_link(Router& a, Router& b, sim::Time delay, int metric) {
    const net::Prefix prefix = next_segment_prefix();
    segments_.push_back(std::make_unique<Segment>(
        *this, static_cast<int>(segments_.size()), prefix, delay, metric));
    Segment& seg = *segments_.back();
    const std::uint32_t base = prefix.address().to_uint();
    a.attach(seg, net::Ipv4Address{base + 1});
    b.attach(seg, net::Ipv4Address{base + 2});
    return seg;
}

Segment& Network::add_lan(const std::vector<Router*>& routers, sim::Time delay, int metric) {
    const net::Prefix prefix = next_segment_prefix();
    segments_.push_back(std::make_unique<Segment>(
        *this, static_cast<int>(segments_.size()), prefix, delay, metric));
    Segment& seg = *segments_.back();
    for (Router* r : routers) attach_to_lan(*r, seg);
    return seg;
}

int Network::attach_to_lan(Router& router, Segment& lan) {
    const std::uint32_t base = lan.prefix().address().to_uint();
    const auto slot = static_cast<std::uint32_t>(lan.attachments().size()) + 1;
    if (slot >= 255) throw std::runtime_error("LAN address pool exhausted");
    return router.attach(lan, net::Ipv4Address{base + slot});
}

Host& Network::add_host(const std::string& name, Segment& lan) {
    const std::uint32_t base = lan.prefix().address().to_uint();
    const auto slot = static_cast<std::uint32_t>(lan.attachments().size()) + 1;
    if (slot >= 255) throw std::runtime_error("LAN address pool exhausted");
    hosts_.push_back(std::make_unique<Host>(*this, name, next_node_id_++));
    Host& host = *hosts_.back();
    host.attach(lan, net::Ipv4Address{base + slot});
    if (provenance_ != nullptr) provenance_->add_rings(static_cast<std::size_t>(next_node_id_));
    return host;
}

const Node& Network::node(int id) const {
    // Ids are handed out in creation order, so both vectors are id-sorted.
    const auto by_id = [](const auto& n, int v) { return n->id() < v; };
    const auto r = std::lower_bound(routers_.begin(), routers_.end(), id, by_id);
    if (r != routers_.end() && (*r)->id() == id) return **r;
    const auto h = std::lower_bound(hosts_.begin(), hosts_.end(), id, by_id);
    if (h != hosts_.end() && (*h)->id() == id) return **h;
    throw std::out_of_range("no node with id " + std::to_string(id));
}

void Network::set_provenance(provenance::Recorder* recorder) {
    provenance_ = recorder;
    if (recorder != nullptr) recorder->add_rings(static_cast<std::size_t>(next_node_id_));
}

int Network::add_packet_tap(PacketTap tap) {
    const int token = next_tap_token_++;
    taps_.emplace(token, std::move(tap));
    return token;
}

void Network::remove_packet_tap(int token) { taps_.erase(token); }

void Network::dispatch_packet_taps(const Segment& segment, const net::Frame& frame) const {
    for (const auto& [token, tap] : taps_) tap(segment, frame);
}

int Network::add_topology_observer(TopologyObserver observer) {
    const int token = next_topo_token_++;
    topo_observers_.emplace(token, std::move(observer));
    return token;
}

void Network::remove_topology_observer(int token) { topo_observers_.erase(token); }

void Network::notify_topology_changed() {
    if (topo_suspend_ > 0) {
        topo_dirty_ = true;
        return;
    }
    for (const auto& [token, observer] : topo_observers_) observer();
}

void Network::set_seed(std::uint64_t seed) {
    seed_ = seed;
    for (const auto& seg : segments_) {
        seg->reseed_loss(derived_seed(static_cast<std::uint32_t>(seg->id()),
                                      kSegmentStreamTag + static_cast<std::uint64_t>(seg->id())));
    }
}

std::uint32_t Network::derived_seed(std::uint32_t legacy_salt,
                                    std::uint64_t stream_tag) const {
    if (seed_ == 0) return legacy_salt * 2654435761u + 1; // historical stream
    // splitmix64 of (seed, stream_tag): statistically independent streams
    // per object class and id, fully determined by the global seed.
    std::uint64_t z = seed_ + stream_tag * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::uint32_t>((z ^ (z >> 31)) >> 16);
}

Segment* Network::find_link(const Router& a, const Router& b) {
    for (const auto& seg : segments_) {
        bool has_a = false;
        bool has_b = false;
        for (const auto& att : seg->attachments()) {
            if (att.node == &a) has_a = true;
            if (att.node == &b) has_b = true;
        }
        if (has_a && has_b) return seg.get();
    }
    return nullptr;
}

} // namespace pimlib::topo
