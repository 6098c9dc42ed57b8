#include "unicast/distance_vector.hpp"

#include <algorithm>

#include "net/buffer.hpp"
#include "topo/segment.hpp"

namespace pimlib::unicast {

std::vector<std::uint8_t> DvUpdate::encode() const {
    net::BufWriter w(4 + entries.size() * 7);
    w.put_u16(static_cast<std::uint16_t>(entries.size()));
    for (const Entry& e : entries) {
        w.put_addr(e.prefix.address());
        w.put_u8(static_cast<std::uint8_t>(e.prefix.length()));
        w.put_u16(static_cast<std::uint16_t>(e.metric));
    }
    return std::vector<std::uint8_t>(w.bytes());
}

std::optional<DvUpdate> DvUpdate::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    auto count = r.get_u16();
    if (!count) return std::nullopt;
    DvUpdate update;
    update.entries.reserve(*count);
    for (std::uint16_t i = 0; i < *count; ++i) {
        auto addr = r.get_addr();
        auto len = r.get_u8();
        auto metric = r.get_u16();
        if (!addr || !len || !metric || *len > 32) return std::nullopt;
        update.entries.push_back(Entry{net::Prefix{*addr, *len}, *metric});
    }
    if (!r.at_end()) return std::nullopt;
    return update;
}

DvAgent::DvAgent(topo::Router& router, DvConfig config)
    : router_(&router),
      config_(config),
      periodic_(router.simulator(), [this] { on_periodic(); }),
      triggered_(router.simulator(), [this] {
          triggered_pending_ = false;
          send_updates();
      }) {
    router_->set_unicast(&rib_);
    router_->register_protocol(net::IpProto::kRip,
                               [this](int ifindex, const net::Packet& packet) {
                                   on_message(ifindex, packet);
                               });
    refresh_connected();
    periodic_.start(config_.update_interval);
    // Jitter-free immediate first advertisement keeps scenarios simple and
    // deterministic; convergence still takes diameter × update exchanges.
    router_->simulator().schedule(0, [this] { send_updates(); });
}

void DvAgent::refresh_connected() {
    Rib::UpdateBatch batch{rib_};
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        TableEntry entry;
        entry.route = Route{iface.segment->prefix(), iface.ifindex, net::Ipv4Address{}, 0};
        entry.learned_from = net::Ipv4Address{};
        table_[entry.route.prefix] = entry;
        rib_.set_route(entry.route);
    }
    TableEntry self;
    self.route = Route{net::Prefix::host(router_->router_id()), -1, net::Ipv4Address{}, 0};
    table_[self.route.prefix] = self;
    rib_.set_route(self.route);
}

void DvAgent::on_periodic() {
    scan_timeouts();
    send_updates();
}

void DvAgent::send_updates() {
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        DvUpdate update;
        update.entries.reserve(table_.size());
        for (const auto& [prefix, entry] : table_) {
            int metric = entry.route.metric;
            // Split horizon with poisoned reverse: routes using this
            // interface are advertised back as unreachable.
            if (entry.route.ifindex == iface.ifindex &&
                !entry.learned_from.is_unspecified()) {
                metric = config_.infinity;
            }
            if (entry.deleting) metric = config_.infinity;
            update.entries.push_back(
                DvUpdate::Entry{prefix, std::min(metric, config_.infinity)});
        }
        router_->send_control(iface.ifindex, net::kAllRouters, net::IpProto::kRip, "dv",
                              update.encode());
    }
}

void DvAgent::schedule_triggered() {
    if (triggered_pending_) return;
    triggered_pending_ = true;
    triggered_.arm(config_.triggered_delay);
}

void DvAgent::install(const net::Prefix& prefix, const TableEntry& entry) {
    table_[prefix] = entry;
    rib_.set_route(entry.route);
}

void DvAgent::start_deleting(TableEntry& entry) {
    entry.deleting = true;
    entry.route.metric = config_.infinity;
    entry.gc_at = router_->simulator().now() + config_.gc_delay;
    rib_.remove_route(entry.route.prefix);
    schedule_triggered();
}

void DvAgent::on_message(int ifindex, const net::Packet& packet) {
    auto update = DvUpdate::decode(packet.payload);
    if (!update) return;
    const auto& iface = router_->interface(ifindex);
    if (iface.segment == nullptr) return;
    const int link_cost = std::max(1, iface.segment->metric());
    const sim::Time now = router_->simulator().now();

    Rib::UpdateBatch batch{rib_};
    for (const auto& adv : update->entries) {
        const int metric = std::min(adv.metric + link_cost, config_.infinity);
        auto it = table_.find(adv.prefix);
        if (it == table_.end()) {
            if (metric >= config_.infinity) continue;
            TableEntry entry;
            entry.route = Route{adv.prefix, ifindex, packet.src, metric};
            entry.learned_from = packet.src;
            entry.expires = now + config_.route_timeout;
            install(adv.prefix, entry);
            schedule_triggered();
            continue;
        }
        TableEntry& entry = it->second;
        if (entry.learned_from.is_unspecified()) continue; // connected wins
        const bool same_neighbor = entry.learned_from == packet.src &&
                                   entry.route.ifindex == ifindex;
        if (same_neighbor) {
            if (metric >= config_.infinity) {
                if (!entry.deleting) start_deleting(entry);
                continue;
            }
            entry.expires = now + config_.route_timeout;
            if (entry.deleting || entry.route.metric != metric) {
                entry.deleting = false;
                entry.route.metric = metric;
                rib_.set_route(entry.route);
                schedule_triggered();
            }
        } else if (metric < entry.route.metric ||
                   (entry.deleting && metric < config_.infinity)) {
            entry.route = Route{adv.prefix, ifindex, packet.src, metric};
            entry.learned_from = packet.src;
            entry.expires = now + config_.route_timeout;
            entry.deleting = false;
            rib_.set_route(entry.route);
            schedule_triggered();
        }
    }
}

void DvAgent::scan_timeouts() {
    const sim::Time now = router_->simulator().now();
    Rib::UpdateBatch batch{rib_};
    for (auto it = table_.begin(); it != table_.end();) {
        TableEntry& entry = it->second;
        if (entry.learned_from.is_unspecified()) {
            ++it;
            continue;
        }
        if (entry.deleting && now >= entry.gc_at) {
            it = table_.erase(it);
            continue;
        }
        if (!entry.deleting && entry.expires != 0 && now >= entry.expires) {
            start_deleting(entry);
        }
        ++it;
    }
}

DvRoutingDomain::DvRoutingDomain(topo::Network& network, DvConfig config) {
    for (const auto& router : network.routers()) {
        agents_.emplace(router.get(), std::make_unique<DvAgent>(*router, config));
    }
}

} // namespace pimlib::unicast
