#include "unicast/link_state.hpp"

#include <limits>
#include <queue>

#include "net/buffer.hpp"
#include "topo/segment.hpp"

namespace pimlib::unicast {

namespace {
constexpr std::uint8_t kTypeHello = 1;
constexpr std::uint8_t kTypeLsa = 2;
constexpr int kInf = std::numeric_limits<int>::max() / 4;
} // namespace

std::vector<std::uint8_t> Lsa::encode() const {
    net::BufWriter w(16 + links.size() * 6 + prefixes.size() * 7);
    w.put_u8(kTypeLsa);
    w.put_addr(origin);
    w.put_u32(seq);
    w.put_u16(static_cast<std::uint16_t>(links.size()));
    for (const Link& l : links) {
        w.put_addr(l.neighbor);
        w.put_u16(static_cast<std::uint16_t>(l.metric));
    }
    w.put_u16(static_cast<std::uint16_t>(prefixes.size()));
    for (const AdvPrefix& p : prefixes) {
        w.put_addr(p.prefix.address());
        w.put_u8(static_cast<std::uint8_t>(p.prefix.length()));
        w.put_u16(static_cast<std::uint16_t>(p.metric));
    }
    return std::vector<std::uint8_t>(w.bytes());
}

std::optional<Lsa> Lsa::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    auto type = r.get_u8();
    if (!type || *type != kTypeLsa) return std::nullopt;
    Lsa lsa;
    auto origin = r.get_addr();
    auto seq = r.get_u32();
    auto nlinks = r.get_u16();
    if (!origin || !seq || !nlinks) return std::nullopt;
    lsa.origin = *origin;
    lsa.seq = *seq;
    for (std::uint16_t i = 0; i < *nlinks; ++i) {
        auto rid = r.get_addr();
        auto metric = r.get_u16();
        if (!rid || !metric) return std::nullopt;
        lsa.links.push_back(Link{*rid, *metric});
    }
    auto nprefixes = r.get_u16();
    if (!nprefixes) return std::nullopt;
    for (std::uint16_t i = 0; i < *nprefixes; ++i) {
        auto addr = r.get_addr();
        auto len = r.get_u8();
        auto metric = r.get_u16();
        if (!addr || !len || !metric.has_value() || *len > 32) return std::nullopt;
        lsa.prefixes.push_back(AdvPrefix{net::Prefix{*addr, *len}, *metric});
    }
    if (!r.at_end()) return std::nullopt;
    return lsa;
}

LsAgent::LsAgent(topo::Router& router, LsConfig config)
    : router_(&router),
      config_(config),
      hello_timer_(router.simulator(), [this] { on_hello_tick(); }),
      refresh_timer_(router.simulator(), [this] { originate_lsa(); }),
      spf_timer_(router.simulator(), [this] {
          spf_pending_ = false;
          run_spf();
      }) {
    router_->set_unicast(&rib_);
    auto handler = [this](int ifindex, const net::Packet& packet) {
        on_message(ifindex, packet);
    };
    router_->register_protocol(net::IpProto::kOspf, kTypeHello, handler);
    router_->register_protocol(net::IpProto::kOspf, kTypeLsa, handler);
    hello_timer_.start(config_.hello_interval);
    refresh_timer_.start(config_.lsa_refresh);
    router_->simulator().schedule(0, [this] {
        send_hellos();
        originate_lsa();
    });
}

void LsAgent::on_hello_tick() {
    expire_neighbors();
    send_hellos();
}

void LsAgent::send_hellos() {
    net::BufWriter w(5);
    w.put_u8(kTypeHello);
    w.put_addr(router_->router_id());
    router_->flood_control(net::kAllRouters, net::IpProto::kOspf, "ls-hello", w.take());
}

void LsAgent::expire_neighbors() {
    const sim::Time now = router_->simulator().now();
    bool changed = false;
    for (auto& [ifindex, neighbors] : neighbors_) {
        for (auto it = neighbors.begin(); it != neighbors.end();) {
            if (now - it->second.last_heard > config_.dead_interval) {
                it = neighbors.erase(it);
                changed = true;
            } else {
                ++it;
            }
        }
    }
    // Age out LSAs from routers we have not heard of in a long time.
    for (auto it = lsdb_.begin(); it != lsdb_.end();) {
        if (it->first != router_->router_id() &&
            now - it->second.received_at > config_.lsa_max_age) {
            it = lsdb_.erase(it);
            changed = true;
        } else {
            ++it;
        }
    }
    if (changed) {
        originate_lsa();
        schedule_spf();
    }
}

void LsAgent::originate_lsa() {
    Lsa lsa;
    lsa.origin = router_->router_id();
    lsa.seq = ++own_seq_;
    for (const auto& [ifindex, neighbors] : neighbors_) {
        const auto& iface = router_->interface(ifindex);
        if (!iface.up || iface.segment == nullptr) continue;
        for (const auto& [rid, nbr] : neighbors) {
            lsa.links.push_back(Lsa::Link{rid, iface.segment->metric()});
        }
    }
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        lsa.prefixes.push_back(Lsa::AdvPrefix{iface.segment->prefix(),
                                              iface.segment->metric()});
    }
    lsa.prefixes.push_back(
        Lsa::AdvPrefix{net::Prefix::host(router_->router_id()), 0});
    lsdb_[lsa.origin] = DbEntry{lsa, router_->simulator().now()};
    flood(lsa, /*except_ifindex=*/-1);
    schedule_spf();
}

void LsAgent::flood(const Lsa& lsa, int except_ifindex) {
    router_->flood_control(net::kAllRouters, net::IpProto::kOspf, "ls-lsa", lsa.encode(),
                           except_ifindex);
}

void LsAgent::on_message(int ifindex, const net::Packet& packet) {
    if (packet.payload.empty()) return;
    if (packet.payload.front() == kTypeHello) {
        net::BufReader r(packet.payload);
        (void)r.get_u8();
        auto rid = r.get_addr();
        if (!rid) return;
        auto& neighbors = neighbors_[ifindex];
        auto it = neighbors.find(*rid);
        const bool is_new = it == neighbors.end();
        neighbors[*rid] = Neighbor{packet.src, router_->simulator().now()};
        if (is_new) originate_lsa(); // adjacency came up
        return;
    }
    auto lsa = Lsa::decode(packet.payload);
    if (!lsa) return;
    if (lsa->origin == router_->router_id()) return; // our own, looped back
    auto it = lsdb_.find(lsa->origin);
    if (it != lsdb_.end() && it->second.lsa.seq >= lsa->seq) {
        // Old news; still refresh the age so periodic refresh keeps it alive.
        if (it->second.lsa.seq == lsa->seq) {
            it->second.received_at = router_->simulator().now();
        }
        return;
    }
    lsdb_[lsa->origin] = DbEntry{*lsa, router_->simulator().now()};
    flood(*lsa, ifindex);
    schedule_spf();
}

void LsAgent::schedule_spf() {
    if (spf_pending_) return;
    spf_pending_ = true;
    spf_timer_.arm(config_.spf_delay);
}

void LsAgent::run_spf() {
    // Dijkstra over the LSDB. An edge u->v is used only if v's LSA also
    // lists u (bidirectional check), preventing routes through half-dead
    // links.
    const net::Ipv4Address self = router_->router_id();
    std::map<net::Ipv4Address, int> dist;
    std::map<net::Ipv4Address, net::Ipv4Address> first_hop; // rid -> first-hop rid
    using Item = std::pair<int, net::Ipv4Address>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    dist[self] = 0;
    queue.emplace(0, self);

    auto lists_link_back = [&](net::Ipv4Address from, net::Ipv4Address to) {
        auto it = lsdb_.find(to);
        if (it == lsdb_.end()) return false;
        for (const auto& link : it->second.lsa.links) {
            if (link.neighbor == from) return true;
        }
        return false;
    };

    while (!queue.empty()) {
        auto [d, rid] = queue.top();
        queue.pop();
        auto dit = dist.find(rid);
        if (dit != dist.end() && d > dit->second) continue;
        auto lit = lsdb_.find(rid);
        if (lit == lsdb_.end()) continue;
        for (const auto& link : lit->second.lsa.links) {
            if (!lists_link_back(rid, link.neighbor)) continue;
            const int nd = d + link.metric;
            auto nit = dist.find(link.neighbor);
            if (nit != dist.end() && nd >= nit->second) continue;
            dist[link.neighbor] = nd;
            first_hop[link.neighbor] = (rid == self) ? link.neighbor : first_hop.at(rid);
            queue.emplace(nd, link.neighbor);
        }
    }

    // Resolve a first-hop router id to (ifindex, address) via hello state.
    auto resolve = [&](net::Ipv4Address rid)
        -> std::optional<std::pair<int, net::Ipv4Address>> {
        for (const auto& [ifindex, neighbors] : neighbors_) {
            auto it = neighbors.find(rid);
            if (it != neighbors.end()) return {{ifindex, it->second.address}};
        }
        return std::nullopt;
    };

    Rib::UpdateBatch batch{rib_};
    rib_.clear();
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        rib_.set_route(Route{iface.segment->prefix(), iface.ifindex, net::Ipv4Address{}, 0});
    }
    rib_.set_route(Route{net::Prefix::host(self), -1, net::Ipv4Address{}, 0});

    // Best advertiser per prefix.
    std::map<net::Prefix, std::pair<int, net::Ipv4Address>> best; // prefix -> (metric, advertiser)
    for (const auto& [rid, entry] : lsdb_) {
        if (rid == self) continue;
        auto dit = dist.find(rid);
        if (dit == dist.end()) continue;
        for (const auto& adv : entry.lsa.prefixes) {
            const int total = dit->second + adv.metric;
            auto bit = best.find(adv.prefix);
            if (bit == best.end() || total < bit->second.first ||
                (total == bit->second.first && rid < bit->second.second)) {
                best[adv.prefix] = {total, rid};
            }
        }
    }
    for (const auto& [prefix, metric_rid] : best) {
        if (rib_.find(prefix) != nullptr) continue; // connected wins
        auto hop_rid_it = first_hop.find(metric_rid.second);
        if (hop_rid_it == first_hop.end()) continue;
        auto hop = resolve(hop_rid_it->second);
        if (!hop) continue;
        rib_.set_route(Route{prefix, hop->first, hop->second, metric_rid.first});
    }
}

LsRoutingDomain::LsRoutingDomain(topo::Network& network, LsConfig config) {
    for (const auto& router : network.routers()) {
        agents_.emplace(router.get(), std::make_unique<LsAgent>(*router, config));
    }
}

LsAgent& LsRoutingDomain::agent_for(const topo::Router& router) {
    return *agents_.at(&router);
}

} // namespace pimlib::unicast
