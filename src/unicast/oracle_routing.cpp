#include "unicast/oracle_routing.hpp"

#include <cassert>
#include <limits>
#include <map>
#include <queue>
#include <stdexcept>

#include "topo/segment.hpp"

namespace pimlib::unicast {

namespace {

constexpr int kInf = std::numeric_limits<int>::max() / 4;

/// Edge in the router-level graph: to a peer router over a segment.
struct Edge {
    const topo::Router* peer;
    const topo::Segment* segment;
    int out_ifindex;        // our interface onto the segment
    net::Ipv4Address peer_addr; // peer's address on the segment
};

/// Collects usable adjacencies of `router` (segment up, both interfaces up).
std::vector<Edge> edges_of(const topo::Router& router) {
    std::vector<Edge> edges;
    for (const auto& iface : router.interfaces()) {
        if (!iface.up || iface.segment == nullptr || !iface.segment->is_up()) continue;
        for (const auto& att : iface.segment->attachments()) {
            if (att.node == &router) continue;
            auto* peer = dynamic_cast<const topo::Router*>(att.node);
            if (peer == nullptr) continue; // hosts don't forward
            if (!peer->interface(att.ifindex).up) continue;
            edges.push_back(Edge{peer, iface.segment, iface.ifindex,
                                 peer->interface(att.ifindex).address});
        }
    }
    return edges;
}

} // namespace

OracleRouting::OracleRouting(topo::Network& network, const RouteTables* initial)
    : network_(&network) {
    if (initial != nullptr) {
        assert(initial->size() == network_->routers().size());
        for (std::size_t i = 0; i < initial->size(); ++i) {
            auto& rib = ribs_.emplace_back(std::make_unique<Rib>());
            rib->assign((*initial)[i]);
            network_->router(i).set_unicast(rib.get());
        }
    } else {
        recompute();
    }
    topo_token_ = network_->add_topology_observer([this] { recompute(); });
}

OracleRouting::~OracleRouting() { network_->remove_topology_observer(topo_token_); }

Rib* OracleRouting::find_rib(const topo::Router& router) const {
    const auto& routers = network_->routers();
    for (std::size_t i = 0; i < ribs_.size(); ++i) {
        if (routers[i].get() == &router) return ribs_[i].get();
    }
    return nullptr;
}

Rib& OracleRouting::rib_for(const topo::Router& router) {
    Rib* rib = find_rib(router);
    if (rib == nullptr) throw std::out_of_range("no rib for router " + router.name());
    return *rib;
}

RouteTables OracleRouting::tables() const {
    RouteTables out;
    out.reserve(ribs_.size());
    for (const auto& rib : ribs_) out.push_back(rib->routes());
    return out;
}

void OracleRouting::recompute() {
    const auto& routers = network_->routers();
    for (std::size_t i = 0; i < routers.size(); ++i) {
        // A router may have been added after construction; adopt it.
        if (i == ribs_.size()) {
            routers[i]->set_unicast(ribs_.emplace_back(std::make_unique<Rib>()).get());
        }
        compute_for(*routers[i], *ribs_[i]);
    }
}

void OracleRouting::compute_for(const topo::Router& source, Rib& rib) {
    // Dijkstra over the router graph; edge weight = segment metric.
    // Deterministic tie-break: lower router node id wins.
    std::map<const topo::Router*, int> dist;
    std::map<const topo::Router*, Edge> first_hop; // first edge out of `source`
    using QueueItem = std::tuple<int, int, const topo::Router*>; // dist, id, router
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;

    dist[&source] = 0;
    queue.emplace(0, source.id(), &source);

    while (!queue.empty()) {
        auto [d, id, router] = queue.top();
        queue.pop();
        auto it = dist.find(router);
        if (it != dist.end() && d > it->second) continue;
        for (const Edge& edge : edges_of(*router)) {
            const int nd = d + edge.segment->metric();
            auto dit = dist.find(edge.peer);
            const bool better = dit == dist.end() || nd < dit->second;
            // Equal-cost determinism: keep the path whose first hop was
            // discovered first (stable because queue pops are ordered).
            if (!better) continue;
            dist[edge.peer] = nd;
            first_hop[edge.peer] = (router == &source) ? edge : first_hop.at(router);
            queue.emplace(nd, edge.peer->id(), edge.peer);
        }
    }

    Rib::UpdateBatch batch{rib};
    rib.clear();

    // Connected routes.
    for (const auto& iface : source.interfaces()) {
        if (!iface.up || iface.segment == nullptr || !iface.segment->is_up()) continue;
        rib.set_route(Route{iface.segment->prefix(), iface.ifindex, net::Ipv4Address{}, 0});
    }
    rib.set_route(Route{net::Prefix::host(source.router_id()), -1, net::Ipv4Address{}, 0});

    // Remote segment prefixes: reachable via the best-attached router.
    for (const auto& segment : network_->segments()) {
        if (!segment->is_up()) continue;
        if (source.ifindex_on(*segment).has_value()) continue; // connected
        int best = kInf;
        const topo::Router* best_router = nullptr;
        for (const auto& att : segment->attachments()) {
            auto* r = dynamic_cast<const topo::Router*>(att.node);
            if (r == nullptr || !r->interface(att.ifindex).up) continue;
            auto it = dist.find(r);
            if (it == dist.end()) continue;
            const int total = it->second + segment->metric();
            if (total < best || (total == best && best_router != nullptr &&
                                 r->id() < best_router->id())) {
                best = total;
                best_router = r;
            }
        }
        if (best_router == nullptr || best_router == &source) continue;
        const Edge& hop = first_hop.at(best_router);
        rib.set_route(Route{segment->prefix(), hop.out_ifindex, hop.peer_addr, best});
    }

    // Router-id /32s.
    for (const auto& router : network_->routers()) {
        if (router.get() == &source) continue;
        auto it = dist.find(router.get());
        if (it == dist.end()) continue;
        const Edge& hop = first_hop.at(router.get());
        rib.set_route(Route{net::Prefix::host(router->router_id()), hop.out_ifindex,
                            hop.peer_addr, it->second});
    }
}

std::optional<int> OracleRouting::distance(const topo::Router& from,
                                           const topo::Router& to) const {
    const Rib* rib = find_rib(from);
    if (rib == nullptr) return std::nullopt;
    if (&from == &to) return 0;
    const Route* route = rib->lookup_route(to.router_id());
    if (route == nullptr || route->prefix.length() != 32) return std::nullopt;
    return route->metric;
}

} // namespace pimlib::unicast
