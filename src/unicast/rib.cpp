#include "unicast/rib.hpp"

#include <algorithm>

namespace pimlib::unicast {

std::vector<Route>::const_iterator Rib::position(net::Prefix prefix) const {
    const std::uint64_t key = key_of(prefix);
    return std::lower_bound(routes_.begin(), routes_.end(), key,
                            [](const Route& r, std::uint64_t k) { return key_of(r.prefix) < k; });
}

void Rib::set_route(const Route& route) {
    const auto at = position(route.prefix);
    if (at != routes_.end() && at->prefix == route.prefix) {
        if (*at == route) return; // no-op refresh: keep observers quiet
        routes_[static_cast<std::size_t>(at - routes_.begin())] = route;
    } else {
        routes_.insert(at, route);
        lengths_ |= std::uint64_t{1} << route.prefix.length();
    }
    changed();
}

bool Rib::remove_route(net::Prefix prefix) {
    const auto at = position(prefix);
    if (at == routes_.end() || at->prefix != prefix) return false;
    routes_.erase(at);
    changed();
    return true;
}

void Rib::clear() {
    if (routes_.empty()) return;
    routes_.clear();
    lengths_ = 0;
    changed();
}

void Rib::assign(const std::vector<Route>& routes) {
    if (routes == routes_) return;
    routes_ = routes;
    lengths_ = 0;
    for (const Route& r : routes_) lengths_ |= std::uint64_t{1} << r.prefix.length();
    changed();
}

const Route* Rib::lookup_route(net::Ipv4Address dst) const {
    // A length bit may outlive its last route (remove_route keeps it): the
    // search then just misses.
    for (int len = 32; len >= 0; --len) {
        if ((lengths_ >> len & 1) == 0) continue;
        const Route* route = find(net::Prefix{dst, len});
        if (route != nullptr) return route;
    }
    return nullptr;
}

std::optional<topo::RouteLookupResult> Rib::lookup(net::Ipv4Address dst) const {
    const Route* route = lookup_route(dst);
    if (route == nullptr) return std::nullopt;
    return topo::RouteLookupResult{route->ifindex, route->next_hop, route->metric};
}

const Route* Rib::find(net::Prefix prefix) const {
    const auto at = position(prefix);
    return at != routes_.end() && at->prefix == prefix ? &*at : nullptr;
}

int Rib::subscribe(Observer observer) {
    const int token = next_token_++;
    observers_.emplace(token, std::move(observer));
    return token;
}

void Rib::unsubscribe(int token) { observers_.erase(token); }

void Rib::changed() {
    if (suspend_depth_ > 0) {
        dirty_ = true;
        return;
    }
    notify();
}

void Rib::notify() {
    // Copy tokens first: an observer may (un)subscribe re-entrantly.
    std::vector<int> tokens;
    tokens.reserve(observers_.size());
    for (const auto& [token, fn] : observers_) tokens.push_back(token);
    for (int token : tokens) {
        auto it = observers_.find(token);
        if (it != observers_.end()) it->second();
    }
}

} // namespace pimlib::unicast
