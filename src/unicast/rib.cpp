#include "unicast/rib.hpp"

namespace pimlib::unicast {

void Rib::set_route(const Route& route) {
    auto& level = routes_[static_cast<std::size_t>(route.prefix.length())];
    auto it = level.find(route.prefix.address().to_uint());
    if (it != level.end()) {
        if (it->second == route) return; // no-op refresh: keep observers quiet
        it->second = route;
    } else {
        level.emplace(route.prefix.address().to_uint(), route);
        ++count_;
    }
    changed();
}

bool Rib::remove_route(net::Prefix prefix) {
    auto& level = routes_[static_cast<std::size_t>(prefix.length())];
    if (level.erase(prefix.address().to_uint()) > 0) {
        --count_;
        changed();
        return true;
    }
    return false;
}

void Rib::clear() {
    if (count_ == 0) return;
    for (auto& level : routes_) level.clear();
    count_ = 0;
    changed();
}

const Route* Rib::lookup_route(net::Ipv4Address dst) const {
    for (int len = 32; len >= 0; --len) {
        const auto& level = routes_[static_cast<std::size_t>(len)];
        if (level.empty()) continue;
        const net::Prefix probe{dst, len};
        auto it = level.find(probe.address().to_uint());
        if (it != level.end()) return &it->second;
    }
    return nullptr;
}

std::optional<topo::RouteLookupResult> Rib::lookup(net::Ipv4Address dst) const {
    const Route* route = lookup_route(dst);
    if (route == nullptr) return std::nullopt;
    return topo::RouteLookupResult{route->ifindex, route->next_hop, route->metric};
}

const Route* Rib::find(net::Prefix prefix) const {
    const auto& level = routes_[static_cast<std::size_t>(prefix.length())];
    auto it = level.find(prefix.address().to_uint());
    return it == level.end() ? nullptr : &it->second;
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
