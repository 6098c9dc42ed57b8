// Routing information base: longest-prefix-match table with change
// observers. This is the "protocol independent" boundary from the paper —
// multicast protocols consume lookups and change notifications from the RIB
// without knowing whether a distance-vector protocol, a link-state protocol,
// or a static oracle filled it in.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/ipv4.hpp"
#include "topo/router.hpp"

namespace pimlib::unicast {

struct Route {
    net::Prefix prefix;
    int ifindex = -1;
    net::Ipv4Address next_hop; // unspecified => directly connected
    int metric = 0;

    friend bool operator==(const Route&, const Route&) = default;
};

class Rib final : public topo::UnicastLookup {
public:
    /// Adds or replaces the route for `route.prefix`. Notifies observers if
    /// anything actually changed (unless suspended, see UpdateBatch).
    void set_route(const Route& route);

    /// Removes the route for `prefix`; returns true if one existed.
    bool remove_route(net::Prefix prefix);

    /// Removes every route; observers notified once if non-empty.
    void clear();

    [[nodiscard]] std::optional<topo::RouteLookupResult>
    lookup(net::Ipv4Address dst) const override;

    /// The stored route whose prefix best matches dst, if any.
    [[nodiscard]] const Route* lookup_route(net::Ipv4Address dst) const;
    /// Exact-match fetch.
    [[nodiscard]] const Route* find(net::Prefix prefix) const;

    [[nodiscard]] std::size_t size() const { return count_; }

    /// Observers run synchronously after each batch of changes.
    using Observer = std::function<void()>;
    int subscribe(Observer observer);
    void unsubscribe(int token);

    // topo::UnicastLookup change-subscription interface.
    int subscribe_changes(std::function<void()> observer) override {
        return subscribe(std::move(observer));
    }
    void unsubscribe_changes(int token) override { unsubscribe(token); }

    /// RAII batching: while alive, set_route/remove_route do not notify;
    /// one notification fires on destruction if anything changed.
    class UpdateBatch {
    public:
        explicit UpdateBatch(Rib& rib) : rib_(&rib) { ++rib_->suspend_depth_; }
        ~UpdateBatch() {
            if (--rib_->suspend_depth_ == 0 && rib_->dirty_) {
                rib_->dirty_ = false;
                rib_->notify();
            }
        }
        UpdateBatch(const UpdateBatch&) = delete;
        UpdateBatch& operator=(const UpdateBatch&) = delete;

    private:
        Rib* rib_;
    };

private:
    friend class UpdateBatch;
    void changed();
    void notify();

    // routes_[len] maps masked network address -> route, so longest-prefix
    // match is a scan from /32 downward with O(log n) per level.
    std::array<std::map<std::uint32_t, Route>, 33> routes_;
    std::size_t count_ = 0;
    std::map<int, Observer> observers_;
    int next_token_ = 1;
    int suspend_depth_ = 0;
    bool dirty_ = false;
};

} // namespace pimlib::unicast
