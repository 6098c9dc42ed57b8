// Routing information base: longest-prefix-match table with change
// observers. This is the "protocol independent" boundary from the paper —
// multicast protocols consume lookups and change notifications from the RIB
// without knowing whether a distance-vector protocol, a link-state protocol,
// or a static oracle filled it in.
#pragma once

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

    /// The stored route whose prefix best matches dst, if any. The pointer
    /// is valid until the next change.
    [[nodiscard]] const Route* lookup_route(net::Ipv4Address dst) const;
    /// Exact-match fetch; valid until the next change.
    [[nodiscard]] const Route* find(net::Prefix prefix) const;

    [[nodiscard]] std::size_t size() const { return routes_.size(); }

    /// Every route, in the table's own order. Replacing a whole table with
    /// assign() of another table's routes() copies one block.
    [[nodiscard]] const std::vector<Route>& routes() const { return routes_; }
    /// Replaces every route; observers notified once if anything changed.
    /// `routes` must be another Rib's routes().
    void assign(const std::vector<Route>& routes);

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

    /// Sort key: longer prefixes first, then by network address.
    [[nodiscard]] static std::uint64_t key_of(net::Prefix prefix) {
        return static_cast<std::uint64_t>(32 - prefix.length()) << 32 |
               prefix.address().to_uint();
    }
    [[nodiscard]] std::vector<Route>::const_iterator position(net::Prefix prefix) const;

    // One sorted block (key_of order), so longest-prefix match is a binary
    // search per prefix length present (lengths_, bit per length) from /32
    // down, and copying a table is one allocation.
    std::vector<Route> routes_;
    std::uint64_t lengths_ = 0;
    std::map<int, Observer> observers_;
    int next_token_ = 1;
    int suspend_depth_ = 0;
    bool dirty_ = false;
};

} // namespace pimlib::unicast
