// "Oracle" unicast routing: computes every router's RIB directly from the
// global topology with Dijkstra, the way a converged routing domain would
// look. Used when a scenario wants deterministic, instantly-converged
// unicast routing so the multicast protocol under test is the only moving
// part. Subscribes to the network's topology observers, so link/interface
// up/down events recompute all RIBs automatically; calling recompute()
// by hand remains harmless (idempotent). A caller that builds many
// identical networks (the checker) computes the routes once, keeps
// tables(), and starts every later OracleRouting from them.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "topo/network.hpp"
#include "unicast/rib.hpp"

namespace pimlib::unicast {

/// Every router's routes, by position in topo::Network::routers().
using RouteTables = std::vector<std::vector<Route>>;

class OracleRouting {
public:
    /// Builds RIBs for all routers currently in `network` and installs each
    /// as the router's unicast lookup. With `initial` (another
    /// OracleRouting's tables() over an identical network, before any
    /// fault) the routes are copied from it instead of computed.
    explicit OracleRouting(topo::Network& network, const RouteTables* initial = nullptr);
    ~OracleRouting();

    OracleRouting(const OracleRouting&) = delete;
    OracleRouting& operator=(const OracleRouting&) = delete;

    /// Recomputes all RIBs from the current topology state. Routers keep
    /// their Rib objects (observers survive); only contents change.
    void recompute();

    [[nodiscard]] Rib& rib_for(const topo::Router& router);

    /// Every router's current routes.
    [[nodiscard]] RouteTables tables() const;

    /// Shortest-path metric between two routers under current topology, or
    /// nullopt if partitioned. (Convenience for tests/benchmarks.)
    [[nodiscard]] std::optional<int> distance(const topo::Router& from,
                                              const topo::Router& to) const;

private:
    void compute_for(const topo::Router& router, Rib& rib);
    [[nodiscard]] Rib* find_rib(const topo::Router& router) const;

    topo::Network* network_;
    int topo_token_ = 0;
    std::vector<std::unique_ptr<Rib>> ribs_; // by router position
};

} // namespace pimlib::unicast
