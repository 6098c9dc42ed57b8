// Declarative topology construction from a small text format, so examples,
// benchmarks and downstream users can describe internetworks without builder
// code:
//
//     # Fig. 3 of the paper
//     router A B C D
//     lan    lan0 A
//     host   receiver lan0
//     link   A B
//     link   B C delay=5ms metric=2
//     link   B D
//     lan    lan1 D
//     host   source lan1
//
// Directives: `router NAME...`, `lan NAME ROUTER...`,
// `host NAME LAN`, `link A B [delay=Nms|Nus] [metric=N]`,
// `attach ROUTER LAN`. '#' starts a comment. Errors carry line numbers.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "topo/network.hpp"

namespace pimlib::topo {

class TopologyBuilder {
public:
    /// Builds into `network` (which should be empty). Throws
    /// std::runtime_error with "line N: ..." on malformed input.
    static TopologyBuilder parse(Network& network, std::string_view spec);

    [[nodiscard]] Router& router(const std::string& name) const;
    [[nodiscard]] Host& host(const std::string& name) const;
    [[nodiscard]] Segment& lan(const std::string& name) const;
    /// The point-to-point link between two named routers.
    [[nodiscard]] Segment& link(const std::string& a, const std::string& b) const;

    [[nodiscard]] const std::map<std::string, Segment*>& lans() const { return lans_; }

    [[nodiscard]] std::size_t router_count() const { return routers_.size(); }
    [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

private:
    explicit TopologyBuilder(Network& network) : network_(&network) {}

    Network* network_;
    std::map<std::string, Router*> routers_;
    std::map<std::string, Host*> hosts_;
    std::map<std::string, Segment*> lans_;
};

} // namespace pimlib::topo
