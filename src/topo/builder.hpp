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

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "topo/network.hpp"

namespace pimlib::topo {

/// A parsed topology text: its directives in text order with every name
/// resolved, plus the name tables. Parsing validates everything, so
/// building from a spec cannot fail and tokenizes nothing: one spec builds
/// any number of identical networks, from any thread.
struct TopologySpec {
    struct Step {
        enum class Kind : std::uint8_t { kRouter, kLan, kHost, kLink, kAttach };
        Kind kind = Kind::kRouter;
        std::string name{};         // router, host
        std::vector<int> routers{}; // lan: attached; link: both ends; attach: one
        int lan = -1;               // host, attach: the LAN's segment
        sim::Time delay = 0;        // link
        int metric = 1;             // link
    };
    std::vector<Step> steps;
    /// Names to router and host positions (Network::routers()/hosts()) and
    /// to LAN segment ids, counted from the spec's first one.
    std::map<std::string, int, std::less<>> routers;
    std::map<std::string, int, std::less<>> hosts;
    std::map<std::string, int, std::less<>> lans;

    /// Throws std::runtime_error with "line N: ..." on malformed input.
    static TopologySpec parse(std::string_view text);
};

class TopologyBuilder {
public:
    /// Builds into `network` (which should be empty). Throws
    /// std::runtime_error with "line N: ..." on malformed input.
    static TopologyBuilder parse(Network& network, std::string_view spec);
    /// Builds `spec` into `network`; `spec` must outlive the builder.
    static TopologyBuilder build(Network& network, const TopologySpec& spec);

    [[nodiscard]] Router& router(const std::string& name) const;
    [[nodiscard]] Host& host(const std::string& name) const;
    [[nodiscard]] Segment& lan(const std::string& name) const;
    /// The point-to-point link between two named routers.
    [[nodiscard]] Segment& link(const std::string& a, const std::string& b) const;

    [[nodiscard]] const TopologySpec& spec() const { return *spec_; }
    [[nodiscard]] std::size_t router_count() const { return spec_->routers.size(); }
    [[nodiscard]] std::size_t host_count() const { return spec_->hosts.size(); }

private:
    TopologyBuilder(Network& network, const TopologySpec& spec);

    Network* network_;
    std::unique_ptr<const TopologySpec> owned_; // parse() only
    const TopologySpec* spec_;
    // Where the spec's first router, host and segment landed in network_.
    std::size_t router_base_;
    std::size_t host_base_;
    std::size_t segment_base_;
};

} // namespace pimlib::topo
