#include "topo/builder.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pimlib::topo {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
    throw std::runtime_error("line " + std::to_string(line) + ": " + message);
}

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token) {
        if (token.front() == '#') break;
        tokens.push_back(token);
    }
    return tokens;
}

/// Parses "delay=5ms" / "delay=250us" / "metric=3" style options.
struct LinkOptions {
    sim::Time delay = sim::kMillisecond;
    int metric = 1;
};

LinkOptions parse_link_options(int line, const std::vector<std::string>& tokens,
                               std::size_t from) {
    LinkOptions opts;
    for (std::size_t i = from; i < tokens.size(); ++i) {
        const std::string& t = tokens[i];
        const auto eq = t.find('=');
        if (eq == std::string::npos) fail(line, "expected key=value, got '" + t + "'");
        const std::string key = t.substr(0, eq);
        const std::string value = t.substr(eq + 1);
        if (key == "metric") {
            int metric = 0;
            auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), metric);
            if (ec != std::errc{} || p != value.data() + value.size() || metric <= 0) {
                fail(line, "bad metric '" + value + "'");
            }
            opts.metric = metric;
        } else if (key == "delay") {
            long long amount = 0;
            auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), amount);
            if (ec != std::errc{} || amount < 0) fail(line, "bad delay '" + value + "'");
            const std::string unit(p, value.data() + value.size());
            if (unit == "ms") {
                opts.delay = amount * sim::kMillisecond;
            } else if (unit == "us") {
                opts.delay = amount * sim::kMicrosecond;
            } else if (unit == "s") {
                opts.delay = amount * sim::kSecond;
            } else {
                fail(line, "bad delay unit '" + unit + "' (use s, ms or us)");
            }
        } else {
            fail(line, "unknown option '" + key + "'");
        }
    }
    return opts;
}

} // namespace

TopologySpec TopologySpec::parse(std::string_view text) {
    using Kind = Step::Kind;
    TopologySpec spec;
    std::istringstream input{std::string(text)};
    std::string raw;
    int line = 0;
    int segments = 0;
    while (std::getline(input, raw)) {
        ++line;
        const auto tokens = tokenize(raw);
        if (tokens.empty()) continue;
        const std::string& directive = tokens.front();

        auto need_router = [&](const std::string& name) {
            auto it = spec.routers.find(name);
            if (it == spec.routers.end()) fail(line, "unknown router '" + name + "'");
            return it->second;
        };
        auto need_lan = [&](const std::string& name) {
            auto it = spec.lans.find(name);
            if (it == spec.lans.end()) fail(line, "unknown lan '" + name + "'");
            return it->second;
        };
        auto fresh_name = [&](const std::string& name) {
            if (spec.routers.contains(name) || spec.hosts.contains(name) ||
                spec.lans.contains(name)) {
                fail(line, "duplicate name '" + name + "'");
            }
        };

        if (directive == "router") {
            if (tokens.size() < 2) fail(line, "router needs at least one name");
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                fresh_name(tokens[i]);
                spec.routers.emplace(tokens[i], static_cast<int>(spec.routers.size()));
                spec.steps.push_back({.kind = Kind::kRouter, .name = tokens[i]});
            }
        } else if (directive == "lan") {
            if (tokens.size() < 2) fail(line, "lan needs a name");
            fresh_name(tokens[1]);
            Step step{.kind = Kind::kLan};
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                step.routers.push_back(need_router(tokens[i]));
            }
            spec.lans.emplace(tokens[1], segments++);
            spec.steps.push_back(std::move(step));
        } else if (directive == "host") {
            if (tokens.size() != 3) fail(line, "usage: host NAME LAN");
            fresh_name(tokens[1]);
            const int lan = need_lan(tokens[2]);
            spec.hosts.emplace(tokens[1], static_cast<int>(spec.hosts.size()));
            spec.steps.push_back({.kind = Kind::kHost, .name = tokens[1], .lan = lan});
        } else if (directive == "link") {
            if (tokens.size() < 3) fail(line, "usage: link A B [delay=..] [metric=..]");
            const int a = need_router(tokens[1]);
            const int b = need_router(tokens[2]);
            if (a == b) fail(line, "link endpoints must differ");
            const LinkOptions opts = parse_link_options(line, tokens, 3);
            ++segments;
            spec.steps.push_back({.kind = Kind::kLink,
                                  .routers = {a, b},
                                  .delay = opts.delay,
                                  .metric = opts.metric});
        } else if (directive == "attach") {
            if (tokens.size() != 3) fail(line, "usage: attach ROUTER LAN");
            const int router = need_router(tokens[1]);
            spec.steps.push_back(
                {.kind = Kind::kAttach, .routers = {router}, .lan = need_lan(tokens[2])});
        } else {
            fail(line, "unknown directive '" + directive + "'");
        }
    }
    return spec;
}

TopologyBuilder::TopologyBuilder(Network& network, const TopologySpec& spec)
    : network_(&network),
      spec_(&spec),
      router_base_(network.routers().size()),
      host_base_(network.hosts().size()),
      segment_base_(network.segments().size()) {}

TopologyBuilder TopologyBuilder::parse(Network& network, std::string_view spec) {
    auto owned = std::make_unique<const TopologySpec>(TopologySpec::parse(spec));
    TopologyBuilder b = build(network, *owned);
    b.owned_ = std::move(owned);
    return b;
}

TopologyBuilder TopologyBuilder::build(Network& network, const TopologySpec& spec) {
    using Kind = TopologySpec::Step::Kind;
    TopologyBuilder b(network, spec);
    const auto router_at = [&](int i) -> Router& {
        return network.router(b.router_base_ + static_cast<std::size_t>(i));
    };
    const auto lan_at = [&](int id) -> Segment& {
        return network.segment(b.segment_base_ + static_cast<std::size_t>(id));
    };
    for (const TopologySpec::Step& step : spec.steps) {
        switch (step.kind) {
        case Kind::kRouter:
            network.add_router(step.name);
            break;
        case Kind::kLan: {
            Segment& lan = network.add_lan({});
            for (int r : step.routers) network.attach_to_lan(router_at(r), lan);
            break;
        }
        case Kind::kHost:
            network.add_host(step.name, lan_at(step.lan));
            break;
        case Kind::kLink:
            network.add_link(router_at(step.routers[0]), router_at(step.routers[1]),
                             step.delay, step.metric);
            break;
        case Kind::kAttach:
            network.attach_to_lan(router_at(step.routers[0]), lan_at(step.lan));
            break;
        }
    }
    return b;
}

Router& TopologyBuilder::router(const std::string& name) const {
    auto it = spec_->routers.find(name);
    if (it == spec_->routers.end()) throw std::out_of_range("no router named " + name);
    return network_->router(router_base_ + static_cast<std::size_t>(it->second));
}

Host& TopologyBuilder::host(const std::string& name) const {
    auto it = spec_->hosts.find(name);
    if (it == spec_->hosts.end()) throw std::out_of_range("no host named " + name);
    return network_->host(host_base_ + static_cast<std::size_t>(it->second));
}

Segment& TopologyBuilder::lan(const std::string& name) const {
    auto it = spec_->lans.find(name);
    if (it == spec_->lans.end()) throw std::out_of_range("no lan named " + name);
    return network_->segment(segment_base_ + static_cast<std::size_t>(it->second));
}

Segment& TopologyBuilder::link(const std::string& a, const std::string& b) const {
    Segment* segment = network_->find_link(router(a), router(b));
    if (segment == nullptr) {
        throw std::out_of_range("no link between " + a + " and " + b);
    }
    return *segment;
}

} // namespace pimlib::topo
