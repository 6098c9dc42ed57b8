#include "scenario/script.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "check/scenario.hpp"

namespace pimlib::scenario {
namespace {

using Words = std::vector<std::string>;

[[noreturn]] void fail(int line, const std::string& message) {
    throw std::runtime_error("line " + std::to_string(line) + ": " + message);
}

/// The one checked number parser: the whole token must be a T inside
/// [min, max] (NaN never is).
template <typename T>
T number(int line, std::string_view text, const std::string& what, T min = T{0},
         T max = std::numeric_limits<T>::max()) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !(value >= min && value <= max)) {
        fail(line, "bad " + what + " '" + std::string(text) + "'");
    }
    return value;
}

sim::Time parse_time(int line, std::string_view text) {
    if (text.starts_with('-')) fail(line, "negative time '" + std::string(text) + "'");
    const std::size_t unit_at = text.find_first_not_of("0123456789");
    const std::string_view unit = unit_at == text.npos ? "" : text.substr(unit_at);
    const sim::Time scale = unit == "s"    ? sim::kSecond
                            : unit == "ms" ? sim::kMillisecond
                            : unit == "us" ? sim::kMicrosecond
                                           : 0;
    if (scale == 0) fail(line, "bad time '" + std::string(text) + "' (use s/ms/us)");
    return scale * number<sim::Time>(line, text.substr(0, unit_at), "time", 0,
                                     std::numeric_limits<sim::Time>::max() / sim::kSecond);
}

net::GroupAddress parse_group(int line, const std::string& text) {
    auto addr = net::Ipv4Address::parse(text);
    if (!addr || !addr->is_multicast()) fail(line, "bad group '" + text + "'");
    return net::GroupAddress{*addr};
}

std::uint8_t priority(int line, const Words& w, std::size_t i) {
    return w.size() > i ? static_cast<std::uint8_t>(number<int>(line, w[i], "priority", 0, 255))
                        : std::uint8_t{0};
}

/// Applies the key=value tokens w[from…] through `keys`.
void options(int line, const Words& w, std::size_t from, const std::string& what,
             const std::map<std::string, std::function<void(const std::string&)>>& keys) {
    for (std::size_t i = from; i < w.size(); ++i) {
        const std::size_t eq = w[i].find('=');
        const auto it = eq == std::string::npos ? keys.end() : keys.find(w[i].substr(0, eq));
        if (it == keys.end()) fail(line, "unknown " + what + " option '" + w[i] + "'");
        it->second(w[i].substr(eq + 1));
    }
}

Words tokenize(const std::string& raw) {
    Words tokens;
    std::istringstream stream(raw);
    std::string token;
    while (stream >> token && token.front() != '#') tokens.push_back(token);
    return tokens;
}

/// Parses the verb and arguments of an `at` line (or a fault candidate).
Action parse_action(int line, sim::Time at, const std::string& verb, Words args) {
    Action a{line, at, verb, args};
    const auto arity = [&](std::size_t n, const char* usage) {
        if (args.size() != n) fail(line, verb + " takes " + usage);
    };
    if (verb == "join" || verb == "leave") {
        arity(2, "HOST GROUP");
        a.group = parse_group(line, args[1]);
    } else if (verb == "send") {
        if (args.size() < 2) fail(line, "send takes HOST GROUP [count=N] [interval=T]");
        a.group = parse_group(line, args[1]);
        options(line, args, 2, "send",
                {{"count", [&](const std::string& v) { a.count = number<int>(line, v, "count", 1); }},
                 {"interval", [&](const std::string& v) { a.interval = parse_time(line, v); }}});
    } else if (verb == "fail-link" || verb == "heal-link") {
        arity(2, "ROUTER ROUTER");
    } else if (verb == "crash-router" || verb == "restart-router") {
        arity(1, "ROUTER");
    } else if (verb == "loss-link" || verb == "loss-lan") {
        const std::size_t n = verb == "loss-link" ? 2 : 1;
        arity(n + 1, n == 2 ? "ROUTER ROUTER RATE" : "LAN RATE");
        a.rate = number<double>(line, args[n], "loss rate", 0.0, std::nextafter(1.0, 0.0));
    } else if (verb == "partition") {
        if (args.empty() || args.size() % 2 != 0) {
            fail(line, "partition needs router pairs: A B [C D ...]");
        }
    } else if (verb == "heal-partition" || verb == "dump-state" || verb == "dump-events" ||
               verb == "snapshot" || verb == "dump-provenance") {
        arity(0, "no arguments");
    } else if (verb == "dump-metrics") {
        if (args.size() > 1 || (!args.empty() && args[0] != "prom" && args[0] != "json")) {
            fail(line, "dump-metrics takes prom|json");
        }
    } else if (verb == "mtrace") {
        arity(3, "SOURCE-HOST DEST-HOST GROUP");
        a.group = parse_group(line, args[2]);
    } else if (verb == "profile") {
        if (args.size() != 1 || (args[0] != "on" && args[0] != "off")) {
            fail(line, "profile takes on|off");
        }
    } else {
        fail(line, "unknown event '" + verb + "'");
    }
    return a;
}

/// "crash-router:R1" / "fail-link:A,C" -> the equivalent Action.
Action parse_candidate(int line, sim::Time at, const std::string& token) {
    const std::size_t colon = token.find(':');
    const std::string verb = token.substr(0, colon);
    if (colon == std::string::npos || (verb != "fail-link" && verb != "crash-router")) {
        fail(line, "fault candidate '" + token + "' must be fail-link:A,B or crash-router:R");
    }
    Words args;
    std::stringstream rest(token.substr(colon + 1));
    for (std::string name; std::getline(rest, name, ',');) args.push_back(name);
    return parse_action(line, at, verb, std::move(args));
}

} // namespace

Script parse_script(std::string_view text) {
    Script s;
    s.text = std::string(text);
    std::istringstream input(s.text);
    std::string raw;
    int line = 0;
    bool in_topology = false;
    bool topology_done = false;

    while (std::getline(input, raw)) {
        ++line;
        const Words w = tokenize(raw);
        if (in_topology) {
            if (!w.empty() && w[0] == "end") {
                in_topology = false;
                topology_done = true;
            } else {
                s.topology += raw + "\n";
            }
            continue;
        }
        if (w.empty()) continue;
        const std::string& word = w[0];
        const auto need = [&](std::size_t n, const std::string& usage) {
            if (w.size() < n + 1) fail(line, word + " takes " + usage);
        };
        const auto time = [line](sim::Time& field) {
            return [line, &field](const std::string& v) { field = parse_time(line, v); };
        };
        const auto count = [line](int& field, const std::string& what, int min) {
            return [line, &field, what, min](const std::string& v) {
                field = number<int>(line, v, what, min);
            };
        };
        const auto real = [line](double& field, const std::string& what) {
            return [line, &field, what](const std::string& v) {
                field = number<double>(line, v, what);
            };
        };

        if (word == "topology") {
            if (topology_done) fail(line, "duplicate topology");
            topology_done = w.size() > 1;
            in_topology = !topology_done;
            if (in_topology) continue;
            if (w[1] != "transit-stub") fail(line, "unknown topology mode '" + w[1] + "'");
            s.transit_stub = true;
            graph::TransitStubOptions& t = s.transit;
            t.transit_domains = 2;
            t.transit_nodes = 3;
            t.stub_domains = 2;
            t.stub_nodes = 3;
            std::uint64_t graph_seed = 0;
            options(line, w, 2, "transit-stub",
                    {{"transit", count(t.transit_domains, "transit", 1)},
                     {"transit-size", count(t.transit_nodes, "transit-size", 1)},
                     {"stubs", count(t.stub_domains, "stubs", 0)},
                     {"stub-size", count(t.stub_nodes, "stub-size", 1)},
                     {"senders", count(s.materialize.senders, "senders", 0)},
                     {"graph-seed", [&](const std::string& v) {
                          graph_seed = number<std::uint64_t>(line, v, "graph-seed");
                      }}});
            // An explicit graph seed wins, then a seed directive seen so far.
            s.graph_seed = graph_seed != 0 ? graph_seed : s.seed != 0 ? s.seed : 1;
        } else if (word == "seed") {
            need(1, "an unsigned integer");
            s.seed = number<std::uint64_t>(line, w[1], "seed");
            if (s.seed != 0) s.churn_config.seed = s.seed;
        } else if (word == "workload") {
            need(1, "churn|flash|sender");
            workload::ChurnConfig& c = s.churn_config;
            if (w[1] == "churn") {
                s.churn = true;
                options(line, w, 2, "churn",
                        {{"rate", real(c.joins_per_sec, "rate")},
                         {"mean", time(c.session.mean)},
                         {"groups", count(c.groups, "groups", 1)},
                         {"zipf", real(c.zipf_exponent, "zipf")},
                         {"bank", count(s.bank_capacity, "bank", 1)},
                         {"session",
                          [&](const std::string& v) {
                              using Kind = workload::SessionDuration::Kind;
                              if (v != "fixed" && v != "exponential" && v != "pareto") {
                                  fail(line, "session= takes fixed|exponential|pareto");
                              }
                              c.session.kind = v == "fixed"         ? Kind::kFixed
                                               : v == "exponential" ? Kind::kExponential
                                                                    : Kind::kPareto;
                          }},
                         {"shape", real(c.session.pareto_shape, "shape")},
                         {"start", time(c.start)},
                         {"stop", time(c.stop)}});
            } else if (w[1] == "flash") {
                s.churn = true;
                workload::FlashCrowd crowd;
                options(line, w, 2, "flash",
                        {{"at", time(crowd.at)},
                         {"joins", count(crowd.joins, "joins", 1)},
                         {"window", time(crowd.window)},
                         {"hold", time(crowd.hold.mean)},
                         {"rank", count(crowd.group_rank, "rank", 0)}});
                if (crowd.joins <= 0) fail(line, "flash needs joins=N");
                c.flash_crowds.push_back(crowd);
            } else if (w[1] == "sender") {
                need(3, "sender HOST GROUP [on= off= interval= start= stop=]");
                Script::Sender spec{w[2], parse_group(line, w[3]), {}};
                workload::OnOffSenderConfig& o = spec.config;
                options(line, w, 4, "sender",
                        {{"on", time(o.on)},
                         {"off", time(o.off)},
                         {"interval", time(o.interval)},
                         {"start", time(o.start)},
                         {"stop", time(o.stop)}});
                s.senders.push_back(std::move(spec));
            } else {
                fail(line, "unknown workload '" + w[1] + "' (churn|flash|sender)");
            }
        } else if (word == "protocol") {
            need(1, "pim-sm|pim-dm|dvmrp|cbt|mospf");
            static const Words kProtocols = {"pim-sm", "pim-dm", "dvmrp", "cbt", "mospf"};
            if (std::find(kProtocols.begin(), kProtocols.end(), w[1]) == kProtocols.end()) {
                fail(line, "unknown protocol '" + w[1] + "'");
            }
            s.protocol = w[1];
        } else if (word == "rp") {
            need(2, "GROUP ROUTER [ROUTER…]");
            s.rps.push_back({parse_group(line, w[1]), {w.begin() + 2, w.end()}});
        } else if (word == "candidate-bsr") {
            need(1, "ROUTER [priority]");
            s.candidate_bsrs.push_back({{}, w[1], priority(line, w, 2)});
        } else if (word == "candidate-rp") {
            need(2, "<group-or-prefix> <router> [priority]");
            const auto prefix = net::Prefix::parse(w[1]);
            s.candidate_rps.push_back(
                {prefix ? *prefix : net::Prefix::host(parse_group(line, w[1]).address()), w[2],
                 priority(line, w, 3)});
        } else if (word == "spt-policy") {
            need(1, "immediate|never|threshold M WINDOW_MS");
            if (w[1] == "immediate") {
                s.spt_policy = pim::SptPolicy::immediate();
            } else if (w[1] == "never") {
                s.spt_policy = pim::SptPolicy::never();
            } else if (w[1] == "threshold") {
                need(3, "threshold M WINDOW_MS");
                s.spt_policy = pim::SptPolicy::threshold(
                    number<int>(line, w[2], "threshold packets", 1),
                    number<sim::Time>(line, w[3], "threshold window", 1) * sim::kMillisecond);
            } else {
                fail(line, "unknown spt-policy '" + w[1] + "'");
            }
        } else if (word == "trace" || word == "provenance" || word == "profile" ||
                   word == "watchdog" || word == "telemetry") {
            if (w.size() > 2 || (word != "trace" && word != "provenance" &&
                                 (w.size() < 2 || (w[1] != "on" && w[1] != "off")))) {
                fail(line, word + " takes on|off");
            }
            const bool on = w.size() > 1 && w[1] == "on";
            if (word == "trace") s.trace = on;
            if (word == "watchdog") s.watchdog = on;
            if (word == "telemetry") s.telemetry = w[1] != "off";
            if (word == "provenance") s.provenance = on;
            if (word == "profile") s.profile = on;
        } else if (word == "dump-profile" || word == "dump-timeline") {
            need(1, "a file path");
            (word == "dump-profile" ? s.profile_path : s.timeline_path) = w[1];
        } else if (word == "snapshot-every" || word == "monitor") {
            if (word == "monitor" && (w.size() != 3 || w[1] != "trees")) {
                fail(line, "monitor takes: trees <interval>");
            }
            need(1, "a positive time");
            sim::Time& every = word == "monitor" ? s.monitor_interval : s.snapshot_every;
            every = parse_time(line, w.back());
            if (every <= 0) fail(line, word + " needs a positive time");
        } else if (word == "mutate") {
            need(1, "a mutation name");
            const Words& known = check::known_mutations();
            if (std::find(known.begin(), known.end(), w[1]) == known.end()) {
                fail(line, "unknown mutation '" + w[1] + "' (see pimcheck --list)");
            }
            s.mutations.push_back(w[1]);
        } else if (word == "at") {
            if (!topology_done) fail(line, "'at' before topology block");
            need(2, "TIME VERB [ARGS…]");
            Action a = parse_action(line, parse_time(line, w[1]), w[2], {w.begin() + 3, w.end()});
            static const Words kLossy = {"leave",     "fail-link", "crash-router",
                                         "loss-link", "loss-lan",  "partition"};
            if (std::find(kLossy.begin(), kLossy.end(), a.verb) != kLossy.end()) {
                s.loss_possible = true;
            }
            s.actions.push_back(std::move(a));
        } else if (word == "expect") {
            if (w.size() != 4) fail(line, "expect takes HOST GROUP N");
            s.expects.push_back(
                {line, w[1], parse_group(line, w[2]), number<std::size_t>(line, w[3], "count")});
        } else if (word == "run" || word == "horizon") {
            need(1, "a time");
            (word == "run" ? s.run_until : s.horizon) = parse_time(line, w[1]);
        } else if (word == "fault-slot") {
            need(2, "TIME [repair=DUR] CANDIDATE…");
            FaultSlot slot{parse_time(line, w[1]), 0, {}};
            for (std::size_t i = 2; i < w.size(); ++i) {
                if (w[i].starts_with("repair=")) {
                    slot.repair = parse_time(line, w[i].substr(7));
                } else {
                    slot.candidates.push_back(parse_candidate(line, slot.at, w[i]));
                }
            }
            if (slot.candidates.empty()) fail(line, "fault-slot needs a candidate");
            s.fault_slots.push_back(std::move(slot));
        } else if (word == "oracle") {
            need(1, "NAME [ARGS…]");
            OracleSpec o{line, w[1], {}, 0, 0};
            std::size_t first_option = 2;
            while (first_option < w.size() && w[first_option].find('=') == std::string::npos) {
                o.args.push_back(w[first_option++]);
            }
            options(line, w, first_option, "oracle",
                    {{"from", time(o.from)}, {"crossings", count(o.crossings, "crossings", 1)}});
            s.oracles.push_back(std::move(o));
        } else {
            fail(line, "unknown directive '" + word + "'");
        }
    }
    if (in_topology) fail(line, "topology block has no 'end'");
    if (!topology_done) fail(line, "missing topology block");
    if (s.run_until == 0) fail(line, "missing 'run' directive");
    return s;
}

std::string format_time(sim::Time t) {
    return t % sim::kMillisecond == 0 ? std::to_string(t / sim::kMillisecond) + "ms"
                                      : std::to_string(t) + "us";
}

std::string fault_label(const Action& fault) {
    std::string label = fault.verb;
    for (const std::string& arg : fault.args) label += "-" + arg;
    return label;
}

std::string render_fault(const FaultSlot& slot, const Action& fault) {
    std::string args;
    for (const std::string& arg : fault.args) args += " " + arg;
    std::string out = "at " + format_time(slot.at) + " " + fault.verb + args + "\n";
    if (slot.repair > 0) {
        out += "at " + format_time(slot.at + slot.repair) + " " +
               (fault.verb == "fail-link" ? "heal-link" : "restart-router") + args + "\n";
    }
    return out;
}

} // namespace pimlib::scenario
