#include "check/invariants.hpp"

#include <algorithm>

namespace pimlib::check {

std::vector<std::string> entry_iif_problems(const topo::Router& router,
                                            const EntryView& entry,
                                            const EntryView* wc_shadow) {
    std::vector<std::string> problems;
    for (const int oif : entry.oifs) {
        if (oif == entry.iif && entry.iif >= 0 && !entry.bidirectional) {
            problems.push_back("iif " + std::to_string(entry.iif) +
                               " also appears in its own oif list");
        }
    }
    if (!entry.root_known) return problems;
    if (entry.wildcard || !entry.rp_bit) {
        // (*,G) roots at the RP, a real (S,G) at its source; both must
        // point the iif along the unicast RPF path toward that root.
        if (entry.wildcard && entry.root == router.router_id()) {
            if (entry.iif != -1) {
                problems.push_back("entry at its own RP has iif " +
                                   std::to_string(entry.iif) + ", want -1");
            }
            return problems;
        }
        const auto route = router.route_to(entry.root);
        if (route && route->ifindex != entry.iif) {
            problems.push_back("iif " + std::to_string(entry.iif) +
                               " disagrees with unicast RPF interface " +
                               std::to_string(route->ifindex) + " toward " +
                               entry.root.to_string());
        }
    } else {
        // Negative cache: must shadow a (*,G) and share its iif (§3.3).
        if (wc_shadow == nullptr) {
            problems.push_back("RP-bit entry outlives its (*,G)");
        } else if (wc_shadow->iif != entry.iif) {
            problems.push_back("RP-bit iif " + std::to_string(entry.iif) +
                               " != (*,G) iif " + std::to_string(wc_shadow->iif));
        }
    }
    return problems;
}

namespace {

std::string segment_name(const std::vector<std::string>& names, int id) {
    const auto i = static_cast<std::size_t>(id);
    return i < names.size() ? names[i] : std::to_string(id);
}

} // namespace

std::vector<Violation> loop_violations(const Crossings& crossings,
                                       const std::vector<std::string>& segment_names,
                                       std::uint64_t ttl_drops) {
    std::vector<Violation> out;
    if (ttl_drops > 0) {
        out.push_back({"forwarding-loop",
                       std::to_string(ttl_drops) +
                           " data packet(s) dropped for TTL exhaustion"});
    }
    int reported = 0;
    for (std::uint64_t seq = 0; seq < crossings.seq_end() && reported < 3; ++seq) {
        for (int seg = 0; seg < crossings.segments() && reported < 3; ++seg) {
            const int count = crossings.count(seq, seg);
            if (count <= kCrossingBound) continue;
            ++reported;
            out.push_back({"forwarding-loop",
                           "seq " + std::to_string(seq) + " crossed segment " +
                               segment_name(segment_names, seg) + " " +
                               std::to_string(count) + " times"});
        }
    }
    return out;
}

std::vector<Violation> duplicate_bound_violations(const std::string& host,
                                                  std::size_t duplicates) {
    std::vector<Violation> out;
    if (duplicates > kDuplicateBound) {
        out.push_back({"duplicate-bound",
                       host + " saw " + std::to_string(duplicates) +
                           " duplicate data packets (bound " +
                           std::to_string(kDuplicateBound) + ")"});
    }
    return out;
}

std::vector<Violation> delivery_violations(const std::string& host,
                                           const std::set<std::uint64_t>& got,
                                           std::uint64_t first_seq,
                                           std::uint64_t last_seq) {
    std::vector<Violation> out;
    std::string missing;
    for (std::uint64_t s = first_seq; s <= last_seq; ++s) {
        if (!got.contains(s)) {
            missing += (missing.empty() ? "" : ",") + std::to_string(s);
        }
    }
    if (!missing.empty()) {
        out.push_back({"delivery", host + " never received seq(s) " + missing});
    }
    return out;
}

std::vector<Violation> steady_duplicate_violations(
    const std::string& host, const std::map<std::uint64_t, int>& steady_copies) {
    std::vector<Violation> out;
    for (const auto& [seq, copies] : steady_copies) {
        if (copies > 1) {
            out.push_back({"steady-duplicate",
                           host + " received steady seq " + std::to_string(seq) +
                               " " + std::to_string(copies) + " times"});
        }
    }
    return out;
}

std::vector<Violation> steady_redundancy_violations(
    const Crossings& crossings, const std::vector<std::string>& segment_names,
    std::uint64_t first_seq, std::uint64_t last_seq, int want_total) {
    std::vector<Violation> out;
    for (std::uint64_t s = first_seq; s <= last_seq; ++s) {
        int total = 0;
        std::string breakdown;
        for (int seg = 0; seg < crossings.segments(); ++seg) {
            const int count = crossings.count(s, seg);
            if (count == 0) continue;
            total += count;
            breakdown += (breakdown.empty() ? "" : ", ") +
                         segment_name(segment_names, seg) + "x" + std::to_string(count);
        }
        if (total != want_total) {
            out.push_back({"steady-redundancy",
                           "steady seq " + std::to_string(s) + " crossed " +
                               std::to_string(total) + " segment(s), want " +
                               std::to_string(want_total) + " (" + breakdown +
                               ")"});
        }
    }
    return out;
}

std::vector<Violation> assert_winner_violations(const Crossings& crossings,
                                                int lan_segment,
                                                std::uint64_t first_seq,
                                                std::uint64_t last_seq) {
    std::vector<Violation> out;
    for (std::uint64_t s = first_seq; s <= last_seq; ++s) {
        const int on_lan = crossings.count(s, lan_segment);
        if (on_lan != 1) {
            out.push_back({"assert-winner",
                           "steady seq " + std::to_string(s) + " crossed dlan " +
                               std::to_string(on_lan) +
                               " times; the assert election must leave "
                               "exactly one forwarder"});
        }
    }
    return out;
}

std::vector<Violation> rp_agreement_violations(
    const std::map<std::string, std::vector<net::Ipv4Address>>& derived,
    const std::string& group) {
    std::vector<Violation> out;
    std::vector<net::Ipv4Address> agreed;
    bool have_agreed = false;
    for (const auto& [name, rps] : derived) {
        if (rps.empty()) {
            out.push_back({"rp-set-agreement",
                           name + " derives no RP for " + group +
                               " from the learned set"});
            continue;
        }
        if (!have_agreed) {
            agreed = rps;
            have_agreed = true;
        } else if (rps != agreed) {
            out.push_back({"rp-set-agreement",
                           name + " maps " + group + " to " +
                               rps.front().to_string() + " while others map it to " +
                               agreed.front().to_string()});
        }
    }
    return out;
}

std::vector<Violation> rehoming_violations(
    const std::string& oracle, const telemetry::MribSnapshot& at_deadline,
    const std::vector<std::string>& members, const std::string& want_rp,
    const std::string& note) {
    std::vector<Violation> out;
    for (const telemetry::RouterMrib& r : at_deadline.routers) {
        if (std::find(members.begin(), members.end(), r.router) == members.end()) {
            continue;
        }
        bool has_wc = false;
        for (const telemetry::EntrySnapshot& entry : r.entries) {
            if (!entry.wildcard) continue;
            has_wc = true;
            if (entry.source_or_rp != want_rp) {
                out.push_back({oracle, r.router + " (*,G) still rooted at " +
                                           entry.source_or_rp + ", want " +
                                           want_rp + note});
            }
        }
        if (!has_wc) {
            out.push_back({oracle, r.router + " has no (*,G) at the " +
                                       (oracle == "rp-failover" ? "failover"
                                                                : "re-homing") +
                                       " deadline"});
        }
    }
    return out;
}

} // namespace pimlib::check
