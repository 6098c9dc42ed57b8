#include "telemetry/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace pimlib::telemetry {

std::string EntrySnapshot::key() const {
    std::string out = wildcard ? "(*, " : "(" + source_or_rp + ", ";
    out += group;
    out += ')';
    return out;
}

std::string EntrySnapshot::signature() const {
    std::string out = key();
    if (wildcard) {
        out += " rp=" + source_or_rp;
    }
    if (rp_bit) out += " RPbit";
    if (spt_bit) out += " SPTbit";
    out += " iif=" + std::to_string(iif);
    if (!upstream.empty()) out += " up=" + upstream;
    // oifs() iterates a std::map upstream so arrival order is already
    // sorted, but don't rely on that here.
    std::vector<int> oif_ids;
    for (const OifSnapshot& oif : oifs) oif_ids.push_back(oif.ifindex);
    std::sort(oif_ids.begin(), oif_ids.end());
    out += " oifs={";
    for (std::size_t i = 0; i < oif_ids.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(oif_ids[i]);
    }
    out += '}';
    std::vector<int> pruned = pruned_oifs;
    std::sort(pruned.begin(), pruned.end());
    if (!pruned.empty()) {
        out += " pruned={";
        for (std::size_t i = 0; i < pruned.size(); ++i) {
            if (i) out += ',';
            out += std::to_string(pruned[i]);
        }
        out += '}';
    }
    return out;
}

std::string EntrySnapshot::describe() const {
    std::string out = signature();
    char buf[64];
    for (const OifSnapshot& oif : oifs) {
        if (oif.pinned) continue;
        std::snprintf(buf, sizeof(buf), " oif%d:%.3fs", oif.ifindex,
                      static_cast<double>(oif.remaining) / sim::kSecond);
        out += buf;
    }
    if (delete_in > 0) {
        std::snprintf(buf, sizeof(buf), " expires:%.3fs",
                      static_cast<double>(delete_in) / sim::kSecond);
        out += buf;
    }
    return out;
}

std::size_t MribSnapshot::entry_count() const {
    std::size_t n = 0;
    for (const RouterMrib& r : routers) n += r.entries.size();
    return n;
}

std::string MribSnapshot::to_text() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "MRIB snapshot at %.6fs (%zu entries)\n",
                  static_cast<double>(at) / sim::kSecond, entry_count());
    std::string out = buf;
    for (const RouterMrib& r : routers) {
        out += "  " + r.router + ":\n";
        for (const EntrySnapshot& e : r.entries) {
            out += "    " + e.describe() + "\n";
        }
        if (r.entries.empty()) out += "    (empty)\n";
    }
    return out;
}

namespace {

std::map<std::string, std::string> signature_index(const MribSnapshot& snap) {
    std::map<std::string, std::string> out;
    for (const RouterMrib& r : snap.routers) {
        for (const EntrySnapshot& e : r.entries) {
            out[r.router + " " + e.key()] = e.signature();
        }
    }
    return out;
}

} // namespace

MribDiff diff(const MribSnapshot& before, const MribSnapshot& after) {
    const auto old_index = signature_index(before);
    const auto new_index = signature_index(after);
    MribDiff out;
    for (const auto& [id, sig] : new_index) {
        auto it = old_index.find(id);
        if (it == old_index.end()) {
            out.added.push_back(id);
        } else if (it->second != sig) {
            out.changed.push_back(id);
        }
    }
    for (const auto& [id, sig] : old_index) {
        if (!new_index.contains(id)) out.removed.push_back(id);
    }
    return out;
}

std::string MribDiff::to_text() const {
    if (empty()) return "(no structural change)\n";
    std::string out;
    for (const std::string& id : added) out += "+ " + id + "\n";
    for (const std::string& id : removed) out += "- " + id + "\n";
    for (const std::string& id : changed) out += "~ " + id + "\n";
    return out;
}

} // namespace pimlib::telemetry
