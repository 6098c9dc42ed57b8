#include "provenance/provenance.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace pimlib::provenance {
namespace {

constexpr const char* kDropLabels[kDropReasonCount] = {
    "none",       "rpf-fail",     "neg-cache", "no-oif",  "ttl",
    "segment-loss", "no-state", "assert-loser", "no-route"};

constexpr const char* kKindLabels[] = {
    "none",      "(*,G)",    "(S,G)",   "(S,G)->(*,G)", "neg-cache",
    "cbt-tree",  "unicast",  "register", "origin",       "deliver"};

const std::string kUnknownNode = "?";

std::string json_escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string time_ms(sim::Time t) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3fms",
                  static_cast<double>(t) / sim::kMillisecond);
    return buf;
}

std::string oif_list(const HopRecord& rec) {
    std::string out = "[";
    const int shown = std::min<int>(rec.oif_count, kMaxRecordedOifs);
    for (int i = 0; i < shown; ++i) {
        if (i > 0) out += ",";
        out += std::to_string(rec.oifs[static_cast<std::size_t>(i)]);
    }
    if (rec.oif_count > kMaxRecordedOifs) out += ",...";
    out += "]";
    return out;
}

} // namespace

const char* drop_reason_label(DropReason reason) {
    const auto i = static_cast<std::size_t>(reason);
    return i < kDropReasonCount ? kDropLabels[i] : "unknown";
}

const char* entry_kind_label(EntryKind kind) {
    const auto i = static_cast<std::size_t>(kind);
    return i < std::size(kKindLabels) ? kKindLabels[i] : "unknown";
}

std::uint64_t packet_id(net::Ipv4Address src, net::Ipv4Address dst,
                        std::uint64_t seq) {
    std::uint64_t x = (static_cast<std::uint64_t>(src.to_uint()) << 32) |
                      static_cast<std::uint64_t>(dst.to_uint());
    x ^= seq * 0x9E3779B97F4A7C15ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x == 0 ? 1 : x;
}

Recorder::Recorder(telemetry::Registry& registry) : registry_(&registry) {
    for (std::size_t i = 1; i < kDropReasonCount; ++i) {
        drop_counters_[i] = &registry_->counter(
            "pimlib_forward_drops_total",
            telemetry::LabelSet{{"reason", kDropLabels[i]}},
            "Data packets discarded, by typed DropReason");
    }
}

void Recorder::register_node(int node_id, std::string name, bool is_host) {
    if (node_id < 0) return;
    const auto id = static_cast<std::size_t>(node_id);
    if (nodes_.size() <= id) nodes_.resize(id + 1);
    nodes_[id] = NodeInfo{std::move(name), is_host};
}

std::uint64_t Recorder::drop_count(DropReason reason) const {
    const auto i = static_cast<std::size_t>(reason);
    return i < kDropReasonCount ? drop_totals_[i] : 0;
}

const std::string& Recorder::node_name(int node_id) const {
    const auto id = static_cast<std::size_t>(node_id);
    if (node_id < 0 || id >= nodes_.size() || nodes_[id].name.empty()) {
        return kUnknownNode;
    }
    return nodes_[id].name;
}

void Recorder::for_each_record(
    const std::function<void(const HopRecord&)>& fn) const {
    for (const Ring& ring : rings_) {
        for (const HopRecord& rec : ring.buf) fn(rec);
    }
}

std::vector<const HopRecord*> Recorder::merged_records() const {
    std::vector<const HopRecord*> out;
    for_each_record([&](const HopRecord& rec) { out.push_back(&rec); });
    std::sort(out.begin(), out.end(), [](const HopRecord* a, const HopRecord* b) {
        return a->order < b->order; // order is already time-monotonic
    });
    return out;
}

std::vector<HopRecord> Recorder::all_records() const {
    std::vector<HopRecord> out;
    for (const HopRecord* rec : merged_records()) out.push_back(*rec);
    return out;
}

std::vector<HopRecord> Recorder::records_for(std::uint64_t pid) const {
    std::vector<HopRecord> out;
    for_each_record([&](const HopRecord& rec) {
        if (rec.pid == pid) out.push_back(rec);
    });
    std::sort(out.begin(), out.end(),
              [](const HopRecord& a, const HopRecord& b) { return a.order < b.order; });
    return out;
}

Recorder::TraceResult Recorder::trace(net::Ipv4Address src, net::Ipv4Address group,
                                      const std::string& dst_node) const {
    TraceResult result;
    // Find the most recent delivery of a matching packet at the target host.
    const HopRecord* last = nullptr;
    for_each_record([&](const HopRecord& rec) {
        if (rec.kind != EntryKind::kDeliver) return;
        if (rec.src != src || rec.group != group) return;
        if (node_name(rec.node) != dst_node) return;
        if (last == nullptr || rec.order > last->order) last = &rec;
    });
    if (last == nullptr) return result;

    result.found = true;
    result.pid = last->pid;
    result.seq = last->seq;
    sim::Time prev = 0;
    bool first = true;
    for (const HopRecord& rec : records_for(last->pid)) {
        TraceHop hop;
        hop.rec = rec;
        hop.latency = first ? 0 : rec.at - prev;
        hop.node_name = node_name(rec.node);
        prev = rec.at;
        first = false;
        result.hops.push_back(std::move(hop));
    }
    return result;
}

std::string Recorder::format_trace(const TraceResult& result) const {
    if (!result.found) return "mtrace: no matching delivery recorded\n";
    char head[128];
    std::snprintf(head, sizeof(head), "mtrace: pid=%016" PRIx64 " seq=%" PRIu64 "\n",
                  result.pid, result.seq);
    std::string out = head;
    for (std::size_t i = 0; i < result.hops.size(); ++i) {
        const TraceHop& hop = result.hops[i];
        const HopRecord& rec = hop.rec;
        char line[192];
        std::snprintf(line, sizeof(line), "  %2zu  t=%-10s +%-9s %-10s %-12s", i,
                      time_ms(rec.at).c_str(), time_ms(hop.latency).c_str(),
                      hop.node_name.c_str(), entry_kind_label(rec.kind));
        out += line;
        if (rec.kind != EntryKind::kOrigin && rec.kind != EntryKind::kDeliver) {
            out += " iif=" + std::to_string(rec.iif);
            out += " oifs=" + oif_list(rec);
            out += rec.rpf_ok ? " rpf=ok" : " rpf=FAIL";
            if (rec.spt_bit) out += " spt";
            if (rec.rp_bit) out += " rp";
        }
        if (rec.drop != DropReason::kNone) {
            out += std::string(" DROP:") + drop_reason_label(rec.drop);
        }
        out += "\n";
    }
    return out;
}

std::string Recorder::drop_summary() const {
    // (node, reason) -> count, from the retained records.
    std::map<std::pair<int, std::uint8_t>, std::uint64_t> agg;
    for_each_record([&](const HopRecord& rec) {
        if (rec.drop != DropReason::kNone) {
            ++agg[{rec.node, static_cast<std::uint8_t>(rec.drop)}];
        }
    });
    std::string out;
    for (const auto& [key, count] : agg) {
        if (!out.empty()) out += ", ";
        out += node_name(key.first);
        out += " ";
        out += drop_reason_label(static_cast<DropReason>(key.second));
        out += " x" + std::to_string(count);
    }
    return out;
}

std::string Recorder::dump_json() const {
    const std::vector<const HopRecord*> merged = merged_records();

    std::string out = "{\n  \"records\": [\n";
    for (std::size_t i = 0; i < merged.size(); ++i) {
        const HopRecord& rec = *merged[i];
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"order\":%" PRIu64 ",\"at_us\":%lld,\"node\":\"%s\","
            "\"pid\":\"%016" PRIx64 "\",\"src\":\"%s\",\"group\":\"%s\","
            "\"seq\":%" PRIu64 ",\"kind\":\"%s\",\"iif\":%d,\"oifs\":%s,"
            "\"rpf_ok\":%s,\"spt\":%s,\"rp\":%s,\"ttl\":%u,\"drop\":\"%s\"}",
            rec.order, static_cast<long long>(rec.at),
            json_escape(node_name(rec.node)).c_str(), rec.pid,
            rec.src.to_string().c_str(), rec.group.to_string().c_str(), rec.seq,
            entry_kind_label(rec.kind), rec.iif, oif_list(rec).c_str(),
            rec.rpf_ok ? "true" : "false", rec.spt_bit ? "true" : "false",
            rec.rp_bit ? "true" : "false", rec.ttl, drop_reason_label(rec.drop));
        out += buf;
        out += i + 1 < merged.size() ? ",\n" : "\n";
    }
    out += "  ],\n  \"drops\": [\n";

    std::map<std::pair<int, std::uint8_t>, std::uint64_t> agg;
    for (const HopRecord* rec : merged) {
        if (rec->drop != DropReason::kNone) {
            ++agg[{rec->node, static_cast<std::uint8_t>(rec->drop)}];
        }
    }
    std::size_t n = 0;
    for (const auto& [key, count] : agg) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "    {\"node\":\"%s\",\"reason\":\"%s\",\"count\":%" PRIu64 "}",
                      json_escape(node_name(key.first)).c_str(),
                      drop_reason_label(static_cast<DropReason>(key.second)), count);
        out += buf;
        out += ++n < agg.size() ? ",\n" : "\n";
    }
    out += "  ],\n  \"vanished\": [\n";

    // A packet whose last retained record is not a host delivery never
    // (observably) reached a member: name the node where the trail ends and
    // the DropReason (or the oif fan-out, if it was last seen forwarded).
    std::map<std::uint64_t, const HopRecord*> last_by_pid;
    std::map<std::uint64_t, bool> delivered;
    for (const HopRecord* rec : merged) {
        auto& slot = last_by_pid[rec->pid];
        if (slot == nullptr || rec->order > slot->order) slot = rec;
        if (rec->kind == EntryKind::kDeliver) delivered[rec->pid] = true;
    }
    std::vector<const HopRecord*> vanished;
    for (const auto& [pid, rec] : last_by_pid) {
        if (!delivered[pid]) vanished.push_back(rec);
    }
    std::sort(vanished.begin(), vanished.end(),
              [](const HopRecord* a, const HopRecord* b) { return a->order < b->order; });
    for (std::size_t i = 0; i < vanished.size(); ++i) {
        const HopRecord& rec = *vanished[i];
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "    {\"pid\":\"%016" PRIx64 "\",\"src\":\"%s\",\"group\":\"%s\","
                      "\"seq\":%" PRIu64 ",\"last_node\":\"%s\",\"last_at_us\":%lld,"
                      "\"drop\":\"%s\",\"oifs\":%s}",
                      rec.pid, rec.src.to_string().c_str(),
                      rec.group.to_string().c_str(), rec.seq,
                      json_escape(node_name(rec.node)).c_str(),
                      static_cast<long long>(rec.at), drop_reason_label(rec.drop),
                      oif_list(rec).c_str());
        out += buf;
        out += i + 1 < vanished.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace pimlib::provenance
