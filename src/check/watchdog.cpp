#include "check/watchdog.hpp"

#include <cstdio>

#include "check/invariants.hpp"
#include "mcast/forwarding_entry.hpp"
#include "topo/host.hpp"
#include "topo/router.hpp"

namespace pimlib::check {

namespace {
// A stream whose sender skips around could enqueue unbounded gap state;
// anything past this per-stream cap is dropped (and a real protocol bug
// shows up long before 64 consecutive losses).
constexpr std::size_t kMaxPendingGaps = 64;
/// Sim-time between watchdog ticks (delivery accounting runs on every
/// tick — gap deadlines need this resolution).
constexpr sim::Time kInterval = 100 * sim::kMillisecond;
/// Structural (iif-rpf / stale-entry) sweeps advance only on every Nth
/// tick: entries change on protocol timescales, not per-packet, and the
/// two-sweep confirmation already tolerates the extra latency.
constexpr std::uint64_t kEntrySweepEvery = 4;
/// Forwarding entries examined per structural tick across all routers.
constexpr std::size_t kEntryBudget = 2048;
/// How long a missing sequence number may stay missing before it counts
/// as lost (reordering and in-flight switchover need slack).
constexpr sim::Time kGapGrace = 300 * sim::kMillisecond;
/// Slack past ForwardingEntry::delete_at before a leak is flagged.
constexpr sim::Time kStaleSlack = 250 * sim::kMillisecond;
/// Full flight-recorder JSON attached to at most this many violations
/// (the drop summary is attached to all of them).
constexpr std::size_t kMaxPostmortems = 3;

const char* to_string(WatchdogKind kind) {
    static constexpr std::array<const char*, kWatchdogKindCount> kNames{
        "lan-delivery", "iif-rpf", "stale-entry"};
    return kNames[static_cast<std::size_t>(kind)];
}
} // namespace

Watchdog::Watchdog(topo::Network& network, mcast::CacheTable caches)
    : network_(&network), timer_(network.simulator(), [this] { tick(); }), walk_(caches) {
    telemetry::Registry& reg = network_->telemetry().registry();
    for (std::size_t k = 0; k < kWatchdogKindCount; ++k) {
        violations_total_[k] = &reg.counter(
            "pimlib_watchdog_violations_total",
            {{"watchdog", to_string(static_cast<WatchdogKind>(k))}},
            "Online invariant watchdog violations, by watchdog");
    }
}

void Watchdog::start() { timer_.start(kInterval); }

void Watchdog::tick() {
    const sim::Time now = network_->simulator().now();
    sweep_hosts(now);
    if (tick_count_++ % kEntrySweepEvery == 0) sweep_entries(now);
}

void Watchdog::raise(WatchdogKind kind, const topo::Node& node, net::GroupAddress group,
                     std::string detail) {
    WatchdogViolation v;
    v.at = network_->simulator().now();
    v.watchdog = to_string(kind);
    v.node = node.name();
    if (group != net::GroupAddress{}) v.group = group.to_string();
    v.detail = std::move(detail);
    if (recorder_ != nullptr) {
        v.postmortem_summary = recorder_->drop_summary(network_->node_names());
        if (postmortems_emitted_ < kMaxPostmortems) {
            v.postmortem_json = recorder_->dump_json(network_->node_names());
            ++postmortems_emitted_;
        }
    }
    violations_total_[static_cast<std::size_t>(kind)]->inc();
    telemetry::Hub& hub = network_->telemetry();
    hub.emit({.type = telemetry::EventType::kWatchdogViolation,
              .protocol = telemetry::Protocol::kWatchdog, .node = node.id(), .group = group,
              .note = hub.tracing() ? v.watchdog + ": " + v.detail : std::string{}});
    violations_.push_back(std::move(v));
}

bool Watchdog::confirm(const std::string& key) {
    if (raised_.contains(key)) return false;
    const auto it = suspects_.find(key);
    // Confirmed only when the same problem was present in the immediately
    // preceding full sweep — one-sweep transients (mid-convergence churn)
    // never fire.
    if (it != suspects_.end() && sweep_ > 0 && it->second == sweep_ - 1) {
        raised_.insert(key);
        suspects_.erase(it);
        return true;
    }
    suspects_[key] = sweep_;
    return false;
}

void Watchdog::sweep_hosts(sim::Time now) {
    const auto& hosts = network_->hosts();
    if (host_state_.size() < hosts.size()) host_state_.resize(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        const topo::Host& host = *hosts[i];
        HostState& hs = host_state_[i];
        const auto& recs = host.received();
        // A host's records come in runs of one stream: look the stream up
        // only when the (source, group) changes from the previous record.
        StreamState* st = nullptr;
        std::pair<net::Ipv4Address, net::GroupAddress> stream;
        for (std::size_t j = hs.cursor; j < recs.size(); ++j) {
            const topo::Host::ReceivedRecord& rec = recs[j];
            if (st == nullptr || stream.first != rec.source || stream.second != rec.group) {
                stream = {rec.source, rec.group};
                st = &hs.streams[stream];
            }
            if (st->max_seq == 0) {
                // First packet of this stream the watchdog sees: anchor
                // here, don't backfill gaps from before it was watching.
                st->anchor = rec.seq;
                st->max_seq = rec.seq;
                continue;
            }
            if (rec.seq > st->max_seq) {
                // In-order fast path: nothing below needs touching.
                if (rec.seq > st->max_seq + 1) {
                    if (loss_expected_) {
                        st->gaps_untracked = true;
                    } else {
                        for (std::uint64_t s = st->max_seq + 1; s < rec.seq; ++s) {
                            if (st->pending.size() >= kMaxPendingGaps) {
                                st->gaps_untracked = true;
                                break;
                            }
                            st->pending.emplace(s, rec.at + kGapGrace);
                        }
                    }
                }
                st->max_seq = rec.seq;
                continue;
            }
            if (const auto gap = st->pending.find(rec.seq); gap != st->pending.end()) {
                st->pending.erase(gap); // arrived late — reordering, not loss
                continue;
            }
            if (rec.seq < st->anchor) continue; // pre-anchor straggler
            // At or below max_seq, not a tracked gap, not pre-anchor: this
            // seq was delivered before — unless gap tracking was incomplete,
            // in which case a late arrival is indistinguishable and we stay
            // conservative.
            if (!st->gaps_untracked) ++hs.dupes; // exact (source,group,seq) repeat
        }
        hs.cursor = recs.size();

        if (hs.dupes > kDuplicateBound && !hs.dupes_reported) {
            hs.dupes_reported = true;
            raise(WatchdogKind::kLanDelivery, host, {},
                  "saw " + std::to_string(hs.dupes) + " duplicate data packets (bound " +
                      std::to_string(kDuplicateBound) +
                      ") -- forwarding loop or missing prune");
        }
    }

    if (loss_expected_) return;
    // Expired gaps are lost packets: the §3.3 lossless-switchover claim
    // (and plain tree integrity) violated on a clean run.
    for (std::size_t i = 0; i < host_state_.size(); ++i) {
        for (auto& [key, st] : host_state_[i].streams) {
            std::string lost;
            for (auto it = st.pending.begin(); it != st.pending.end();) {
                if (it->second <= now) {
                    lost += (lost.empty() ? "" : ",") + std::to_string(it->first);
                    it = st.pending.erase(it);
                } else {
                    ++it;
                }
            }
            if (lost.empty()) continue;
            const auto& [source, group] = key;
            raise(WatchdogKind::kLanDelivery, *hosts[i], group,
                  "never received seq(s) " + lost + " from " + source.to_string() +
                      " (gap outlived " + std::to_string(kGapGrace / sim::kMillisecond) +
                      "ms grace) -- packets lost on a clean run");
        }
    }
}

void Watchdog::sweep_entries(sim::Time now) {
    const bool wrapped = walk_.step(
        kEntryBudget, [&](int node, const mcast::ForwardingCache& cache,
                          const mcast::ForwardingEntry& e) {
            check_entry(static_cast<const topo::Router&>(network_->node(node)), cache, e, now);
            ++entries_scanned_total_;
        });
    if (wrapped) ++sweep_;
}

void Watchdog::check_entry(const topo::Router& router,
                           const mcast::ForwardingCache& cache,
                           const mcast::ForwardingEntry& entry, sim::Time now) {
    // This runs for every cache entry on every sweep. A healthy entry, the
    // overwhelming common case, gets an empty problem list and no id, so it
    // allocates nothing.
    const std::vector<std::string> problems = entry_iif_problems(router, cache, entry, now);
    const bool stale = entry.delete_at() > 0 && now > entry.delete_at() + kStaleSlack;
    if (problems.empty() && !stale) return;

    const std::string id = router.name() + " " + entry.describe();
    for (const std::string& problem : problems) {
        if (confirm("iif-rpf|" + id + "|" + problem)) {
            raise(WatchdogKind::kIifRpf, router, entry.group(), id + ": " + problem);
        }
    }

    // Soft-state leak: the delete deadline passed long ago and the entry is
    // still here — the reaper lost track of it (§3.6's 3× refresh bound).
    if (stale) {
        const sim::Time overdue = now - entry.delete_at();
        if (confirm("stale|" + id)) {
            raise(WatchdogKind::kStaleEntry, router, entry.group(),
                  id + ": overdue for deletion by " +
                      std::to_string(overdue / sim::kMillisecond) + "ms");
        }
    }
}

std::string Watchdog::dump() const {
    std::string out;
    char line[64];
    for (const WatchdogViolation& v : violations_) {
        std::snprintf(line, sizeof(line), "%10.6f  ",
                      static_cast<double>(v.at) / sim::kSecond);
        out += line;
        out += v.watchdog + "  " + v.node;
        if (!v.group.empty()) out += " " + v.group;
        out += ": " + v.detail + "\n";
        if (!v.postmortem_summary.empty()) {
            out += "            drops: " + v.postmortem_summary + "\n";
        }
    }
    return out;
}

} // namespace pimlib::check
