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
} // namespace

Watchdog::Watchdog(topo::Network& network, CacheResolver resolver)
    : network_(&network), resolver_(std::move(resolver)) {
    telemetry::Registry& reg = network_->telemetry().registry();
    const char* help = "Online invariant watchdog violations, by watchdog";
    violations_lan_ = &reg.counter("pimlib_watchdog_violations_total",
                                   {{"watchdog", "lan-delivery"}}, help);
    violations_iif_ = &reg.counter("pimlib_watchdog_violations_total",
                                   {{"watchdog", "iif-rpf"}}, help);
    violations_stale_ = &reg.counter("pimlib_watchdog_violations_total",
                                     {{"watchdog", "stale-entry"}}, help);
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::start() {
    if (running_) return;
    running_ = true;
    tick_event_ = network_->simulator().schedule(kInterval, [this] { tick(); });
}

void Watchdog::stop() {
    if (!running_) return;
    running_ = false;
    network_->simulator().cancel(tick_event_);
}

void Watchdog::tick() {
    const sim::Time now = network_->simulator().now();
    sweep_hosts(now);
    if (tick_count_++ % kEntrySweepEvery == 0) sweep_entries(now);
    if (running_) {
        tick_event_ =
            network_->simulator().schedule(kInterval, [this] { tick(); });
    }
}

void Watchdog::raise(const std::string& watchdog, const std::string& node,
                     const std::string& group, const std::string& detail) {
    WatchdogViolation v;
    v.at = network_->simulator().now();
    v.watchdog = watchdog;
    v.node = node;
    v.group = group;
    v.detail = detail;
    if (recorder_ != nullptr) {
        v.postmortem_summary = recorder_->drop_summary();
        if (postmortems_emitted_ < kMaxPostmortems) {
            v.postmortem_json = recorder_->dump_json();
            ++postmortems_emitted_;
        }
    }
    if (watchdog == "lan-delivery") {
        violations_lan_->inc();
    } else if (watchdog == "iif-rpf") {
        violations_iif_->inc();
    } else {
        violations_stale_->inc();
    }
    network_->telemetry().emit(telemetry::EventType::kWatchdogViolation, node,
                               "watchdog", group, watchdog + ": " + detail);
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
    if (host_cursor_.size() < hosts.size()) host_cursor_.resize(hosts.size(), 0);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        const topo::Host& host = *hosts[i];
        const auto& recs = host.received();
        for (std::size_t j = host_cursor_[i]; j < recs.size(); ++j) {
            const topo::Host::ReceivedRecord& rec = recs[j];
            StreamState& st = streams_[{host.id(), rec.source, rec.group}];
            if (st.max_seq == 0) {
                // First packet of this stream the watchdog sees: anchor
                // here, don't backfill gaps from before it was watching.
                st.anchor = rec.seq;
                st.max_seq = rec.seq;
                continue;
            }
            if (rec.seq > st.max_seq) {
                // In-order fast path: nothing below needs touching.
                if (rec.seq > st.max_seq + 1) {
                    if (loss_expected_) {
                        st.gaps_untracked = true;
                    } else {
                        for (std::uint64_t s = st.max_seq + 1; s < rec.seq; ++s) {
                            if (st.pending.size() >= kMaxPendingGaps) {
                                st.gaps_untracked = true;
                                break;
                            }
                            st.pending.emplace(s, rec.at + kGapGrace);
                        }
                    }
                }
                st.max_seq = rec.seq;
                continue;
            }
            if (const auto gap = st.pending.find(rec.seq); gap != st.pending.end()) {
                st.pending.erase(gap); // arrived late — reordering, not loss
                continue;
            }
            if (rec.seq < st.anchor) continue; // pre-anchor straggler
            // At or below max_seq, not a tracked gap, not pre-anchor: this
            // seq was delivered before — unless gap tracking was incomplete,
            // in which case a late arrival is indistinguishable and we stay
            // conservative.
            if (!st.gaps_untracked) {
                ++host_dupes_[host.id()]; // exact (source,group,seq) repeat
            }
        }
        host_cursor_[i] = recs.size();

        const auto dup_it = host_dupes_.find(host.id());
        const std::size_t dupes = dup_it == host_dupes_.end() ? 0 : dup_it->second;
        if (dupes > kDuplicateBound && !dup_reported_.contains(host.id())) {
            dup_reported_[host.id()] = dupes;
            raise("lan-delivery", host.name(), "",
                  "saw " + std::to_string(dupes) +
                      " duplicate data packets (bound " +
                      std::to_string(kDuplicateBound) +
                      ") -- forwarding loop or missing prune");
        }
    }

    if (loss_expected_) return;
    // Expired gaps are lost packets: the §3.3 lossless-switchover claim
    // (and plain tree integrity) violated on a clean run.
    for (auto& [key, st] : streams_) {
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
        const auto& [host_id, source, group] = key;
        const std::string host_name =
            recorder_ != nullptr ? recorder_->node_name(host_id) : std::string();
        std::string name = host_name;
        if (name.empty()) {
            for (const auto& h : network_->hosts()) {
                if (h->id() == host_id) name = h->name();
            }
        }
        raise("lan-delivery", name, group.to_string(),
              "never received seq(s) " + lost + " from " + source.to_string() +
                  " (gap outlived " +
                  std::to_string(kGapGrace / sim::kMillisecond) +
                  "ms grace) -- packets lost on a clean run");
    }
}

void Watchdog::sweep_entries(sim::Time now) {
    const auto& routers = network_->routers();
    std::size_t budget = kEntryBudget;
    bool finished = false;
    while (budget > 0 && !finished) {
        if (router_cursor_ >= routers.size()) {
            router_cursor_ = 0;
            entry_cursor_ = {};
            ++sweep_;
            finished = true;
            break;
        }
        const topo::Router& router = *routers[router_cursor_];
        const mcast::ForwardingCache* cache = resolver_ ? resolver_(router) : nullptr;
        if (cache == nullptr) {
            ++router_cursor_;
            entry_cursor_ = {};
            continue;
        }
        const std::size_t visited = cache->visit_entries(
            entry_cursor_, budget, [&](const mcast::ForwardingEntry& e) {
                check_entry(router, *cache, e, now);
            });
        budget -= visited;
        entries_scanned_total_ += visited;
        if (entry_cursor_.wrapped) {
            ++router_cursor_;
            entry_cursor_ = {};
        }
    }
}

void Watchdog::check_entry(const topo::Router& router,
                           const mcast::ForwardingCache& cache,
                           const mcast::ForwardingEntry& entry, sim::Time now) {
    // Healthy entries are the overwhelming common case and this runs for
    // every cache entry on every sweep, so the predicates below mirror
    // entry_iif_problems allocation-free; the string-building diagnosis is
    // reached only once an entry has already failed one of them.
    bool iif_suspect = false;
    if (entry.iif() >= 0) {
        entry.for_each_live_oif(now, [&](int oif) {
            if (oif == entry.iif()) iif_suspect = true;
        });
    }
    if (!entry.wildcard() && entry.rp_bit()) {
        const mcast::ForwardingEntry* shadow_wc = cache.find_wc(entry.group());
        if (shadow_wc == nullptr || shadow_wc->iif() != entry.iif()) {
            iif_suspect = true;
        }
    } else if (entry.wildcard() && entry.source_or_rp() == router.router_id()) {
        if (entry.iif() != -1) iif_suspect = true;
    } else {
        const auto route = router.route_to(entry.source_or_rp());
        if (route && route->ifindex != entry.iif()) iif_suspect = true;
    }
    const bool stale =
        entry.delete_at() > 0 && now > entry.delete_at() + kStaleSlack;
    if (!iif_suspect && !stale) return;

    EntryView view;
    view.wildcard = entry.wildcard();
    view.rp_bit = entry.rp_bit();
    view.iif = entry.iif();
    view.root = entry.source_or_rp();
    view.root_known = true;
    entry.for_each_live_oif(now, [&](int oif) { view.oifs.push_back(oif); });

    EntryView shadow;
    const mcast::ForwardingEntry* wc = nullptr;
    if (!entry.wildcard() && entry.rp_bit()) {
        wc = cache.find_wc(entry.group());
        if (wc != nullptr) {
            shadow.wildcard = true;
            shadow.iif = wc->iif();
        }
    }
    const std::string id = router.name() + " " + entry.describe();
    for (const std::string& problem :
         entry_iif_problems(router, view, wc != nullptr ? &shadow : nullptr)) {
        if (confirm("iif-rpf|" + id + "|" + problem)) {
            raise("iif-rpf", router.name(), entry.group().to_string(),
                  id + ": " + problem);
        }
    }

    // Soft-state leak: the delete deadline passed long ago and the entry is
    // still here — the reaper lost track of it (§3.6's 3× refresh bound).
    if (entry.delete_at() > 0 && now > entry.delete_at() + kStaleSlack) {
        const sim::Time overdue = now - entry.delete_at();
        if (confirm("stale|" + id)) {
            raise("stale-entry", router.name(), entry.group().to_string(),
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
