#include "pim/bootstrap/bootstrap.hpp"

#include <algorithm>

#include "pim/pim_sm.hpp"
#include "topo/network.hpp"

namespace pimlib::pim {

namespace {
constexpr sim::Time ms_to_time(std::uint32_t ms) {
    return static_cast<sim::Time>(ms) * sim::kMillisecond;
}

/// BSR election order: highest priority, then highest address.
bool bsr_beats(std::uint8_t a_pri, net::Ipv4Address a_addr, std::uint8_t b_pri,
               net::Ipv4Address b_addr) {
    if (a_pri != b_pri) return a_pri > b_pri;
    return a_addr > b_addr;
}
} // namespace

BootstrapConfig BootstrapConfig::scaled(double factor) const {
    auto scale = [factor](sim::Time t) {
        return static_cast<sim::Time>(static_cast<double>(t) * factor);
    };
    BootstrapConfig out = *this;
    out.bootstrap_interval = scale(bootstrap_interval);
    out.bsr_timeout = scale(bsr_timeout);
    out.crp_adv_interval = scale(crp_adv_interval);
    out.crp_holdtime = scale(crp_holdtime);
    return out;
}

BootstrapAgent::BootstrapAgent(PimSmRouter& pim, BootstrapConfig config)
    : pim_(&pim),
      config_(config),
      tick_timer_(pim.router().simulator(), [this] { on_tick(); }) {
    pim_->set_bootstrap_handler(
        [this](int ifindex, const net::Packet& packet) { on_message(ifindex, packet); });
    // One timer drives everything: BSR liveness, periodic origination,
    // candidate-RP advertisement, and soft-state expiry. A quarter of the
    // origination interval keeps expiry reaction within one tick of the
    // deadline without per-entry timer churn.
    tick_timer_.start(std::max<sim::Time>(config_.bootstrap_interval / 4, 1));
}

void BootstrapAgent::set_candidate_bsr(std::uint8_t priority) {
    candidate_bsr_ = priority;
    pim_->router().simulator().schedule(0, [this] { become_bsr_if_best(); });
}

void BootstrapAgent::add_candidate_rp(net::Prefix range, std::uint8_t priority) {
    candidate_ranges_.emplace_back(range, priority);
    if (!bsr_view_.addr.is_unspecified()) send_crp_adv();
}

bool BootstrapAgent::is_elected_bsr() const {
    return !bsr_view_.addr.is_unspecified() &&
           bsr_view_.addr == pim_->router().router_id();
}

void BootstrapAgent::reboot() {
    // Everything learned is soft state and dies with the crash; candidate
    // roles (configuration) and the origination sequence number (stable
    // storage, so post-reboot floods beat our own pre-crash duplicates)
    // survive.
    bsr_view_ = BsrView{};
    last_seq_.clear();
    crp_records_.clear();
    learned_.clear();
    applied_nonempty_ = false;
    last_crp_adv_ = 0;
    last_origination_ = 0;
    pim_->rp_set().set_dynamic({});
    tick_timer_.start(std::max<sim::Time>(config_.bootstrap_interval / 4, 1));
    if (candidate_bsr_.has_value()) {
        pim_->router().simulator().schedule(0, [this] { become_bsr_if_best(); });
    }
}

void BootstrapAgent::on_message(int ifindex, const net::Packet& packet) {
    auto code = peek_code(packet.payload);
    if (!code) return;
    if (*code == Code::kBootstrap) {
        if (auto msg = Bootstrap::decode(packet.payload)) {
            handle_bootstrap(ifindex, packet, *msg);
        }
    } else if (*code == Code::kCandidateRpAdvertisement) {
        if (auto msg = CandidateRpAdvertisement::decode(packet.payload)) {
            handle_crp_adv(*msg);
        }
    }
}

void BootstrapAgent::handle_bootstrap(int ifindex, const net::Packet& packet,
                                      const Bootstrap& msg) {
    (void)packet;
    topo::Router& router = pim_->router();
    if (msg.bsr == router.router_id()) return; // our own flood echoed back
    if (msg.bsr.is_unspecified()) return;
    // Hop-by-hop RPF check: accept only from the interface that routes
    // toward the claimed BSR, so a flood cannot circulate on a LAN.
    if (ifindex >= 0) {
        auto rpf = router.rpf_interface(msg.bsr);
        if (!rpf.has_value() || *rpf != ifindex) return;
    }
    // Flood dedup by the originator's sequence number.
    if (auto it = last_seq_.find(msg.bsr); it != last_seq_.end() && msg.seq <= it->second) {
        return;
    }
    last_seq_[msg.bsr] = msg.seq;

    const sim::Time now = router.simulator().now();
    const bool changed = adopt_bsr(msg.bsr, msg.bsr_priority, now + config_.bsr_timeout);
    if (bsr_view_.addr != msg.bsr) return; // a better BSR is already elected

    // Install the carried RP set with per-entry soft-state deadlines.
    learned_.clear();
    for (const Bootstrap::RpEntry& entry : msg.rps) {
        learned_.push_back(LearnedEntry{entry, now + ms_to_time(entry.holdtime_ms)});
    }
    apply_learned_set();
    flood(msg, ifindex);
    // A (new) BSR must hear about us quickly — a triggered advertisement
    // beats waiting out the periodic interval after a failover.
    if (changed && is_candidate_rp()) send_crp_adv();
}

void BootstrapAgent::handle_crp_adv(const CandidateRpAdvertisement& msg) {
    if (msg.rp.is_unspecified() || msg.ranges.empty()) return;
    const sim::Time now = pim_->router().simulator().now();
    auto it = crp_records_.find(msg.rp);
    const bool changed = it == crp_records_.end() || it->second.priority != msg.priority ||
                         it->second.ranges != msg.ranges;
    crp_records_[msg.rp] =
        CrpRecord{msg.priority, msg.ranges, now + ms_to_time(msg.holdtime_ms)};
    if (changed && is_elected_bsr()) originate_bootstrap();
}

void BootstrapAgent::on_tick() {
    topo::Router& router = pim_->router();
    const sim::Time now = router.simulator().now();

    // BSR liveness: a silent BSR is deposed, and its sequence history is
    // forgotten so a post-crash restart (sequence reset) is not mistaken
    // for stale duplicates.
    if (!bsr_view_.addr.is_unspecified() && bsr_view_.deadline != 0 &&
        now >= bsr_view_.deadline) {
        last_seq_.erase(bsr_view_.addr);
        bsr_view_ = BsrView{};
    }
    become_bsr_if_best();

    // Expire candidate-RP advertisements; the BSR floods the reduced set
    // immediately (this is what evicts a crashed RP from the network).
    bool crp_expired = false;
    for (auto it = crp_records_.begin(); it != crp_records_.end();) {
        if (it->second.deadline <= now) {
            it = crp_records_.erase(it);
            crp_expired = true;
        } else {
            ++it;
        }
    }
    if (crp_expired && is_elected_bsr()) originate_bootstrap();

    // Expire learned RP-set entries (soft state on every router).
    const std::size_t before = learned_.size();
    std::erase_if(learned_, [&](const LearnedEntry& e) { return e.deadline <= now; });
    if (learned_.size() != before) apply_learned_set();

    // Periodic origination and advertisement.
    if (is_elected_bsr() && candidate_bsr_.has_value() &&
        now - last_origination_ >= config_.bootstrap_interval) {
        originate_bootstrap();
    }
    if (is_candidate_rp() && !bsr_view_.addr.is_unspecified() &&
        now - last_crp_adv_ >= config_.crp_adv_interval) {
        send_crp_adv();
    }
}

bool BootstrapAgent::adopt_bsr(net::Ipv4Address addr, std::uint8_t priority,
                               sim::Time deadline) {
    const sim::Time now = pim_->router().simulator().now();
    const bool view_valid =
        !bsr_view_.addr.is_unspecified() && bsr_view_.deadline > now;
    if (view_valid && bsr_view_.addr == addr) {
        bsr_view_.priority = priority;
        bsr_view_.deadline = deadline;
        return false;
    }
    if (view_valid &&
        bsr_beats(bsr_view_.priority, bsr_view_.addr, priority, addr)) {
        return false; // the incumbent outranks the claimant
    }
    bsr_view_ = BsrView{addr, priority, deadline};
    pim_->router().network().telemetry().emit({.type = telemetry::EventType::kBsrElected,
                                               .node = pim_->router().id(), .addr = addr,
                                               .count = priority});
    return true;
}

void BootstrapAgent::become_bsr_if_best() {
    if (!candidate_bsr_.has_value()) return;
    topo::Router& router = pim_->router();
    const sim::Time now = router.simulator().now();
    const bool view_valid =
        !bsr_view_.addr.is_unspecified() && bsr_view_.deadline > now;
    if (view_valid && bsr_view_.addr == router.router_id()) {
        bsr_view_.deadline = now + config_.bsr_timeout; // we are alive
        return;
    }
    if (view_valid && bsr_beats(bsr_view_.priority, bsr_view_.addr, *candidate_bsr_,
                                router.router_id())) {
        return; // someone better holds the role
    }
    if (adopt_bsr(router.router_id(), *candidate_bsr_, now + config_.bsr_timeout)) {
        // Fresh mandate: our own ranges count as heard advertisements, and
        // the network learns the (possibly empty) set right away.
        if (is_candidate_rp()) send_crp_adv();
        originate_bootstrap();
    }
}

Bootstrap BootstrapAgent::assemble_bootstrap() {
    Bootstrap msg;
    msg.bsr = pim_->router().router_id();
    msg.bsr_priority = candidate_bsr_.value_or(0);
    const auto holdtime =
        static_cast<std::uint32_t>(config_.crp_holdtime / sim::kMillisecond);
    for (const auto& [rp, record] : crp_records_) {
        for (const net::Prefix& range : record.ranges) {
            msg.rps.push_back(Bootstrap::RpEntry{range, rp, record.priority, holdtime});
        }
    }
    return msg;
}

void BootstrapAgent::originate_bootstrap() {
    topo::Router& router = pim_->router();
    const sim::Time now = router.simulator().now();
    Bootstrap msg = assemble_bootstrap();
    msg.seq = ++seq_;
    last_origination_ = now;
    // The BSR itself installs what it floods.
    learned_.clear();
    for (const Bootstrap::RpEntry& entry : msg.rps) {
        learned_.push_back(LearnedEntry{entry, now + ms_to_time(entry.holdtime_ms)});
    }
    apply_learned_set();
    flood(msg, /*except_ifindex=*/-1);
}

void BootstrapAgent::flood(const Bootstrap& msg, int except_ifindex) {
    pim_->router().flood_control(net::kAllRouters, net::IpProto::kIgmp, "pim-bootstrap",
                                 msg.encode(), except_ifindex);
}

void BootstrapAgent::send_crp_adv() {
    if (candidate_ranges_.empty() || bsr_view_.addr.is_unspecified()) return;
    topo::Router& router = pim_->router();
    last_crp_adv_ = router.simulator().now();
    const auto holdtime =
        static_cast<std::uint32_t>(config_.crp_holdtime / sim::kMillisecond);
    // One advertisement per distinct priority (ranges sharing a priority
    // ride together; the common case is a single message).
    std::vector<std::uint8_t> priorities;
    for (const auto& [range, priority] : candidate_ranges_) {
        if (std::find(priorities.begin(), priorities.end(), priority) ==
            priorities.end()) {
            priorities.push_back(priority);
        }
    }
    for (std::uint8_t priority : priorities) {
        CandidateRpAdvertisement msg;
        msg.rp = router.router_id();
        msg.priority = priority;
        msg.holdtime_ms = holdtime;
        for (const auto& [range, pri] : candidate_ranges_) {
            if (pri == priority) msg.ranges.push_back(range);
        }
        if (bsr_view_.addr == router.router_id()) {
            handle_crp_adv(msg); // we are the BSR: no wire trip needed
            continue;
        }
        net::Packet packet;
        packet.dst = bsr_view_.addr;
        packet.proto = net::IpProto::kIgmp;
        packet.ttl = 64;
        packet.payload = msg.encode();
        router.network().stats().count_control_message("pim-crp-adv");
        router.originate_unicast(std::move(packet));
    }
}

void BootstrapAgent::apply_learned_set() {
    if (config_.mutate_stale_rp_set && applied_nonempty_) {
        // Seeded bug (model-checker mutation gate): the first applied set is
        // frozen forever — after a BSR failover republishes the mappings,
        // this router keeps joining whatever RP it first learned.
        return;
    }
    std::vector<RpSet::DynamicRp> dynamic;
    dynamic.reserve(learned_.size());
    for (const LearnedEntry& e : learned_) {
        dynamic.push_back(RpSet::DynamicRp{e.entry.range, e.entry.rp, e.entry.priority});
    }
    const bool nonempty = !dynamic.empty();
    pim_->rp_set().set_hash_mask_len(config_.hash_mask_len);
    if (!pim_->rp_set().set_dynamic(std::move(dynamic))) return;
    if (nonempty) applied_nonempty_ = true;
    telemetry::Hub& hub = pim_->router().network().telemetry();
    if (rp_set_changes_ == nullptr) {
        rp_set_changes_ = &hub.registry().counter(
            "pimlib_rp_set_changes_total", {},
            "Dynamic (BSR-learned) RP-set replacements that changed the set");
    }
    rp_set_changes_->inc();
    hub.emit({.type = telemetry::EventType::kRpSetChanged, .node = pim_->router().id(),
              .addr = bsr_view_.addr, .count = static_cast<std::uint32_t>(learned_.size())});
    // Existing shared trees rooted at RPs that fell out of the set re-home
    // now instead of waiting for their RP timers.
    pim_->reconcile_rp_mappings();
}

} // namespace pimlib::pim
