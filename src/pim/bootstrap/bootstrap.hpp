// Dynamic RP discovery: BSR election and Candidate-RP advertisement.
//
// The '94 paper assumes every router learns the group→RP mapping out of
// band ("directories of these mappings are maintained", §3.2, and the IGMP
// rp-map extension PR-2 built). This module replaces the oracle with the
// bootstrap machinery later standardized for PIM-SM (RFC 5059 in spirit,
// simplified to this simulator's scale):
//
//   - Candidate BSRs flood Bootstrap messages hop by hop. Every router
//     keeps one elected-BSR view — highest (priority, address) wins — and
//     re-floods accepted messages out every other PIM interface. Floods are
//     deduplicated by the per-BSR sequence number and RPF-checked toward
//     the BSR address, so a LAN cannot loop them.
//   - Candidate RPs unicast Candidate-RP-Advertisements (their prefix
//     ranges + priority) to the elected BSR.
//   - The elected BSR assembles the advertisements into the RP set, attaches
//     per-entry holdtimes, and floods it in its periodic Bootstrap message.
//     Entries whose advertisements stop refreshing expire — a crashed RP
//     falls out of the set within crp_holdtime.
//   - Receivers install the set into RpSet's dynamic layer (static config
//     stays authoritative; see RpSet::rps_for), expire it as soft state,
//     and call PimSmRouter::reconcile_rp_mappings() whenever it changes so
//     existing shared trees re-home immediately.
//
// Group-to-RP mapping inside the dynamic set uses the RFC 7761 §4.7.2 hash
// so all routers agree on a single RP per group without coordination.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "pim/messages.hpp"
#include "pim/rp_set.hpp"
#include "sim/simulator.hpp"

namespace pimlib::telemetry {
class Counter;
} // namespace pimlib::telemetry

namespace pimlib::pim {

class PimSmRouter;

struct BootstrapConfig {
    /// Periodic Bootstrap origination by the elected BSR.
    sim::Time bootstrap_interval = 60 * sim::kSecond;
    /// How long an elected-BSR view survives without a refresh before the
    /// next candidate takes over (2.5 × interval, like neighbor holdtimes).
    sim::Time bsr_timeout = 150 * sim::kSecond;
    /// Candidate-RP advertisement interval and the holdtime the BSR attaches
    /// to the resulting RP-set entries (2.5 × interval).
    sim::Time crp_adv_interval = 30 * sim::kSecond;
    sim::Time crp_holdtime = 75 * sim::kSecond;
    /// Mask length for the §4.7.2 group-to-RP hash.
    int hash_mask_len = 30;

    /// Seeded bug (model-checker mutation gate): once a router has applied a
    /// non-empty dynamic RP set it ignores every later update — so after a
    /// BSR failover republishes the set, this router keeps joining the dead
    /// RP forever.
    bool mutate_stale_rp_set = false;

    /// Uniformly scales every interval (same convention as PimConfig).
    [[nodiscard]] BootstrapConfig scaled(double factor) const;
};

/// One agent per router. Every router floods and installs RP sets; routers
/// additionally configured as candidate BSR / candidate RP originate.
class BootstrapAgent {
public:
    explicit BootstrapAgent(PimSmRouter& pim, BootstrapConfig config = {});

    BootstrapAgent(const BootstrapAgent&) = delete;
    BootstrapAgent& operator=(const BootstrapAgent&) = delete;

    /// Declares this router a candidate BSR. Takes effect immediately: the
    /// router assumes the BSR role unless it has already heard a better one.
    void set_candidate_bsr(std::uint8_t priority);
    /// Declares this router a candidate RP for `range`; advertised to the
    /// elected BSR once one is known.
    void add_candidate_rp(net::Prefix range, std::uint8_t priority);

    /// Drops all learned soft state (elected-BSR view, learned RP set,
    /// candidate-RP advertisements heard) exactly like PimSmRouter::reboot.
    /// Candidate roles are configuration and survive; the origination
    /// sequence number also survives (stable storage) so post-reboot floods
    /// are not mistaken for stale duplicates.
    void reboot();

    // --- introspection (oracles, tests, pimsim) ---
    [[nodiscard]] net::Ipv4Address elected_bsr() const { return bsr_view_.addr; }
    [[nodiscard]] bool is_elected_bsr() const;
    [[nodiscard]] bool is_candidate_bsr() const { return candidate_bsr_.has_value(); }
    [[nodiscard]] bool is_candidate_rp() const { return !candidate_ranges_.empty(); }
    [[nodiscard]] const BootstrapConfig& config() const { return config_; }
    [[nodiscard]] PimSmRouter& pim() { return *pim_; }

private:
    struct BsrView {
        net::Ipv4Address addr;
        std::uint8_t priority = 0;
        sim::Time deadline = 0; // 0 = no BSR known
    };
    struct CrpRecord {
        std::uint8_t priority = 0;
        std::vector<net::Prefix> ranges;
        sim::Time deadline = 0;
    };
    struct LearnedEntry {
        Bootstrap::RpEntry entry;
        sim::Time deadline = 0;
    };

    void on_message(int ifindex, const net::Packet& packet);
    void handle_bootstrap(int ifindex, const net::Packet& packet, const Bootstrap& msg);
    void handle_crp_adv(const CandidateRpAdvertisement& msg);
    void on_tick();
    /// (Re-)elects: adopts `addr/priority` as the BSR view if it beats the
    /// current one (or the current one expired); emits kBsrElected on change.
    bool adopt_bsr(net::Ipv4Address addr, std::uint8_t priority, sim::Time deadline);
    void become_bsr_if_best();
    void originate_bootstrap();
    void flood(const Bootstrap& msg, int except_ifindex);
    void send_crp_adv();
    /// Installs `entries` into the RpSet dynamic layer; on change bumps
    /// pimlib_rp_set_changes_total, emits kRpSetChanged and re-homes trees.
    void apply_learned_set();
    [[nodiscard]] Bootstrap assemble_bootstrap();

    PimSmRouter* pim_;
    BootstrapConfig config_;

    std::optional<std::uint8_t> candidate_bsr_;
    std::vector<std::pair<net::Prefix, std::uint8_t>> candidate_ranges_;

    BsrView bsr_view_;
    /// Flood dedup: highest sequence number seen per originating BSR.
    std::map<net::Ipv4Address, std::uint32_t> last_seq_;
    /// BSR side: advertisements heard from candidate RPs.
    std::map<net::Ipv4Address, CrpRecord> crp_records_;
    /// Receiver side: the learned RP set with per-entry expiry.
    std::vector<LearnedEntry> learned_;
    bool applied_nonempty_ = false; // for mutate_stale_rp_set
    /// pimlib_rp_set_changes_total, resolved on the first change.
    telemetry::Counter* rp_set_changes_ = nullptr;
    std::uint32_t seq_ = 0;
    sim::Time last_crp_adv_ = 0;
    sim::Time last_origination_ = 0;

    sim::PeriodicTimer tick_timer_;
};

} // namespace pimlib::pim
