// Owns a whole simulated internetwork: the simulator clock, routers, hosts,
// segments, the address plan, and the global statistics sink. Provides the
// builder API used by tests, examples and benchmarks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "provenance/provenance.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "telemetry/hub.hpp"
#include "topo/host.hpp"
#include "topo/router.hpp"
#include "topo/segment.hpp"

namespace pimlib::topo {

class Network {
public:
    Network() = default;

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /// Adds a router. Its router id is 192.168.(n/256).(n%256) where n is a
    /// monotonically increasing counter — a /32 that unicast routing
    /// advertises like a loopback.
    Router& add_router(const std::string& name);

    /// Creates a point-to-point link between two routers. The segment gets
    /// the next /24 from the 10.0.0.0/8 pool; endpoints get .1 and .2.
    Segment& add_link(Router& a, Router& b, sim::Time delay = sim::kMillisecond,
                      int metric = 1);

    /// Creates a multi-access LAN attaching all `routers` (may be empty;
    /// hosts/routers can attach later via attach_to_lan).
    Segment& add_lan(const std::vector<Router*>& routers,
                     sim::Time delay = sim::kMillisecond / 10, int metric = 1);

    /// Attaches an existing router to a LAN, allocating the next host slot.
    int attach_to_lan(Router& router, Segment& lan);

    /// Adds a host on `lan`.
    Host& add_host(const std::string& name, Segment& lan);

    [[nodiscard]] const std::vector<std::unique_ptr<Router>>& routers() const { return routers_; }
    [[nodiscard]] const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
    [[nodiscard]] const std::vector<std::unique_ptr<Segment>>& segments() const { return segments_; }
    [[nodiscard]] Router& router(std::size_t i) { return *routers_.at(i); }
    [[nodiscard]] Host& host(std::size_t i) { return *hosts_.at(i); }
    [[nodiscard]] Segment& segment(std::size_t i) { return *segments_.at(i); }

    /// Finds the segment (if any) that directly connects routers a and b.
    [[nodiscard]] Segment* find_link(const Router& a, const Router& b);

    [[nodiscard]] sim::Simulator& simulator() { return sim_; }
    [[nodiscard]] stats::NetworkStats& stats() { return stats_; }
    [[nodiscard]] const stats::NetworkStats& stats() const { return stats_; }
    /// The unified observability pipeline: metrics registry, event log,
    /// span tracker and MRIB snapshot store. NetworkStats counts through
    /// handles it resolves once in the same registry, so stats() and
    /// telemetry() are two views of one sink.
    [[nodiscard]] telemetry::Hub& telemetry() { return telemetry_; }
    [[nodiscard]] const telemetry::Hub& telemetry() const { return telemetry_; }

    /// Attaches (or detaches, with nullptr) a provenance flight recorder.
    /// Registers every existing node's name with it; nodes added later
    /// register as they are created. With no recorder attached every
    /// provenance hook in the stack is a single pointer test.
    void set_provenance(provenance::Recorder* recorder);
    [[nodiscard]] provenance::Recorder* provenance() const { return provenance_; }

    /// The one hop builder every provenance hook calls: a ring slot at
    /// `node` with `packet`'s common fields stamped at the current sim
    /// time, or nullptr when no recorder is attached or the packet is
    /// unstamped. The hook sets only its decision fields (kind, iif, drop,
    /// oifs, ...) and then calls provenance()->commit().
    [[nodiscard]] provenance::HopRecord* begin_hop(const Node& node,
                                                   const net::Packet& packet) {
        if (provenance_ == nullptr) return nullptr;
        return provenance_->begin(node.id(), packet, sim_.now());
    }

    /// Wiretaps: called for every frame a segment transmits (before delivery,
    /// including frames lost to injected segment loss). Several taps can
    /// coexist — e.g. a trace::PacketTracer and a fault::ConvergenceProbe —
    /// and each sees every frame in registration order.
    using PacketTap = std::function<void(const Segment&, const net::Frame&)>;
    int add_packet_tap(PacketTap tap);
    void remove_packet_tap(int token);
    [[nodiscard]] bool has_packet_taps() const { return !taps_.empty(); }
    /// Invoked by Segment::transmit; fans the frame out to every tap.
    void dispatch_packet_taps(const Segment& segment, const net::Frame& frame) const;

    /// Topology-change observers: notified whenever a segment or interface
    /// flips up/down state (not during construction). unicast::OracleRouting
    /// subscribes so a link fault re-converges every RIB the way a real
    /// (converged) unicast routing domain would (§2.7 robustness).
    using TopologyObserver = std::function<void()>;
    int add_topology_observer(TopologyObserver observer);
    void remove_topology_observer(int token);
    void notify_topology_changed();

    /// RAII coalescing for compound faults: while alive, topology-change
    /// notifications are deferred; one fires on destruction if anything
    /// changed. fault::FaultInjector wraps multi-interface faults (router
    /// crash, partition) in one batch so RIBs recompute once.
    class TopologyBatch {
    public:
        explicit TopologyBatch(Network& network) : network_(&network) {
            ++network_->topo_suspend_;
        }
        ~TopologyBatch() {
            if (--network_->topo_suspend_ == 0 && network_->topo_dirty_) {
                network_->topo_dirty_ = false;
                network_->notify_topology_changed();
            }
        }
        TopologyBatch(const TopologyBatch&) = delete;
        TopologyBatch& operator=(const TopologyBatch&) = delete;

    private:
        Network* network_;
    };

    /// Runs the simulation for `duration` of simulated time.
    void run_for(sim::Time duration) { sim_.run_until(sim_.now() + duration); }

    /// Global RNG seed for every derived random stream in the network
    /// (segment loss, IGMP host report spread, ...). Setting it re-seeds the
    /// loss RNG of every existing segment, so it can be applied at any point
    /// before the run. Seed 0 (the default) keeps the legacy per-object
    /// derivation, so existing scenarios replay unchanged.
    void set_seed(std::uint64_t seed);
    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    /// A per-object RNG seed derived from the global seed. `legacy_salt`
    /// reproduces the historical `salt * 2654435761 + 1` stream when the
    /// global seed is 0; `stream_tag` decorrelates object classes (segments,
    /// host agents, ...) when a global seed is set (splitmix64 mix).
    [[nodiscard]] std::uint32_t derived_seed(std::uint32_t legacy_salt,
                                             std::uint64_t stream_tag) const;

    /// Stream-tag bases for derived_seed (add the object's id).
    static constexpr std::uint64_t kSegmentStreamTag = 0x5e67'0000'0000ull;
    static constexpr std::uint64_t kHostAgentStreamTag = 0xa63e'0000'0000ull;

private:
    net::Prefix next_segment_prefix();

    friend class TopologyBatch;

    sim::Simulator sim_;
    // Declaration order matters: the hub is bound to sim_, and stats_ writes
    // into the hub's registry.
    telemetry::Hub telemetry_{sim_};
    stats::NetworkStats stats_{telemetry_.registry()};
    provenance::Recorder* provenance_ = nullptr;
    std::map<int, PacketTap> taps_;
    int next_tap_token_ = 1;
    std::map<int, TopologyObserver> topo_observers_;
    int next_topo_token_ = 1;
    int topo_suspend_ = 0;
    bool topo_dirty_ = false;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Host>> hosts_;
    std::vector<std::unique_ptr<Segment>> segments_;
    int next_segment_number_ = 0;
    int next_node_id_ = 0;
    int next_router_number_ = 1;
    std::uint64_t seed_ = 0;
};

} // namespace pimlib::topo
