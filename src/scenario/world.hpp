// The build step of the scenario language: a simulated world from a parsed
// Script (scenario/script.hpp), in two parts.
//
// A Blueprint is what every world built from one script shares, built once
// and read-only afterwards: the script, its parsed topology block (with the
// router, host and LAN name tables) and every router's initial unicast
// routes. The checker builds one per scenario at load time and its worker
// threads share it without locks.
//
// A World is one run's mutable part, built from a blueprint: network,
// topology (built from the parsed block, tokenizing nothing), oracle
// unicast routing (started from the blueprint's routes; faults recompute
// them), the protocol stack and a fault injector wired for crash resets, in
// that order; the script's observers are optional. Nothing is scheduled
// until start_workloads() / schedule_actions() are called, so a caller (the
// checker) can install its own instruments first.
//
// run_script() is the whole pimsim driver: build, attach the script's
// observers, run, print the report, judge the `expect` lines.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/watchdog.hpp"
#include "fault/fault_injector.hpp"
#include "provenance/provenance.hpp"
#include "scenario/script.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/tree_monitor.hpp"
#include "topo/builder.hpp"
#include "trace/tracer.hpp"
#include "unicast/oracle_routing.hpp"
#include "workload/host_bank.hpp"

namespace pimlib::scenario {

/// One segment as the checker names it: "A-B" for a link, the LAN's name
/// for a LAN — "lan0(A)" when exactly one router attaches.
struct SegmentInfo {
    std::string name;
    std::vector<std::string> routers; // attached routers, attach order
    bool lan = false;
};

class Blueprint {
public:
    /// Parses the topology block and routes it once. A generated
    /// (transit-stub) topology is built and routed by each world, so its
    /// blueprint holds the script alone. Throws std::runtime_error on a bad
    /// topology block.
    explicit Blueprint(Script script);

    [[nodiscard]] const Script& script() const { return script_; }
    /// The parsed topology block; nullptr for a generated topology.
    [[nodiscard]] const topo::TopologySpec* topology() const {
        return topology_ ? &*topology_ : nullptr;
    }
    /// Every router's unicast routes before any fault; nullptr for a
    /// generated topology.
    [[nodiscard]] const unicast::RouteTables* routes() const {
        return routes_ ? &*routes_ : nullptr;
    }

private:
    Script script_;
    std::optional<topo::TopologySpec> topology_;
    std::optional<unicast::RouteTables> routes_;
};

class World {
public:
    /// kScript attaches what the script asks for (trace, provenance,
    /// telemetry, profile, watchdog, tree monitor), as pimsim does.
    enum class Observers { kNone, kScript };

    /// Builds the world from `plan`, which must outlive it. `mutation` (a
    /// check::known_mutations() name or "") is applied on top of the
    /// script's own `mutate` lines. Throws std::runtime_error on unknown
    /// names in the script.
    explicit World(const Blueprint& plan, Observers observers = Observers::kNone,
                   const std::string& mutation = {});

    World(const World&) = delete;
    World& operator=(const World&) = delete;

    [[nodiscard]] topo::Router& router(const std::string& name);
    [[nodiscard]] topo::Host& host(const std::string& name);
    [[nodiscard]] topo::Segment& lan(const std::string& name);
    [[nodiscard]] topo::Segment& link(const std::string& a, const std::string& b);

    [[nodiscard]] StackBase& stack() { return *stack_; }
    /// The PIM-SM stack, or nullptr for other protocols.
    [[nodiscard]] PimSmStack* pim_sm() { return pim_sm_; }
    [[nodiscard]] fault::FaultInjector& faults() { return *faults_; }
    [[nodiscard]] const StackConfig& config() const { return config_; }

    /// Every segment, indexed by segment id. LANs are named only in a
    /// topology block; generated topologies name every segment by its
    /// routers.
    [[nodiscard]] std::vector<SegmentInfo> segments();

    /// Starts the churn workload and on/off senders.
    void start_workloads();
    /// Schedules every `at` line in script order. A send schedules its
    /// packets now, with the line's time as start offset.
    void schedule_actions();
    /// Fires a fault candidate now and schedules its undoing `repair` later
    /// (never when repair is 0).
    void inject(const Action& fault, sim::Time repair);

    /// Runs to the script's `run` time and prints pimsim's report. Returns
    /// whether every `expect` line held.
    bool run_and_report();

    topo::Network net;

private:
    void dump_state();
    void dump_metrics(const std::string& format);
    void take_snapshot(bool print);
    void mtrace(const Action& a);
    void dump_provenance();

    const Script& script_;
    std::optional<topo::TopologyBuilder> topo_;
    std::unique_ptr<workload::TransitStubNetwork> generated_;
    std::unique_ptr<unicast::OracleRouting> routing_;
    std::unique_ptr<trace::PacketTracer> tracer_;
    std::unique_ptr<provenance::Recorder> recorder_;
    StackConfig config_;
    std::unique_ptr<StackBase> stack_;
    PimSmStack* pim_sm_ = nullptr;
    std::unique_ptr<fault::FaultInjector> faults_;
    std::unique_ptr<telemetry::TreeMonitor> monitor_;
    std::unique_ptr<check::Watchdog> watchdog_;
    std::vector<std::unique_ptr<workload::HostBank>> banks_;
    std::unique_ptr<workload::ChurnEngine> churn_;
    std::vector<std::unique_ptr<workload::OnOffSender>> senders_;
    bool profiling_ = false;
};

/// pimsim: parses `text`, builds it with the script's observers, runs it
/// and prints the report on stdout. Returns whether every `expect` line
/// held; throws std::runtime_error on bad input.
[[nodiscard]] bool run_script(std::string_view text);

} // namespace pimlib::scenario
