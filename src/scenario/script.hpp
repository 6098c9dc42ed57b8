// pimsim scenario scripts: the one text format for scripted worlds. pimsim
// runs them, and the checker's scenarios (src/check/scenarios/*.pimsim)
// are written in it too.
//
// Reading a script is two steps: parse_script() turns the text into a
// Script, plain data that touches no network; scenario::World
// (scenario/world.hpp) builds a fresh world from it as often as needed.
// One directive per line, '#' starts a comment:
//
//     seed 42
//     topology … end                   # topo::TopologyBuilder block, or
//     topology transit-stub transit=2 transit-size=3 stubs=2 stub-size=3 senders=2
//     protocol pim-sm|pim-dm|dvmrp|cbt|mospf
//     rp GROUP ROUTER…                 # pim-sm RP list; cbt: core
//     candidate-bsr ROUTER [PRIO] | candidate-rp GROUP-OR-PREFIX ROUTER [PRIO]
//     spt-policy immediate|never|threshold M WINDOW_MS
//     mutate NAME                      # seeded protocol bug (pimcheck --list)
//     workload churn|flash|sender …    # churn rate=200 mean=2s groups=8 zipf=1.0 bank=1000
//     trace on | telemetry off | provenance on | profile on|off
//     watchdog on | monitor trees T | snapshot-every T
//     dump-profile FILE | dump-timeline FILE
//     at T join|leave HOST GROUP | send HOST GROUP [count=N] [interval=T]
//     at T fail-link|heal-link A B | crash-router|restart-router R
//     at T loss-link A B RATE | loss-lan LAN RATE | partition A B [C D…] | heal-partition
//     at T dump-state | dump-metrics [prom|json] | dump-events | snapshot
//     at T mtrace SRC-HOST DST-HOST GROUP | dump-provenance | profile on|off
//     run T
//
// Three directives describe a checker scenario; pimsim ignores them:
//
//     fault-slot T [repair=D] fail-link:A,B crash-router:R …
//                                      # a decision point: the checker fires
//                                      # none or one candidate at T, and
//                                      # undoes it D later when given
//     horizon T                        # when the deadline oracles judge
//     oracle NAME [ARG…] [from=T] [crossings=N]   # see check/scenario.hpp
//
// Every number goes through one checked parser: errors read "line N: …",
// and negative times, counts and rates are rejected.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/transit_stub.hpp"
#include "pim/pim_sm.hpp"
#include "workload/churn.hpp"
#include "workload/topology.hpp"

namespace pimlib::scenario {

/// One `at T VERB ARG…` line, or one fault-slot candidate.
struct Action {
    int line = 0;
    sim::Time at = 0;
    std::string verb;
    std::vector<std::string> args;               // as written
    net::GroupAddress group{};                   // join, leave, send, mtrace
    int count = 1;                               // send
    sim::Time interval = 50 * sim::kMillisecond; // send
    double rate = 0;                             // loss-link, loss-lan
};

struct FaultSlot {
    sim::Time at = 0;
    sim::Time repair = 0; // 0: never undone
    std::vector<Action> candidates;
};

struct OracleSpec {
    int line = 0;
    std::string name;
    std::vector<std::string> args; // positional arguments
    sim::Time from = 0;            // from=
    int crossings = 0;             // crossings=
};

struct Script {
    std::string text; // the source, verbatim

    std::string topology; // TopologyBuilder block; unused when transit_stub
    bool transit_stub = false;
    graph::TransitStubOptions transit;
    workload::MaterializeOptions materialize;
    std::uint64_t graph_seed = 1;
    std::uint64_t seed = 0;

    std::string protocol = "pim-sm";
    struct Rp {
        net::GroupAddress group;
        std::vector<std::string> routers;
    };
    std::vector<Rp> rps;
    struct Candidate {
        net::Prefix range; // candidate-rp only
        std::string router;
        std::uint8_t priority = 0;
    };
    std::vector<Candidate> candidate_bsrs;
    std::vector<Candidate> candidate_rps;
    pim::SptPolicy spt_policy = pim::SptPolicy::immediate();
    std::vector<std::string> mutations;

    bool churn = false;
    workload::ChurnConfig churn_config;
    int bank_capacity = 1000;
    struct Sender {
        std::string host;
        net::GroupAddress group;
        workload::OnOffSenderConfig config;
    };
    std::vector<Sender> senders;

    // Observers: pimsim attaches them; checker runs take theirs from
    // check::RunConfig instead.
    bool trace = false;
    bool telemetry = true;
    bool provenance = false;
    bool watchdog = false;
    bool profile = false;
    std::string profile_path;
    std::string timeline_path;
    sim::Time monitor_interval = 0;
    sim::Time snapshot_every = 0;
    bool loss_possible = false; // a fault, loss or leave is scripted

    std::vector<Action> actions; // script order
    sim::Time run_until = 0;

    std::vector<FaultSlot> fault_slots;
    sim::Time horizon = 0;
    std::vector<OracleSpec> oracles;
};

/// Throws std::runtime_error("line N: …") on a syntax error. Names are
/// checked when a World is built from the result.
[[nodiscard]] Script parse_script(std::string_view text);

/// "250ms", or "1500us" when the time is not a whole millisecond.
[[nodiscard]] std::string format_time(sim::Time t);

/// A fault candidate's label, e.g. "crash-router-R1" or "fail-link-A-C".
[[nodiscard]] std::string fault_label(const Action& fault);

/// The `at` lines that replay firing `fault` at `slot` in pimsim: the fault,
/// plus its undoing when the slot has a repair time.
[[nodiscard]] std::string render_fault(const FaultSlot& slot, const Action& fault);

} // namespace pimlib::scenario
