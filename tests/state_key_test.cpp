// The checker's state-dedup key (scenario::StackBase::state_key over
// mcast::entry_state_hash) against the snapshot diff it stands in for:
// keys are equal exactly when capture_mrib() snapshots diff empty, under
// all five stacks and through faults; timers never move the key; and
// computing it allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string_view>

#include "alloc_count.hpp"
#include "check/scenario.hpp"
#include "mcast/forwarding_cache.hpp"
#include "scenario/world.hpp"
#include "telemetry/snapshot.hpp"
#include "test_util.hpp"

namespace pimlib::test {
namespace {

constexpr sim::Time kMs = sim::kMillisecond;

const net::Ipv4Address kRp(10, 0, 0, 1);
const net::Ipv4Address kSource(10, 0, 1, 2);
const net::Ipv4Address kNeighbor(10, 0, 2, 3);
const net::Ipv4Address kOtherNeighbor(10, 0, 3, 4);

// --- one cache -------------------------------------------------------------

void add_wc(mcast::ForwardingCache& cache) {
    mcast::ForwardingEntry& wc = cache.ensure_wc(kRp, kGroup);
    wc.set_iif(0);
    wc.set_upstream_neighbor(kNeighbor);
    wc.add_oif(1, 500 * kMs);
    wc.pin_oif(2);
}

void add_sg(mcast::ForwardingCache& cache) {
    mcast::ForwardingEntry& sg = cache.ensure_sg(kSource, kGroup);
    sg.set_iif(1);
    sg.add_oif(2, 500 * kMs);
}

std::uint64_t key_after(const std::function<void(mcast::ForwardingCache&)>& change) {
    mcast::ForwardingCache cache;
    add_wc(cache);
    add_sg(cache);
    change(cache);
    return cache.structural_hash();
}

TEST(StateKey, TimersNeverMoveTheCacheHash) {
    const std::uint64_t base = key_after([](mcast::ForwardingCache&) {});
    EXPECT_EQ(key_after([](mcast::ForwardingCache& c) {
                  c.find_wc(kGroup)->refresh_oif(1, 900 * kMs);
              }),
              base);
    EXPECT_EQ(key_after([](mcast::ForwardingCache& c) {
                  c.find_sg(kSource, kGroup)->add_oif(2, 2000 * kMs);
              }),
              base);
    EXPECT_EQ(key_after([](mcast::ForwardingCache& c) {
                  mcast::ForwardingEntry& wc = *c.find_wc(kGroup);
                  wc.set_delete_at(3000 * kMs);
                  wc.set_rp_timer_deadline(4000 * kMs);
                  wc.note_data(10 * kMs);
              }),
              base);
}

TEST(StateKey, EveryStructuralFieldMovesTheCacheHash) {
    const std::uint64_t base = key_after([](mcast::ForwardingCache&) {});
    const std::vector<std::pair<const char*, std::function<void(mcast::ForwardingCache&)>>>
        changes = {
            {"rp bit", [](auto& c) { c.find_sg(kSource, kGroup)->set_rp_bit(true); }},
            {"spt bit", [](auto& c) { c.find_sg(kSource, kGroup)->set_spt_bit(true); }},
            {"iif", [](auto& c) { c.find_sg(kSource, kGroup)->set_iif(3); }},
            {"upstream moved",
             [](auto& c) { c.find_wc(kGroup)->set_upstream_neighbor(kOtherNeighbor); }},
            {"upstream cleared",
             [](auto& c) { c.find_wc(kGroup)->set_upstream_neighbor(std::nullopt); }},
            {"upstream set",
             [](auto& c) { c.find_sg(kSource, kGroup)->set_upstream_neighbor(kNeighbor); }},
            {"oif added", [](auto& c) { c.find_sg(kSource, kGroup)->add_oif(3, 500 * kMs); }},
            // Already expired at any checkpoint after 1 ns, but still stored:
            // the snapshot signature lists it until it is reaped.
            {"expired oif kept", [](auto& c) { c.find_wc(kGroup)->add_oif(3, 1); }},
            {"pruned", [](auto& c) { c.find_sg(kSource, kGroup)->mark_pruned(4); }},
        };
    for (const auto& [what, change] : changes) {
        EXPECT_NE(key_after(change), base) << what;
    }
}

TEST(StateKey, CacheHashIgnoresInsertionOrder) {
    mcast::ForwardingCache forward;
    add_wc(forward);
    add_sg(forward);
    mcast::ForwardingCache reverse;
    add_sg(reverse);
    add_wc(reverse);
    EXPECT_EQ(forward.structural_hash(), reverse.structural_hash());
}

// --- whole stacks ----------------------------------------------------------

// The stack's caches filled by hand, before any protocol event runs.
TEST(StateKey, TheSameEntriesAtAnotherRouterKeyDifferently) {
    Fig3Topology topo;
    scenario::PimSmStack stack(topo.net, fast_config());
    const std::uint64_t empty = stack.state_key();
    add_wc(stack.pim_at(*topo.a).cache());
    const std::uint64_t at_a = stack.state_key();
    stack.pim_at(*topo.a).cache().clear();
    add_wc(stack.pim_at(*topo.b).cache());
    const std::uint64_t at_b = stack.state_key();
    EXPECT_NE(at_a, empty);
    EXPECT_NE(at_b, empty);
    EXPECT_NE(at_a, at_b);
}

struct Checkpoint {
    std::uint64_t key = 0;
    telemetry::MribSnapshot mrib;
};

/// Steps `net` 1 ms at a time up to `until`, taking the key and a snapshot
/// at every step, as the checker does.
void checkpoint(topo::Network& net, scenario::StackBase& stack, sim::Time until,
                std::vector<Checkpoint>& out) {
    for (sim::Time t = net.simulator().now() + kMs; t <= until; t += kMs) {
        net.simulator().run_until(t);
        out.push_back({stack.state_key(), stack.capture_mrib()});
    }
}

/// For every pair of checkpoints: keys equal exactly when the diff is
/// empty. An empty diff means equal signature sets, an equivalence, so it
/// is enough to diff each checkpoint against the first one seen with its
/// key and to diff those first ones against each other.
void expect_key_matches_diff(const std::vector<Checkpoint>& points) {
    std::vector<std::size_t> firsts;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto same_key = std::find_if(firsts.begin(), firsts.end(), [&](std::size_t f) {
            return points[f].key == points[i].key;
        });
        if (same_key != firsts.end()) {
            const telemetry::MribDiff d =
                telemetry::diff(points[*same_key].mrib, points[i].mrib);
            EXPECT_TRUE(d.empty()) << "equal keys at " << points[*same_key].mrib.at << " and "
                                   << points[i].mrib.at << " but\n"
                                   << d.to_text();
            continue;
        }
        for (const std::size_t f : firsts) {
            EXPECT_FALSE(telemetry::diff(points[f].mrib, points[i].mrib).empty())
                << "distinct keys at " << points[f].mrib.at << " and " << points[i].mrib.at
                << " but an empty diff";
        }
        firsts.push_back(i);
    }
    EXPECT_GT(firsts.size(), 3u) << "the run never changed its trees";
}

/// Runs `text` to its `run` time with checkpoints every 1 ms, firing
/// candidate `fault` of fault slot 0 (none when negative).
std::vector<Checkpoint> run_script_checkpoints(std::string_view text, int fault = -1) {
    const scenario::Blueprint plan(scenario::parse_script(text));
    const scenario::Script& script = plan.script();
    scenario::World world(plan);
    world.start_workloads();
    world.schedule_actions();
    if (fault >= 0) {
        const scenario::FaultSlot& slot = script.fault_slots.at(0);
        world.net.simulator().schedule_at(slot.at, [&world, &slot, fault] {
            world.inject(slot.candidates.at(static_cast<std::size_t>(fault)), slot.repair);
        });
    }
    std::vector<Checkpoint> points;
    checkpoint(world.net, world.stack(), script.run_until, points);
    return points;
}

TEST(StateKey, AgreesWithDiffThroughTheWalkthroughAndItsFaults) {
    const std::string_view text = check::scenario_script("walkthrough");
    const int candidates =
        static_cast<int>(scenario::parse_script(text).fault_slots.at(0).candidates.size());
    for (int fault = -1; fault < candidates; ++fault) {
        SCOPED_TRACE(fault);
        expect_key_matches_diff(run_script_checkpoints(text, fault));
    }
}

TEST(StateKey, RpFailoverEndStatesKeyDifferently) {
    const std::string_view text = check::scenario_script("rp-failover");
    const std::vector<Checkpoint> calm = run_script_checkpoints(text);
    const std::vector<Checkpoint> crashed = run_script_checkpoints(text, 0);
    ASSERT_FALSE(calm.empty());
    ASSERT_FALSE(crashed.empty());
    EXPECT_FALSE(telemetry::diff(calm.back().mrib, crashed.back().mrib).empty());
    EXPECT_NE(calm.back().key, crashed.back().key);
}

/// The provenance tests' five-stack world, then the receiver leaves and
/// the tree decays: joins, data, prunes and expiry under every protocol.
std::vector<Checkpoint> run_fig3_checkpoints(Fig3Topology& topo, scenario::StackBase& stack,
                                             std::string_view protocol) {
    std::vector<Checkpoint> points;
    checkpoint(topo.net, stack, 200 * kMs, points);
    stack.host_agent(*topo.receiver).join(kGroup);
    if (protocol == "cbt") stack.host_agent(*topo.source).join(kGroup);
    checkpoint(topo.net, stack, 700 * kMs, points);
    topo.source->send_stream(kGroup, 10, 50 * kMs);
    checkpoint(topo.net, stack, 1700 * kMs, points);
    stack.host_agent(*topo.receiver).leave(kGroup);
    checkpoint(topo.net, stack, 4700 * kMs, points);
    return points;
}

TEST(StateKey, AgreesWithDiffUnderEveryStack) {
    for (const auto& [protocol, make] : scenario::kStackProtocols) {
        SCOPED_TRACE(protocol);
        Fig3Topology topo;
        const std::unique_ptr<scenario::StackBase> stack = make(topo.net, fast_config());
        stack->set_rp(kGroup, {topo.b->router_id()});
        expect_key_matches_diff(run_fig3_checkpoints(topo, *stack, protocol));
    }
}

/// R2 is transit for R1's member and has a member LAN of its own; that
/// member leaves while R2 stays on the tree, so the only change at R2 is
/// its member LAN dropping out of the oif set.
std::string transit_member_script(std::string_view protocol) {
    return "topology\n"
           "router R1\nrouter R2\nrouter R3\n"
           "link R1 R2 delay=1ms\nlink R2 R3 delay=1ms\n"
           "lan lan1 R1\nlan lan2 R2\nlan lan3 R3\n"
           "host h1 lan1\nhost h2 lan2\nhost src lan3\n"
           "end\n"
           "protocol " + std::string(protocol) + "\n"
           "rp 224.9.9.9 R3\n"
           "at 100ms join h1 224.9.9.9\n"
           "at 100ms join src 224.9.9.9\n"
           "at 300ms join h2 224.9.9.9\n"
           "at 400ms send src 224.9.9.9 count=40 interval=100ms\n"
           "at 1500ms leave h2 224.9.9.9\n"
           "run 5000ms\n";
}

TEST(StateKey, AgreesWithDiffWhenATransitRoutersMemberLeaves) {
    for (const auto& [protocol, make] : scenario::kStackProtocols) {
        SCOPED_TRACE(protocol);
        expect_key_matches_diff(run_script_checkpoints(transit_member_script(protocol)));
    }
}

TEST(StateKey, ComputingTheKeyAllocatesNothing) {
    for (const auto& [protocol, make] : scenario::kStackProtocols) {
        SCOPED_TRACE(protocol);
        Fig3Topology topo;
        const std::unique_ptr<scenario::StackBase> stack = make(topo.net, fast_config());
        stack->set_rp(kGroup, {topo.b->router_id()});
        stack->host_agent(*topo.receiver).join(kGroup);
        if (protocol == "cbt") stack->host_agent(*topo.source).join(kGroup);
        topo.net.run_for(500 * kMs);
        topo.source->send_stream(kGroup, 5, 20 * kMs);
        topo.net.run_for(200 * kMs);
        ASSERT_GT(stack->capture_mrib().entry_count(), 0u);

        const std::uint64_t before = g_alloc_count.load();
        const std::uint64_t key = stack->state_key();
        EXPECT_EQ(g_alloc_count.load(), before) << "state_key() allocated";
        EXPECT_NE(key, 0u);
    }
}

} // namespace
} // namespace pimlib::test
