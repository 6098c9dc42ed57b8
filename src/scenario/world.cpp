#include "scenario/world.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>

#include "check/scenario.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/profiler/export.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "trace/timeline.hpp"
#include "workload/churn.hpp"
#include "workload/topology.hpp"

namespace pimlib::scenario {
namespace {

/// Runs `f`, prefixing any error with the script line it came from.
template <typename F>
void at_line(int line, F&& f) {
    try {
        f();
    } catch (const std::exception& e) {
        throw std::runtime_error("line " + std::to_string(line) + ": " + e.what());
    }
}

double ms(sim::Time t) { return static_cast<double>(t) / sim::kMillisecond; }

} // namespace

World::World(const Script& script, Observers observers, const std::string& mutation)
    : script_(script) {
    if (script.seed != 0) net.set_seed(script.seed);
    if (script.transit_stub) {
        std::mt19937 rng(static_cast<std::mt19937::result_type>(script.graph_seed));
        generated_ = std::make_unique<workload::TransitStubNetwork>(
            workload::build_transit_stub(net, script.transit, rng, script.materialize));
    } else {
        topo_ = std::make_unique<topo::TopologyBuilder>(
            topo::TopologyBuilder::parse(net, script.topology));
    }

    const bool observe = observers == Observers::kScript;
    if (observe) {
        net.telemetry().set_tracing(script.telemetry);
        profiling_ = script.profile || !script.profile_path.empty();
        if (profiling_) {
            prof::reset();
            // Stamp every zone record with the sim time it covered, so the
            // flamegraph and the timeline's CPU track read against the
            // scenario's own clock.
            prof::set_time_source(
                [](const void* ctx) {
                    return static_cast<std::int64_t>(
                        static_cast<const sim::Simulator*>(ctx)->now());
                },
                &net.simulator());
            prof::set_enabled(script.profile);
        }
    }

    routing_ = std::make_unique<unicast::OracleRouting>(net);
    if (observe && script.trace) tracer_ = std::make_unique<trace::PacketTracer>(net);
    if (observe && script.provenance) {
        recorder_ = std::make_unique<provenance::Recorder>();
        net.set_provenance(recorder_.get());
    }

    config_ = StackConfig{}.scaled(0.01);
    for (const std::string& m : script.mutations) (void)check::apply_mutation(m, config_);
    if (!check::apply_mutation(mutation, config_)) {
        throw std::runtime_error("unknown mutation '" + mutation + "'");
    }
    const std::string& protocol = script.protocol;
    if (protocol == "pim-sm") {
        auto sm = std::make_unique<PimSmStack>(net, config_);
        sm->set_spt_policy(script.spt_policy);
        for (const Script::Rp& rp : script.rps) {
            std::vector<net::Ipv4Address> addrs;
            for (const std::string& name : rp.routers) addrs.push_back(router(name).router_id());
            sm->set_rp(rp.group, addrs);
        }
        for (const Script::Candidate& c : script.candidate_bsrs) {
            sm->set_candidate_bsr(router(c.router), c.priority);
        }
        for (const Script::Candidate& c : script.candidate_rps) {
            sm->set_candidate_rp(router(c.router), c.range, c.priority);
        }
        pim_sm_ = sm.get();
        stack_ = std::move(sm);
    } else if (protocol == "pim-dm") {
        stack_ = std::make_unique<PimDmStack>(net, config_);
    } else if (protocol == "dvmrp") {
        stack_ = std::make_unique<DvmrpStack>(net, config_);
    } else if (protocol == "cbt") {
        auto cbt = std::make_unique<CbtStack>(net, config_);
        for (const Script::Rp& rp : script.rps) {
            cbt->set_core(rp.group, router(rp.routers.front()).router_id());
        }
        stack_ = std::move(cbt);
    } else {
        stack_ = std::make_unique<MospfStack>(net, config_);
    }
    faults_ = std::make_unique<fault::FaultInjector>(net);
    stack_->wire_faults(*faults_);

    const auto resolver = [this](const topo::Router& r) { return stack_->cache_of(r); };
    if (observe && script.watchdog) {
        watchdog_ = std::make_unique<check::Watchdog>(net, resolver);
        if (recorder_) watchdog_->set_recorder(recorder_.get());
        watchdog_->set_loss_expected(script.loss_possible || script.churn);
        watchdog_->start();
    }
    if (observe && script.monitor_interval > 0) {
        telemetry::TreeMonitorConfig mon;
        mon.interval = script.monitor_interval;
        monitor_ = std::make_unique<telemetry::TreeMonitor>(net, resolver, mon);
        monitor_->start();
    }
}

topo::Router& World::router(const std::string& name) {
    if (topo_) return topo_->router(name);
    for (topo::Router* r : generated_->routers) {
        if (r->name() == name) return *r;
    }
    throw std::runtime_error("unknown router '" + name + "'");
}

topo::Host& World::host(const std::string& name) {
    if (topo_) return topo_->host(name);
    for (const auto* hosts : {&generated_->bank_hosts, &generated_->senders}) {
        for (topo::Host* h : *hosts) {
            if (h->name() == name) return *h;
        }
    }
    throw std::runtime_error("unknown host '" + name + "'");
}

topo::Segment& World::lan(const std::string& name) {
    if (topo_) return topo_->lan(name);
    // Generated bank LANs are addressable as lan0..lanN-1.
    for (std::size_t i = 0; i < generated_->lans.size(); ++i) {
        if (name == "lan" + std::to_string(i)) return *generated_->lans[i];
    }
    throw std::runtime_error("unknown lan '" + name + "'");
}

topo::Segment& World::link(const std::string& a, const std::string& b) {
    if (topo_) return topo_->link(a, b);
    topo::Segment* seg = net.find_link(router(a), router(b));
    if (seg == nullptr) throw std::runtime_error("no link between '" + a + "' and '" + b + "'");
    return *seg;
}

std::vector<SegmentInfo> World::segments() {
    std::map<const topo::Segment*, std::string> lan_names;
    if (topo_) {
        for (const auto& [name, seg] : topo_->lans()) lan_names[seg] = name;
    }
    std::vector<SegmentInfo> out;
    for (const auto& seg : net.segments()) {
        SegmentInfo info;
        for (const topo::Segment::Attachment& att : seg->attachments()) {
            if (const auto* r = dynamic_cast<const topo::Router*>(att.node)) {
                info.routers.push_back(r->name());
            }
        }
        const auto it = lan_names.find(seg.get());
        info.lan = it != lan_names.end();
        if (info.lan) {
            info.name = it->second;
            if (info.routers.size() == 1) info.name += "(" + info.routers[0] + ")";
        } else {
            for (const std::string& r : info.routers) {
                info.name += (info.name.empty() ? "" : "-") + r;
            }
        }
        out.push_back(std::move(info));
    }
    return out;
}

void World::start_workloads() {
    if (script_.churn) {
        // Bank hosts: the generated topology's bankN hosts, or every
        // scripted host that is not an on/off sender.
        std::vector<topo::Host*> bank_hosts;
        if (generated_) {
            bank_hosts = generated_->bank_hosts;
        } else {
            for (const auto& h : net.hosts()) {
                const bool is_sender = std::any_of(
                    script_.senders.begin(), script_.senders.end(),
                    [&h](const Script::Sender& s) { return s.host == h->name(); });
                if (!is_sender) bank_hosts.push_back(h.get());
            }
        }
        if (bank_hosts.empty()) throw std::runtime_error("workload churn needs at least one host");
        std::vector<workload::HostBank*> raw;
        for (topo::Host* h : bank_hosts) {
            banks_.push_back(std::make_unique<workload::HostBank>(stack_->host_agent(*h),
                                                                  script_.bank_capacity));
            raw.push_back(banks_.back().get());
        }
        churn_ = std::make_unique<workload::ChurnEngine>(net, raw, script_.churn_config);
        // Catalog groups without an explicit rp/core directive get one
        // auto-assigned: transit routers round-robin on generated
        // topologies (the wide-area core), router 0 on scripted ones.
        auto* cbt = dynamic_cast<CbtStack*>(stack_.get());
        if (pim_sm_ != nullptr || cbt != nullptr) {
            const std::vector<topo::Router*> anchors =
                generated_ ? generated_->transit_routers()
                           : std::vector<topo::Router*>{&net.router(0)};
            for (int r = 0; r < script_.churn_config.groups; ++r) {
                const net::GroupAddress g = churn_->group(r);
                const bool covered =
                    std::any_of(script_.rps.begin(), script_.rps.end(),
                                [g](const Script::Rp& rp) { return rp.group == g; });
                if (covered) continue;
                const topo::Router& anchor =
                    *anchors[static_cast<std::size_t>(r) % anchors.size()];
                if (pim_sm_ != nullptr) {
                    pim_sm_->set_rp(g, {anchor.router_id()});
                } else {
                    cbt->set_core(g, anchor.router_id());
                }
            }
        }
        churn_->start();
    }
    for (const Script::Sender& spec : script_.senders) {
        senders_.push_back(
            std::make_unique<workload::OnOffSender>(host(spec.host), spec.group, spec.config));
        senders_.back()->start();
    }
}

void World::schedule_actions() {
    sim::Simulator& sim = net.simulator();
    for (const Action& a : script_.actions) {
        at_line(a.line, [&] {
            const std::string& v = a.verb;
            if (v == "join" || v == "leave") {
                igmp::HostAgent& agent = stack_->host_agent(host(a.args[0]));
                sim.schedule_at(a.at, [&agent, g = a.group, join = v == "join"] {
                    join ? agent.join(g) : agent.leave(g);
                });
            } else if (v == "send") {
                host(a.args[0]).send_stream(a.group, a.count, a.interval, a.at);
            } else if (v == "fail-link") {
                faults_->cut_link_at(a.at, link(a.args[0], a.args[1]));
            } else if (v == "heal-link") {
                faults_->restore_link_at(a.at, link(a.args[0], a.args[1]));
            } else if (v == "crash-router") {
                faults_->crash_router_at(a.at, router(a.args[0]));
            } else if (v == "restart-router") {
                faults_->restart_router_at(a.at, router(a.args[0]));
            } else if (v == "loss-link" || v == "loss-lan") {
                topo::Segment& seg =
                    v == "loss-link" ? link(a.args[0], a.args[1]) : lan(a.args[0]);
                faults_->set_loss_at(a.at, seg, a.rate);
            } else if (v == "partition") {
                std::vector<topo::Segment*> cut;
                for (std::size_t i = 0; i < a.args.size(); i += 2) {
                    cut.push_back(&link(a.args[i], a.args[i + 1]));
                }
                faults_->partition_at(a.at, std::move(cut));
            } else if (v == "heal-partition") {
                faults_->heal_partition_at(a.at);
            } else if (v == "dump-state") {
                sim.schedule_at(a.at, [this] { dump_state(); });
            } else if (v == "dump-metrics") {
                sim.schedule_at(a.at, [this, format = a.args.empty() ? "prom" : a.args[0]] {
                    dump_metrics(format);
                });
            } else if (v == "dump-events") {
                sim.schedule_at(a.at, [this] {
                    std::printf("--- event log at t=%.1fms ---\n%s",
                                ms(net.simulator().now()),
                                net.telemetry().events().dump().c_str());
                });
            } else if (v == "snapshot") {
                sim.schedule_at(a.at, [this] { take_snapshot(/*print=*/true); });
            } else if (v == "mtrace") {
                (void)host(a.args[0]);
                (void)host(a.args[1]);
                sim.schedule_at(a.at, [this, &a] { mtrace(a); });
            } else if (v == "dump-provenance") {
                sim.schedule_at(a.at, [this] { dump_provenance(); });
            } else if (v == "profile") {
                sim.schedule_at(a.at, [on = a.args[0] == "on"] { prof::set_enabled(on); });
            }
        });
    }
}

void World::inject(const Action& fault, sim::Time repair) {
    const sim::Time undo = net.simulator().now() + repair;
    if (fault.verb == "fail-link") {
        topo::Segment& seg = link(fault.args[0], fault.args[1]);
        faults_->cut_link(seg);
        if (repair > 0) faults_->restore_link_at(undo, seg);
    } else {
        topo::Router& r = router(fault.args[0]);
        faults_->crash_router(r);
        if (repair > 0) faults_->restart_router_at(undo, r);
    }
}

void World::dump_metrics(const std::string& format) {
    std::printf("--- metrics at t=%.1fms (%s) ---\n", ms(net.simulator().now()),
                format.c_str());
    net.telemetry().refresh_timer_gauges();
    if (prof::enabled()) prof::publish_profile(prof::snapshot(), net.telemetry().registry());
    const telemetry::Registry& reg = net.telemetry().registry();
    std::printf("%s", format == "json" ? telemetry::to_json(reg).c_str()
                                       : telemetry::to_prometheus(reg).c_str());
    if (format == "json") std::printf("\n");
}

void World::take_snapshot(bool print) {
    telemetry::Hub& hub = net.telemetry();
    telemetry::MribSnapshot snap = stack_->capture_mrib();
    const telemetry::MribSnapshot* prev =
        hub.snapshots().empty() ? nullptr : &hub.snapshots().back();
    if (print) {
        std::printf("--- mrib snapshot at t=%.1fms (%zu entries) ---\n", ms(snap.at),
                    snap.entry_count());
        if (prev == nullptr) {
            std::printf("%s", snap.to_text().c_str());
        } else {
            const telemetry::MribDiff d = telemetry::diff(*prev, snap);
            std::printf("%s", d.empty() ? "  (no structural change)\n" : d.to_text().c_str());
        }
    }
    hub.store_snapshot(std::move(snap));
}

void World::mtrace(const Action& a) {
    std::printf("--- mtrace %s -> %s group %s at t=%.1fms ---\n", a.args[0].c_str(),
                a.args[1].c_str(), a.group.to_string().c_str(), ms(net.simulator().now()));
    if (!recorder_) {
        std::printf("  (provenance off; add 'provenance on' to the script)\n");
        return;
    }
    const provenance::Recorder::TraceResult result =
        recorder_->trace(host(a.args[0]).address(), a.group.address(), a.args[1]);
    std::printf("%s", recorder_->format_trace(result).c_str());
}

void World::dump_provenance() {
    std::printf("--- provenance dump at t=%.1fms ---\n", ms(net.simulator().now()));
    if (!recorder_) {
        std::printf("  (provenance off; add 'provenance on' to the script)\n");
        return;
    }
    std::printf("%s\n", recorder_->dump_json().c_str());
    const std::string drops = recorder_->drop_summary();
    if (!drops.empty()) std::printf("drops: %s\n", drops.c_str());
}

void World::dump_state() {
    std::printf("--- state at t=%.1fms ---\n", ms(net.simulator().now()));
    const auto print = [](const topo::Router& router) {
        return [&router](mcast::ForwardingEntry& e) {
            std::printf("  %-10s %s\n", router.name().c_str(), e.describe().c_str());
        };
    };
    auto* dm = dynamic_cast<PimDmStack*>(stack_.get());
    auto* dvmrp = dynamic_cast<DvmrpStack*>(stack_.get());
    for (const auto& router : net.routers()) {
        if (pim_sm_ != nullptr) {
            auto& cache = pim_sm_->pim_at(*router).cache();
            cache.for_each_wc(print(*router));
            cache.for_each_sg(print(*router));
        } else if (dm != nullptr) {
            dm->pim_at(*router).cache().for_each_sg(print(*router));
        } else if (dvmrp != nullptr) {
            dvmrp->dvmrp_at(*router).cache().for_each_sg(print(*router));
        }
    }
}

bool World::run_and_report() {
    const Script& s = script_;
    std::vector<const topo::Host*> expected;
    for (const Expect& e : s.expects) at_line(e.line, [&] { expected.push_back(&host(e.host)); });
    if (s.snapshot_every > 0) {
        for (sim::Time at = s.snapshot_every; at <= s.run_until; at += s.snapshot_every) {
            net.simulator().schedule_at(at, [this] { take_snapshot(/*print=*/false); });
        }
    }
    net.run_for(s.run_until);

    if (tracer_) {
        std::printf("--- packet trace (%zu frames) ---\n", tracer_->records().size());
        std::printf("%s", tracer_->dump().c_str());
    }
    std::printf("--- delivery report ---\n");
    for (const auto& h : net.hosts()) {
        if (h->received().empty()) continue;
        std::printf("  %-12s received %zu data packets (%zu duplicates)\n", h->name().c_str(),
                    h->received().size(), h->duplicate_count());
    }
    if (churn_) {
        std::printf("--- workload churn ---\n");
        std::printf("  joins=%llu leaves=%llu saturated=%llu peak=%zu current=%zu\n",
                    static_cast<unsigned long long>(churn_->joins()),
                    static_cast<unsigned long long>(churn_->leaves()),
                    static_cast<unsigned long long>(churn_->saturated_joins()),
                    churn_->membership_peak(), churn_->membership());
        std::vector<double> lat = churn_->join_to_data_seconds();
        if (!lat.empty()) {
            std::sort(lat.begin(), lat.end());
            const auto pct = [&lat](double q) {
                return lat[static_cast<std::size_t>(q * (static_cast<double>(lat.size()) - 1))] *
                       1000.0;
            };
            std::printf("  join-to-data p50=%.2fms p90=%.2fms p99=%.2fms (%zu samples)\n",
                        pct(0.50), pct(0.90), pct(0.99), lat.size());
        }
    }
    std::printf("--- totals: data_tx=%llu control=%llu ---\n",
                static_cast<unsigned long long>(net.stats().total_data_packets()),
                static_cast<unsigned long long>(net.stats().total_control_messages()));
    if (!net.telemetry().spans().completed().empty()) {
        std::printf("--- span latencies ---\n");
        for (const auto& span : net.telemetry().spans().completed()) {
            std::printf("  %-14s %-28s %.1fms\n", span.kind.c_str(), span.key.c_str(),
                        ms(span.latency()));
        }
    }
    const auto& snaps = net.telemetry().snapshots();
    if (snaps.size() > 1) {
        std::size_t changed = 0;
        for (std::size_t i = 1; i < snaps.size(); ++i) {
            if (!telemetry::diff(snaps[i - 1], snaps[i]).empty()) ++changed;
        }
        std::printf("--- mrib snapshots: %zu taken, %zu with structural change ---\n",
                    snaps.size(), changed);
    }
    if (!faults_->events().empty()) {
        std::printf("--- injected faults ---\n");
        for (const auto& event : faults_->events()) {
            std::printf("  %8.1fms  %s\n", ms(event.at), event.description.c_str());
        }
    }
    if (monitor_) {
        monitor_->stop();
        const auto& pass = monitor_->last_pass();
        std::printf("--- tree monitor (pass %llu at t=%.1fms) ---\n",
                    static_cast<unsigned long long>(pass.pass), ms(pass.completed_at));
        if (pass.pass == 0) {
            std::printf("  (no pass completed; lower the monitor interval or "
                        "run longer)\n");
        } else {
            std::printf("  groups=%zu entries=%zu (wc=%zu sg=%zu) member-ports=%zu\n",
                        pass.groups, pass.entries, pass.wildcard_entries, pass.sg_entries,
                        pass.member_ports);
            std::printf("  depth-max=%d fanout-max=%zu stretch-max=%.3f\n", pass.depth_max,
                        pass.fanout_max, pass.stretch_max);
            std::printf("  link-flows-max=%zu links-used=%zu walks=%zu "
                        "(broken=%zu skipped=%zu)\n",
                        pass.link_flows_max, pass.links_used, pass.walks, pass.broken_walks,
                        pass.skipped_walks);
        }
    }
    if (watchdog_) {
        watchdog_->stop();
        std::printf("--- watchdog: %zu violation(s), %zu entries scanned ---\n",
                    watchdog_->violations().size(), watchdog_->entries_scanned());
        std::printf("%s", watchdog_->dump().c_str());
    }
    if (profiling_) {
        prof::set_enabled(false);
        if (!s.profile_path.empty()) {
            const prof::Report report = prof::snapshot();
            std::ofstream out(s.profile_path);
            if (!out) throw std::runtime_error("cannot write " + s.profile_path);
            out << prof::to_collapsed(report);
            std::printf("--- profile: %s (collapsed stacks; flamegraph.pl / "
                        "speedscope input) ---\n%s",
                        s.profile_path.c_str(), prof::to_table(report).c_str());
        }
        // The time source points at this world's simulator; detach it
        // before the world is destroyed.
        prof::set_time_source(nullptr, nullptr);
    }
    if (!s.timeline_path.empty()) {
        std::ofstream out(s.timeline_path);
        if (!out) throw std::runtime_error("cannot write " + s.timeline_path);
        out << trace::chrome_timeline_json(net.telemetry(), recorder_.get());
        std::printf("--- timeline: %s (chrome trace-event JSON; open in "
                    "ui.perfetto.dev) ---\n",
                    s.timeline_path.c_str());
    }
    bool held = true;
    if (!s.expects.empty()) std::printf("--- expect ---\n");
    for (std::size_t i = 0; i < s.expects.size(); ++i) {
        const Expect& e = s.expects[i];
        const std::size_t got = expected[i]->received_count(e.group);
        const std::size_t dups = expected[i]->duplicate_count();
        const bool ok = got >= e.count && dups == 0;
        held = held && ok;
        std::printf("  %-12s %s >= %zu: received %zu (%zu duplicates) ", e.host.c_str(),
                    e.group.to_string().c_str(), e.count, got, dups);
        if (ok) {
            std::printf("ok\n");
        } else {
            std::printf("FAILED (line %d)\n", e.line);
        }
    }
    return held;
}

bool run_script(std::string_view text) {
    const Script script = parse_script(text);
    World world(script, World::Observers::kScript);
    world.start_workloads();
    world.schedule_actions();
    return world.run_and_report();
}

} // namespace pimlib::scenario
