#include "check/backward.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "telemetry/profiler/profiler.hpp"

namespace pimlib::check {
namespace {

using Clock = std::chrono::steady_clock;

/// What the engine knows about a target violation: which oracles witness
/// it, and which causal shape pre-images it. `lan_anchored` targets are
/// caused by losing a message of the LAN election exchange that begins
/// when data first appears on a LAN; deadline-anchored targets are caused
/// by soft state decaying undetected, so the most recent unrepaired
/// refresh losses on member↔critical-router links rank first.
struct TargetSpec {
    std::vector<std::string> oracles;
    bool lan_anchored = false;
    std::string default_scenario;
};

const std::map<std::string, TargetSpec>& target_specs() {
    static const std::map<std::string, TargetSpec> specs = {
        {"duplicate-on-lan",
         {{"duplicate-bound", "steady-duplicate", "steady-redundancy",
           "forwarding-loop"},
          true,
          "lan-assert"}},
        {"assert-loser-forwarding", {{"assert-winner"}, true, "lan-assert"}},
        {"blackhole",
         {{"delivery", "rp-failover", "bsr-rp-rehoming", "convergence"},
          false,
          "rp-failover"}},
        {"stale-rp-set",
         {{"rp-set-agreement", "exactly-one-bsr", "bsr-rp-rehoming"},
          false,
          "bsr-failover"}},
    };
    return specs;
}

bool contains(const std::vector<std::string>& haystack, const std::string& s) {
    return std::find(haystack.begin(), haystack.end(), s) != haystack.end();
}

struct Candidate {
    Pick pick;
    int tier = 0;
    /// Within a tier: smaller sorts first. LAN-anchored tiers use the
    /// decision time (the election happens right after data arrives);
    /// deadline-anchored tiers use horizon - time (the most recent loss has
    /// the least repair opportunity before the oracles judge).
    sim::Time order = 0;
};

/// Ranks every single-change extension of `trace` by pre-image relevance
/// for `spec`. Pure trace analysis — no replays.
std::vector<Candidate> rank_candidates(const ScenarioInfo& info,
                                       const TargetSpec& spec,
                                       const std::vector<ChoiceRec>& trace) {
    // The routers the fault candidates hit are the ones the scenario author
    // considered protocol-critical; backward search borrows that judgment.
    std::vector<std::string> critical;
    for (const scenario::FaultSlot& slot : info.fault_slots) {
        for (const scenario::Action& fault : slot.candidates) {
            critical.insert(critical.end(), fault.args.begin(), fault.args.end());
        }
    }

    // When data first crossed each segment: the LAN election anchor.
    std::map<int, sim::Time> first_data;
    for (const ChoiceRec& rec : trace) {
        if (rec.point.kind != sim::ChoicePoint::Kind::kFrameLoss) continue;
        if (rec.point.control) continue;
        if (!first_data.contains(rec.point.detail)) {
            first_data[rec.point.detail] = rec.at;
        }
    }

    std::vector<Candidate> out;
    for (std::uint32_t i = 0; i < trace.size(); ++i) {
        const ChoiceRec& rec = trace[i];
        if (rec.alternatives < 2 || rec.pick != 0) continue;

        if (rec.point.kind == sim::ChoicePoint::Kind::kFault) {
            // A handful per scenario, each a first-class cause. Most direct
            // pre-image of decayed-state targets (the critical router died);
            // for LAN targets the election messages outrank them.
            for (std::uint32_t v = 1; v < rec.alternatives; ++v) {
                out.push_back({Pick{i, v}, spec.lan_anchored ? 1 : 0,
                               static_cast<sim::Time>(v)});
            }
            continue;
        }
        if (rec.point.kind == sim::ChoicePoint::Kind::kEventOrder) {
            // Reordering same-timestamp events is the least direct cause of
            // either target shape: always the last resort.
            for (std::uint32_t v = 1; v < rec.alternatives; ++v) {
                out.push_back({Pick{i, v}, 5, rec.at});
            }
            continue;
        }

        const auto seg = static_cast<std::size_t>(rec.point.detail);
        static const scenario::SegmentInfo kUnknown;
        const scenario::SegmentInfo& segment =
            seg < info.segments.size() ? info.segments[seg] : kUnknown;
        const std::vector<std::string>& ends = segment.routers;
        const bool touches_critical = std::any_of(
            ends.begin(), ends.end(),
            [&](const std::string& r) { return contains(critical, r); });
        const bool touches_member = std::any_of(
            ends.begin(), ends.end(),
            [&](const std::string& r) { return contains(info.member_routers, r); });

        Candidate cand{Pick{i, 1}, 4, rec.at};
        if (rec.at >= info.horizon) {
            // Convergence-probe era: the oracles already judged the run at
            // the horizon, so a later loss cannot pre-image the target.
            out.push_back(cand);
            continue;
        }
        if (spec.lan_anchored) {
            // Pre-image of a failed LAN election: a lost control message on
            // a LAN, in the exchange triggered by the first data arrival.
            const auto anchor = first_data.find(rec.point.detail);
            const bool after_data =
                anchor != first_data.end() && rec.at >= anchor->second;
            if (segment.lan && rec.point.control && after_data) {
                cand.tier = 0;
            } else if (segment.lan && rec.point.control) {
                cand.tier = 2;
            } else if (rec.point.control) {
                cand.tier = 3;
            }
        } else if (rec.point.control) {
            // Pre-image of decayed soft state: a lost refresh between a
            // member and a critical router, judged latest-first against the
            // deadline (an early loss is repaired by the next refresh).
            if (touches_member && touches_critical) {
                cand.tier = 1;
            } else if (touches_critical) {
                cand.tier = 2;
            } else {
                cand.tier = 3;
            }
            cand.order = info.horizon > rec.at ? info.horizon - rec.at
                                               : sim::Time{0};
        }
        out.push_back(cand);
    }

    std::stable_sort(out.begin(), out.end(),
                     [](const Candidate& a, const Candidate& b) {
                         if (a.tier != b.tier) return a.tier < b.tier;
                         return a.order < b.order;
                     });
    return out;
}

/// Greedy target-preserving minimization, the backward twin of
/// shrink_counterexample: drops picks while the run still violates an
/// oracle in the target's family.
void publish_metrics(const BackwardOptions& options,
                     const BackwardReport& report) {
    if (options.metrics == nullptr) return;
    const telemetry::LabelSet labels{
        {"engine", "backward"},
        {"scenario", report.scenario},
        {"mutation", options.mutation.empty() ? "none" : options.mutation},
        {"target", report.target}};
    telemetry::Registry& reg = *options.metrics;
    reg.counter("pimlib_check_runs_total", labels,
                "scenario replays executed by the checker")
        .inc(report.replays);
    reg.counter("pimlib_check_replays_to_hit_total", labels,
                "replays up to and including the first target hit")
        .inc(report.replays_to_hit);
    reg.counter("pimlib_check_violating_runs_total", labels,
                "replays that tripped an invariant oracle")
        .inc(report.violating_runs);
    reg.counter("pimlib_check_target_hits_total", labels,
                "replays that tripped the target's witness family")
        .inc(report.target_hits);
    reg.counter("pimlib_check_skipped_branches_total", labels,
                "inconsistent choice sets discarded on replay")
        .inc(report.skipped_branches);
    reg.counter("pimlib_check_counterexamples_total", labels,
                "shrunk replayable counterexamples emitted")
        .inc(report.counterexamples.size());
}

ChoiceSet shrink_to_target(const std::string& scenario,
                           const BackwardOptions& options, ChoiceSet failing,
                           std::size_t* replays) {
    const auto violates = [&](const ChoiceSet& candidate) {
        RunConfig cfg;
        cfg.choices = candidate;
        cfg.mutation = options.mutation;
        cfg.checkpoint_every = options.checkpoint_every;
        cfg.key_from = kKeyNothing; // nothing dedups backward replays
        ++*replays;
        PROF_ZONE("check.explore");
        return target_matches(options.target,
                              run_scenario(scenario, cfg).violations);
    };
    bool shrunk = true;
    while (shrunk && !failing.empty()) {
        shrunk = false;
        for (std::size_t i = 0; i < failing.size(); ++i) {
            ChoiceSet candidate = failing;
            candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
            if (violates(candidate)) {
                failing = std::move(candidate);
                shrunk = true;
                break;
            }
        }
    }
    return failing;
}

} // namespace

const std::vector<std::string>& backward_targets() {
    static const std::vector<std::string> targets = [] {
        std::vector<std::string> v;
        for (const auto& [name, spec] : target_specs()) v.push_back(name);
        return v;
    }();
    return targets;
}

bool target_matches(const std::string& target,
                    const std::vector<Violation>& violations) {
    const auto it = target_specs().find(target);
    if (it == target_specs().end()) return false;
    for (const Violation& v : violations) {
        if (contains(it->second.oracles, v.oracle)) return true;
    }
    return false;
}

std::string target_for_mutation(const std::string& mutation) {
    static const std::map<std::string, std::string> targets = {
        {"skip-spt-bit-handshake", "blackhole"},
        {"no-rp-bit-prune", "duplicate-on-lan"},
        {"assert-loser-keeps-forwarding", "assert-loser-forwarding"},
        {"stale-rp-set-after-bsr-failover", "stale-rp-set"},
        {"one-shot-assert", "duplicate-on-lan"},
        {"fragile-rp-holdtime", "blackhole"},
    };
    const auto it = targets.find(mutation);
    return it == targets.end() ? "" : it->second;
}

std::string default_scenario_for_target(const std::string& target) {
    const auto it = target_specs().find(target);
    assert(it != target_specs().end() &&
           "unknown target; validate against backward_targets()");
    return it->second.default_scenario;
}

BackwardReport backward_search(const BackwardOptions& options) {
    const auto spec_it = target_specs().find(options.target);
    assert(spec_it != target_specs().end() &&
           "unknown target; validate against backward_targets()");
    const TargetSpec& spec = spec_it->second;

    BackwardReport report;
    report.target = options.target;
    report.scenario = options.scenario.empty() ? spec.default_scenario
                                               : options.scenario;
    const ScenarioInfo& info = scenario_info(report.scenario);

    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.time_budget_seconds));

    const auto run = [&](const ChoiceSet& choices, bool collect_trace) {
        RunConfig cfg;
        cfg.choices = choices;
        cfg.mutation = options.mutation;
        cfg.collect_trace = collect_trace;
        cfg.checkpoint_every = options.checkpoint_every;
        cfg.key_from = kKeyNothing;
        ++report.replays;
        PROF_ZONE("check.explore");
        return run_scenario(report.scenario, cfg);
    };

    const auto emit = [&](const ChoiceSet& choices,
                          const RunResult& result) {
        ChoiceSet minimal =
            shrink_to_target(report.scenario, options, choices, &report.replays);
        RunResult replay = run(minimal, true);
        if (!target_matches(options.target, replay.violations)) {
            // Shrinking is best-effort; fall back to the original branch.
            minimal = choices;
            replay = run(minimal, true);
        }
        Counterexample ce;
        ce.choices = minimal;
        ce.violations = target_matches(options.target, replay.violations)
                            ? replay.violations
                            : result.violations;
        ce.script = replay_script(report.scenario, options.mutation, replay);
        ce.trace_dump = std::move(replay.trace_dump);
        ce.provenance_dump = std::move(replay.provenance_dump);
        ce.provenance_summary = std::move(replay.provenance_summary);
        report.counterexamples.push_back(std::move(ce));
    };

    // Reconnaissance: the deterministic baseline yields both the decision
    // trace the ranking needs and the cheapest possible hit (a mutation
    // whose symptom needs no fault at all).
    const RunResult baseline = run({}, false);
    if (!baseline.violations.empty()) {
        ++report.violating_runs;
        if (target_matches(options.target, baseline.violations)) {
            ++report.target_hits;
            report.replays_to_hit = report.replays;
            emit({}, baseline);
            report.elapsed_seconds =
                std::chrono::duration<double>(Clock::now() - start).count();
            publish_metrics(options, report);
            return report;
        }
    }

    // Best-first over ranked pre-image candidates, level by level: every
    // single-change candidate is tried (in rank order) before any two-
    // change composition — a composition can only be the *minimal* cause
    // when no single change suffices, so interleaving depths just dilutes
    // the ranking.
    struct Node {
        std::size_t depth = 0;
        std::size_t score = 0;
        std::size_t seq = 0; // FIFO tiebreak, keeps the order deterministic
        ChoiceSet choices;
        bool operator>(const Node& other) const {
            if (depth != other.depth) return depth > other.depth;
            return score != other.score ? score > other.score : seq > other.seq;
        }
    };
    std::priority_queue<Node, std::vector<Node>, std::greater<>> queue;
    std::set<ChoiceSet> visited;
    std::size_t seq = 0;

    const auto push_children = [&](const ChoiceSet& branch, std::size_t score,
                                   const std::vector<ChoiceRec>& trace) {
        bool have_loss = false;
        bool have_fault = false;
        for (const Pick& pick : branch) {
            if (pick.index < trace.size()) {
                const auto kind = trace[pick.index].point.kind;
                have_loss |= kind == sim::ChoicePoint::Kind::kFrameLoss;
                have_fault |= kind == sim::ChoicePoint::Kind::kFault;
            }
        }
        // Compositions are a last resort (see Node ordering), so keep only
        // the best-ranked extensions of an already-changed branch.
        const std::size_t cap =
            branch.empty() ? std::numeric_limits<std::size_t>::max() : 64;
        std::size_t rank = 0;
        std::size_t pushed = 0;
        for (const Candidate& cand : rank_candidates(info, spec, trace)) {
            if (pushed >= cap) break;
            const auto kind = trace[cand.pick.index].point.kind;
            // Single-fault semantics, like the forward explorer: at most
            // one loss and one fault per execution.
            if (kind == sim::ChoicePoint::Kind::kFrameLoss && have_loss) continue;
            if (kind == sim::ChoicePoint::Kind::kFault && have_fault) continue;
            ChoiceSet child = branch;
            child.push_back(cand.pick);
            std::sort(child.begin(), child.end());
            ++report.candidates_ranked;
            if (visited.insert(child).second) {
                queue.push(Node{branch.size() + 1, score + rank, seq++,
                                std::move(child)});
                ++pushed;
            }
            ++rank;
        }
    };
    push_children({}, 0, baseline.trace);

    while (!queue.empty() && report.replays < options.max_replays &&
           Clock::now() < deadline &&
           report.counterexamples.size() < options.max_counterexamples) {
        const Node node = queue.top();
        queue.pop();

        const RunResult result = run(node.choices, false);
        if (!result.choices_applied) {
            ++report.skipped_branches;
            continue;
        }
        if (!result.violations.empty()) {
            ++report.violating_runs;
            if (target_matches(options.target, result.violations)) {
                ++report.target_hits;
                if (report.replays_to_hit == 0) {
                    report.replays_to_hit = report.replays;
                }
                emit(node.choices, result);
            }
            continue; // don't compose further changes onto a failing branch
        }
        if (node.choices.size() < options.max_depth) {
            push_children(node.choices, node.score, result.trace);
        }
    }

    report.exhausted = queue.empty();
    report.elapsed_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    publish_metrics(options, report);
    return report;
}

} // namespace pimlib::check
