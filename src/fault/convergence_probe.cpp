#include "fault/convergence_probe.hpp"

#include <algorithm>
#include <sstream>

#include "provenance/provenance.hpp"

namespace pimlib::fault {

namespace {

double seconds(sim::Time t) { return static_cast<double>(t) / sim::kSecond; }

void append_seconds(std::ostringstream& out, double value) {
    const auto flags = out.flags();
    out.setf(std::ios::fixed);
    const auto precision = out.precision(6);
    out << value;
    out.flags(flags);
    out.precision(precision);
}

} // namespace

ConvergenceProbe::ConvergenceProbe(topo::Network& network) : network_(&network) {
    tap_token_ = network_->add_packet_tap(
        [this](const topo::Segment&, const net::Frame& frame) {
            if (frame.packet.proto != net::IpProto::kUdp) {
                control_times_.push_back(network_->simulator().now());
            }
        });
}

ConvergenceProbe::~ConvergenceProbe() { network_->remove_packet_tap(tap_token_); }

ConvergenceProbe::Report ConvergenceProbe::measure(
    net::GroupAddress group, const std::vector<const topo::Host*>& receivers,
    sim::Time fault_at) const {
    Report report;
    report.fault_at = fault_at;
    report.converged = !receivers.empty();

    for (const topo::Host* host : receivers) {
        ReceiverRecovery rec;
        rec.receiver = host->name();
        for (const auto& record : host->received()) {
            if (record.group != group || record.at <= fault_at) continue;
            rec.recovered = true;
            rec.first_delivery = record.at;
            rec.recovery = record.at - fault_at;
            break; // delivery log is chronological
        }
        if (!rec.recovered) report.converged = false;
        report.converged_at = std::max(report.converged_at, rec.first_delivery);
        report.receivers.push_back(std::move(rec));
    }
    if (report.converged) report.recovery = report.converged_at - fault_at;

    const sim::Time window_end =
        report.converged ? report.converged_at : network_->simulator().now();
    report.control_messages = static_cast<std::uint64_t>(std::count_if(
        control_times_.begin(), control_times_.end(),
        [&](sim::Time t) { return t > fault_at && t <= window_end; }));
    if (tree_health_source_) report.tree_health = tree_health_source_(group);
    return report;
}

void ConvergenceProbe::record(const Report& report, telemetry::Registry& registry,
                              const std::string& fault_label) {
    registry
        .counter("pimlib_fault_trials_total",
                 {{"fault", fault_label},
                  {"converged", report.converged ? "true" : "false"}},
                 "Fault-injection trials by outcome")
        .inc();
    if (!report.converged) return;
    // 1 ms .. ~135 s in 24 exponential buckets: spans triggered-join repair
    // (milliseconds at bench time-scale) out past the 3x-refresh bound.
    registry
        .histogram("pimlib_fault_recovery_seconds",
                   telemetry::Buckets::exponential(0.001, 1.6, 24),
                   {{"fault", fault_label}},
                   "Time from fault injection to every receiver hearing data")
        .observe(seconds(report.recovery));
    registry
        .histogram("pimlib_fault_control_messages",
                   telemetry::Buckets::exponential(1.0, 2.0, 16),
                   {{"fault", fault_label}},
                   "Control frames transmitted during one recovery")
        .observe(static_cast<double>(report.control_messages));
}

std::string ConvergenceProbe::postmortem(const Report& report, sim::Time bound) const {
    if (recorder_ == nullptr) return {};
    if (report.converged && (bound <= 0 || report.recovery <= bound)) return {};
    return recorder_->dump_json(network_->node_names());
}

std::string ConvergenceProbe::Report::to_json() const {
    std::ostringstream out;
    out << "{\"fault_at_s\":";
    append_seconds(out, seconds(fault_at));
    out << ",\"converged\":" << (converged ? "true" : "false");
    out << ",\"recovery_s\":";
    append_seconds(out, converged ? seconds(recovery) : -1.0);
    out << ",\"control_messages\":" << control_messages;
    out << ",\"tree_health\":" << (tree_health.empty() ? "null" : tree_health);
    out << ",\"receivers\":[";
    for (std::size_t i = 0; i < receivers.size(); ++i) {
        const ReceiverRecovery& rec = receivers[i];
        if (i > 0) out << ",";
        out << "{\"name\":\"" << rec.receiver << "\",\"recovered\":"
            << (rec.recovered ? "true" : "false") << ",\"recovery_s\":";
        append_seconds(out, rec.recovered ? seconds(rec.recovery) : -1.0);
        out << "}";
    }
    out << "]}";
    return out.str();
}

} // namespace pimlib::fault
