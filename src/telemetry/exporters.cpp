#include "telemetry/exporters.hpp"

#include <cmath>
#include <cstdio>

namespace pimlib::telemetry {

namespace {

std::string format_double(double v) {
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 1e15) {
        return std::to_string(static_cast<long long>(v));
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string label_block(const LabelSet& labels) {
    if (labels.empty()) return "";
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels.pairs()) {
        if (!first) out += ',';
        first = false;
        out += k + "=\"" + prometheus_escape(v) + "\"";
    }
    out += '}';
    return out;
}

/// Like label_block but with one extra pair appended (for histogram le=).
std::string label_block_with(const LabelSet& labels, const std::string& extra_key,
                             const std::string& extra_value) {
    std::string out = "{";
    for (const auto& [k, v] : labels.pairs()) {
        out += k + "=\"" + prometheus_escape(v) + "\",";
    }
    out += extra_key + "=\"" + prometheus_escape(extra_value) + "\"}";
    return out;
}

std::string json_labels(const LabelSet& labels) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels.pairs()) {
        if (!first) out += ',';
        first = false;
        out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    out += '}';
    return out;
}

std::string json_value(const Registry::Instrument& inst) {
    switch (inst.kind) {
    case Registry::Kind::kCounter:
        return std::to_string(inst.counter->value());
    case Registry::Kind::kGauge:
        return format_double(inst.gauge->value());
    case Registry::Kind::kHistogram: {
        const Histogram& h = *inst.histogram;
        return "{\"count\":" + std::to_string(h.count()) +
               ",\"sum\":" + format_double(h.sum()) +
               ",\"min\":" + format_double(h.min()) +
               ",\"max\":" + format_double(h.max()) +
               ",\"p50\":" + format_double(h.quantile(0.50)) +
               ",\"p90\":" + format_double(h.quantile(0.90)) +
               ",\"p99\":" + format_double(h.quantile(0.99)) + "}";
    }
    }
    return "null";
}

} // namespace

std::string prometheus_escape(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
        }
    }
    return out;
}

std::string json_escape(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                // RFC 8259 requires escaping all control characters.
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

std::string to_prometheus(const Registry& registry) {
    std::string out;
    std::string last_name;
    for (const Registry::Instrument* inst : registry.sorted()) {
        if (inst->name != last_name) {
            last_name = inst->name;
            if (!inst->help.empty()) {
                // HELP text escapes only backslash and newline (the text
                // format's rule for help lines; quotes stay literal).
                std::string help;
                for (char c : inst->help) {
                    if (c == '\\') {
                        help += "\\\\";
                    } else if (c == '\n') {
                        help += "\\n";
                    } else {
                        help += c;
                    }
                }
                out += "# HELP " + inst->name + " " + help + "\n";
            }
            out += "# TYPE " + inst->name + " ";
            switch (inst->kind) {
            case Registry::Kind::kCounter: out += "counter\n"; break;
            case Registry::Kind::kGauge: out += "gauge\n"; break;
            case Registry::Kind::kHistogram: out += "histogram\n"; break;
            }
        }
        switch (inst->kind) {
        case Registry::Kind::kCounter:
            out += inst->name + label_block(inst->labels) + " " +
                   std::to_string(inst->counter->value()) + "\n";
            break;
        case Registry::Kind::kGauge:
            out += inst->name + label_block(inst->labels) + " " +
                   format_double(inst->gauge->value()) + "\n";
            break;
        case Registry::Kind::kHistogram: {
            const Histogram& h = *inst->histogram;
            const auto& bounds = h.bounds();
            const auto& counts = h.bucket_counts();
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < bounds.size(); ++i) {
                cumulative += counts[i];
                out += inst->name + "_bucket" +
                       label_block_with(inst->labels, "le", format_double(bounds[i])) +
                       " " + std::to_string(cumulative) + "\n";
            }
            cumulative += counts.back();
            out += inst->name + "_bucket" +
                   label_block_with(inst->labels, "le", "+Inf") + " " +
                   std::to_string(cumulative) + "\n";
            out += inst->name + "_sum" + label_block(inst->labels) + " " +
                   format_double(h.sum()) + "\n";
            out += inst->name + "_count" + label_block(inst->labels) + " " +
                   std::to_string(h.count()) + "\n";
            break;
        }
        }
    }
    return out;
}

std::string to_json(const Registry& registry) {
    // sorted() groups same-name instruments together; emit one JSON key per
    // family, an array of {labels, value} when labeled.
    const auto instruments = registry.sorted();
    std::string out = "{";
    std::size_t i = 0;
    bool first_family = true;
    while (i < instruments.size()) {
        const std::string& name = instruments[i]->name;
        std::size_t j = i;
        while (j < instruments.size() && instruments[j]->name == name) ++j;
        if (!first_family) out += ",";
        first_family = false;
        out += "\n  \"" + json_escape(name) + "\":";
        if (j - i == 1 && instruments[i]->labels.empty()) {
            out += json_value(*instruments[i]);
        } else {
            out += "[";
            for (std::size_t k = i; k < j; ++k) {
                if (k != i) out += ",";
                out += "\n    {\"labels\":" + json_labels(instruments[k]->labels) +
                       ",\"value\":" + json_value(*instruments[k]) + "}";
            }
            out += "\n  ]";
        }
        i = j;
    }
    out += "\n}\n";
    return out;
}

} // namespace pimlib::telemetry
