// Pure logic behind bench/runner: parsing the normalized pimbench/1 result
// line every bench prints last (see bench::Report in bench_util.hpp),
// reading committed baseline files, the noise-aware regression comparator,
// the paired A/B cost ratio, and the per-bench history append.
// Header-only and free of process/exec concerns so
// tests/bench_runner_test.cpp can drive every branch — the runner
// executable (runner.cpp) only adds the popen loop and CLI.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace pimlib::bench::runner {

// --------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser. Covers exactly what the
// normalized lines, baselines and history files use: objects, arrays,
// strings (with \" \\ \/ \b \f \n \r \t \uXXXX escapes), numbers, bools,
// null. No dependencies; parse failures return nullopt, never throw.

struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    // Object entries in source order (duplicate keys keep the last).
    std::vector<std::pair<std::string, JsonValue>> members;

    [[nodiscard]] const JsonValue* find(const std::string& key) const {
        const JsonValue* hit = nullptr;
        for (const auto& [k, v] : members) {
            if (k == key) hit = &v;
        }
        return hit;
    }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    std::optional<JsonValue> parse() {
        auto v = value();
        skip_ws();
        if (!v || pos_ != s_.size()) return std::nullopt;
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
            ++pos_;
        }
    }
    bool eat(char c) {
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    bool literal(const char* lit) {
        const std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::optional<JsonValue> value() {
        skip_ws();
        if (pos_ >= s_.size()) return std::nullopt;
        const char c = s_[pos_];
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') return string_value();
        if (c == 't' || c == 'f') return bool_value();
        if (c == 'n') {
            if (!literal("null")) return std::nullopt;
            return JsonValue{};
        }
        return number_value();
    }

    std::optional<JsonValue> object() {
        if (!eat('{')) return std::nullopt;
        JsonValue out;
        out.kind = JsonValue::Kind::kObject;
        skip_ws();
        if (eat('}')) return out;
        for (;;) {
            auto key = string_value();
            if (!key || !eat(':')) return std::nullopt;
            auto val = value();
            if (!val) return std::nullopt;
            out.members.emplace_back(key->str, std::move(*val));
            if (eat(',')) continue;
            if (eat('}')) return out;
            return std::nullopt;
        }
    }

    std::optional<JsonValue> array() {
        if (!eat('[')) return std::nullopt;
        JsonValue out;
        out.kind = JsonValue::Kind::kArray;
        skip_ws();
        if (eat(']')) return out;
        for (;;) {
            auto val = value();
            if (!val) return std::nullopt;
            out.items.push_back(std::move(*val));
            if (eat(',')) continue;
            if (eat(']')) return out;
            return std::nullopt;
        }
    }

    std::optional<JsonValue> string_value() {
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != '"') return std::nullopt;
        ++pos_;
        JsonValue out;
        out.kind = JsonValue::Kind::kString;
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.str += c;
                continue;
            }
            if (pos_ >= s_.size()) return std::nullopt;
            const char esc = s_[pos_++];
            switch (esc) {
            case '"': out.str += '"'; break;
            case '\\': out.str += '\\'; break;
            case '/': out.str += '/'; break;
            case 'b': out.str += '\b'; break;
            case 'f': out.str += '\f'; break;
            case 'n': out.str += '\n'; break;
            case 'r': out.str += '\r'; break;
            case 't': out.str += '\t'; break;
            case 'u': {
                if (pos_ + 4 > s_.size()) return std::nullopt;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                    else return std::nullopt;
                }
                // The files we read are ASCII-safe; encode BMP code points
                // as UTF-8 without surrogate-pair handling.
                if (code < 0x80) {
                    out.str += static_cast<char>(code);
                } else if (code < 0x800) {
                    out.str += static_cast<char>(0xC0 | (code >> 6));
                    out.str += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out.str += static_cast<char>(0xE0 | (code >> 12));
                    out.str += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out.str += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: return std::nullopt;
            }
        }
        return std::nullopt;
    }

    std::optional<JsonValue> bool_value() {
        JsonValue out;
        out.kind = JsonValue::Kind::kBool;
        if (literal("true")) {
            out.boolean = true;
            return out;
        }
        if (literal("false")) return out;
        return std::nullopt;
    }

    std::optional<JsonValue> number_value() {
        const std::size_t start = pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
                c == 'e' || c == 'E') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) return std::nullopt;
        JsonValue out;
        out.kind = JsonValue::Kind::kNumber;
        char* end = nullptr;
        const std::string token = s_.substr(start, pos_ - start);
        out.number = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') return std::nullopt;
        return out;
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

inline std::optional<JsonValue> parse_json(const std::string& text) {
    return JsonParser(text).parse();
}

// --------------------------------------------------------------------------
// Normalized results (the pimbench/1 line).

struct Metric {
    double value = 0.0;
    std::string unit;
    std::string better; // "lower" | "higher" | "info"
};

struct BenchResult {
    std::string bench;
    std::vector<std::pair<std::string, Metric>> metrics; // insertion order

    [[nodiscard]] const Metric* find(const std::string& name) const {
        for (const auto& [k, m] : metrics) {
            if (k == name) return &m;
        }
        return nullptr;
    }
};

/// Parses one normalized line. Rejects anything that is not a pimbench/1
/// object with a bench name and a metrics object of finite numbers.
inline std::optional<BenchResult> parse_normalized_line(const std::string& line) {
    auto json = parse_json(line);
    if (!json || json->kind != JsonValue::Kind::kObject) return std::nullopt;
    const JsonValue* schema = json->find("schema");
    if (schema == nullptr || schema->str != "pimbench/1") return std::nullopt;
    const JsonValue* bench = json->find("bench");
    const JsonValue* metrics = json->find("metrics");
    if (bench == nullptr || bench->kind != JsonValue::Kind::kString ||
        metrics == nullptr || metrics->kind != JsonValue::Kind::kObject) {
        return std::nullopt;
    }
    BenchResult out;
    out.bench = bench->str;
    for (const auto& [name, v] : metrics->members) {
        const JsonValue* value = v.find("value");
        const JsonValue* unit = v.find("unit");
        const JsonValue* better = v.find("better");
        if (value == nullptr || value->kind != JsonValue::Kind::kNumber) {
            return std::nullopt;
        }
        Metric m;
        m.value = value->number;
        if (unit != nullptr) m.unit = unit->str;
        m.better = better != nullptr ? better->str : "info";
        out.metrics.emplace_back(name, std::move(m));
    }
    return out;
}

/// Finds the LAST normalized line in a bench's full stdout. Benches print
/// human tables and bespoke JSON above it; the contract is only that the
/// record is a complete line and comes last.
inline std::optional<BenchResult> extract_result(const std::string& stdout_text) {
    std::size_t end = stdout_text.size();
    while (end > 0) {
        std::size_t begin = stdout_text.rfind('\n', end - 1);
        begin = (begin == std::string::npos) ? 0 : begin + 1;
        const std::string line = stdout_text.substr(begin, end - begin);
        if (line.find("\"schema\":\"pimbench/1\"") != std::string::npos) {
            return parse_normalized_line(line);
        }
        if (begin == 0) break;
        end = begin - 1;
    }
    return std::nullopt;
}

// --------------------------------------------------------------------------
// Baselines and the regression gate.

struct BaselineMetric {
    double value = 0.0;
    std::string better;     // "lower" | "higher" — only gated directions
    double tolerance = 0.1; // allowed fractional drift in the bad direction
};

struct Baseline {
    std::string bench;
    std::vector<std::pair<std::string, BaselineMetric>> metrics;
};

inline std::optional<Baseline> parse_baseline(const std::string& text) {
    auto json = parse_json(text);
    if (!json || json->kind != JsonValue::Kind::kObject) return std::nullopt;
    const JsonValue* bench = json->find("bench");
    const JsonValue* metrics = json->find("metrics");
    if (bench == nullptr || metrics == nullptr ||
        metrics->kind != JsonValue::Kind::kObject) {
        return std::nullopt;
    }
    Baseline out;
    out.bench = bench->str;
    for (const auto& [name, v] : metrics->members) {
        const JsonValue* value = v.find("value");
        const JsonValue* better = v.find("better");
        const JsonValue* tolerance = v.find("tolerance");
        if (value == nullptr || better == nullptr) return std::nullopt;
        if (better->str != "lower" && better->str != "higher") {
            return std::nullopt; // baselines hold gated metrics only
        }
        BaselineMetric m;
        m.value = value->number;
        m.better = better->str;
        if (tolerance != nullptr) m.tolerance = tolerance->number;
        out.metrics.emplace_back(name, m);
    }
    return out;
}

struct GateFinding {
    std::string metric;
    double baseline = 0.0;
    double best = 0.0;   // direction-aware best over the N runs
    double limit = 0.0;  // the value the gate allowed
    bool missing = false;
    bool regressed = false;

    [[nodiscard]] std::string to_string() const {
        char buf[256];
        if (missing) {
            std::snprintf(buf, sizeof(buf),
                          "%s: gated metric missing from the run output",
                          metric.c_str());
        } else {
            std::snprintf(buf, sizeof(buf),
                          "%s: best-of-N %.6g vs baseline %.6g (limit %.6g)",
                          metric.c_str(), best, baseline, limit);
        }
        return buf;
    }
};

struct GateReport {
    bool pass = true;
    std::vector<GateFinding> findings; // one per gated metric, pass or fail
};

/// The noise-aware gate. For each baseline metric, take the direction-aware
/// best over the N runs (min for "lower", max for "higher") — transient
/// noise only ever hurts, so best-of-N estimates the true cost — then fail
/// iff the best is still past baseline x (1 ± tolerance). A gated metric
/// absent from every run fails: silently dropping a metric must not read
/// as a pass.
inline GateReport gate(const Baseline& baseline,
                       const std::vector<BenchResult>& runs) {
    GateReport report;
    for (const auto& [name, bm] : baseline.metrics) {
        GateFinding f;
        f.metric = name;
        f.baseline = bm.value;
        bool seen = false;
        for (const BenchResult& run : runs) {
            const Metric* m = run.find(name);
            if (m == nullptr) continue;
            if (!seen) {
                f.best = m->value;
            } else if (bm.better == "lower") {
                f.best = std::min(f.best, m->value);
            } else {
                f.best = std::max(f.best, m->value);
            }
            seen = true;
        }
        if (!seen) {
            f.missing = true;
            f.regressed = true;
        } else if (bm.better == "lower") {
            f.limit = bm.value * (1.0 + bm.tolerance);
            f.regressed = f.best > f.limit;
        } else {
            f.limit = bm.value * (1.0 - bm.tolerance);
            f.regressed = f.best < f.limit;
        }
        if (f.regressed) report.pass = false;
        report.findings.push_back(std::move(f));
    }
    return report;
}

// --------------------------------------------------------------------------
// Paired A/B cost: the one way an observer's price is measured. The runner
// runs a bench with its base args (A) and with one extra flag that turns an
// observer on (B) in interleaved process pairs, alternating which side runs
// first, and charges each process its own CPU time.

struct CostPair {
    double a_cpu_s = 0.0; // base args
    double b_cpu_s = 0.0; // base args + the variant's flag
};

/// The lower quartile of the per-pair B/A ratios. Pairing cancels drift
/// that moves adjacent runs together (frequency scaling, co-tenants). The
/// lower quartile rather than the median because timing noise is
/// one-sided — it only inflates a pair — while a real cost lifts every
/// pair. nullopt when no pair has a positive A side.
inline std::optional<double> paired_cost_ratio(const std::vector<CostPair>& pairs) {
    std::vector<double> ratios;
    for (const CostPair& p : pairs) {
        if (p.a_cpu_s > 0) ratios.push_back(p.b_cpu_s / p.a_cpu_s);
    }
    if (ratios.empty()) return std::nullopt;
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 4];
}

/// Appends `<variant>_cpu_ratio` (better: lower) to `result`, from the
/// pairs that completed, and returns it. With none (every run of the
/// variant failed) the metric is left out, so its baseline entry reads as
/// a missing gated metric and fails.
inline std::optional<double> add_cost_ratio(BenchResult& result,
                                            const std::string& variant,
                                            const std::vector<CostPair>& pairs) {
    const std::optional<double> ratio = paired_cost_ratio(pairs);
    if (ratio) {
        Metric m;
        m.value = *ratio;
        m.unit = "x";
        m.better = "lower";
        result.metrics.emplace_back(variant + "_cpu_ratio", std::move(m));
    }
    return ratio;
}

// --------------------------------------------------------------------------
// History: one JSON array per bench, one entry appended per runner
// invocation. Entries carry run metadata so a regression can be walked
// back to the commit that introduced it.

struct RunMeta {
    std::string commit;
    std::string host;
    std::string flags;
    long long timestamp = 0; // seconds since epoch
};

inline std::string history_entry_json(const RunMeta& meta,
                                      const std::vector<BenchResult>& runs) {
    std::string out = "  {\"commit\":\"" + meta.commit + "\",\"host\":\"" +
                      meta.host + "\",\"flags\":\"" + meta.flags +
                      "\",\"timestamp\":" + std::to_string(meta.timestamp) +
                      ",\"runs\":[";
    for (std::size_t r = 0; r < runs.size(); ++r) {
        if (r > 0) out += ',';
        out += "{";
        for (std::size_t i = 0; i < runs[r].metrics.size(); ++i) {
            const auto& [name, m] = runs[r].metrics[i];
            if (i > 0) out += ',';
            char buf[128];
            std::snprintf(buf, sizeof(buf), "\"%s\":%.9g", name.c_str(),
                          m.value);
            out += buf;
        }
        out += "}";
    }
    out += "]}";
    return out;
}

/// Appends `entry` (a JSON object, no trailing newline) to the JSON array
/// in `existing` (the current file contents, possibly empty). Returns the
/// new file contents. Malformed existing content is preserved under a
/// "corrupt" key rather than silently discarded.
inline std::string history_append(const std::string& existing,
                                  const std::string& entry) {
    if (existing.empty()) return "[\n" + entry + "\n]\n";
    auto json = parse_json(existing);
    if (!json || json->kind != JsonValue::Kind::kArray) {
        return "[\n  {\"corrupt\":true},\n" + entry + "\n]\n";
    }
    // Splice before the closing bracket of the existing array text.
    const std::size_t close = existing.rfind(']');
    std::string out = existing.substr(0, close);
    while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
        out.pop_back();
    }
    const bool was_empty = json->items.empty();
    out += was_empty ? "\n" : ",\n";
    out += entry;
    out += "\n]\n";
    return out;
}

} // namespace pimlib::bench::runner
