// Simulation-wide metrics registry: labeled counters, gauges and histograms
// with bounded exponential buckets. The paper's efficiency argument (§1,
// §1.3) is phrased as "state, control message processing, and data packet
// processing required across the entire network"; every module reports into
// one registry so the benches and `pimsim dump-metrics` read all three axes
// from a single pipeline, across every protocol.
//
// Naming convention (enforced by review, documented in docs/ARCHITECTURE.md):
// `pimlib_<plane>_<noun>_<unit>` where <plane> is data | control | state |
// fault, e.g. `pimlib_control_messages_total{protocol="pim"}`.
//
// Hot-path discipline: call sites resolve an instrument once (a family
// lookup with label interning) and keep the returned pointer; per-event cost
// is then a single add. Instruments are owned by the Registry and live as
// long as it does.
#pragma once

#include <cstdint>
#include <deque>
#include <forward_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pimlib::telemetry {

/// A sorted set of key=value labels. Construction canonicalizes (sorts by
/// key), so {a=1,b=2} and {b=2,a=1} intern to the same id.
class LabelSet {
public:
    LabelSet() = default;
    LabelSet(std::initializer_list<std::pair<std::string, std::string>> labels);

    [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& pairs() const {
        return pairs_;
    }
    [[nodiscard]] bool empty() const { return pairs_.empty(); }
    /// Canonical serialized form, used as the interning key.
    [[nodiscard]] std::string key() const;

    friend bool operator==(const LabelSet&, const LabelSet&) = default;
    friend bool operator<(const LabelSet& a, const LabelSet& b) { return a.pairs_ < b.pairs_; }

private:
    std::vector<std::pair<std::string, std::string>> pairs_;
};

/// Monotonic counter with epoch support: `begin_epoch()` marks the current
/// value as the new zero; `value()` reads since-epoch, `lifetime()` reads
/// since construction. Multi-phase scenarios (warm-up, then measurement)
/// reset via epochs instead of destroying counts.
class Counter {
public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    [[nodiscard]] std::uint64_t value() const { return value_ - epoch_base_; }
    [[nodiscard]] std::uint64_t lifetime() const { return value_; }
    void begin_epoch() { epoch_base_ = value_; }

private:
    std::uint64_t value_ = 0;
    std::uint64_t epoch_base_ = 0;
};

/// A settable instantaneous value.
class Gauge {
public:
    void set(double v) { value_ = v; }
    void add(double delta) { value_ += delta; }
    [[nodiscard]] double value() const { return value_; }

private:
    double value_ = 0;
};

/// Bucket boundaries for a histogram: ascending upper bounds, with an
/// implicit +Inf bucket appended. Bounded: at most kMaxBuckets finite
/// boundaries, so a histogram's memory is fixed no matter how many
/// observations arrive.
struct Buckets {
    static constexpr int kMaxBuckets = 64;

    std::vector<double> bounds;

    /// bounds[i] = start * growth^i for i in [0, count). Throws
    /// std::invalid_argument unless start > 0, growth > 1 and
    /// 0 < count <= kMaxBuckets.
    static Buckets exponential(double start, double growth, int count);
};

/// Fixed-bucket histogram tracking count, sum, min and max exactly and the
/// distribution approximately (per-bucket counts). Quantiles interpolate
/// within the containing bucket (Prometheus-style) and clamp to the exact
/// observed [min, max].
class Histogram {
public:
    explicit Histogram(Buckets buckets);

    void observe(double v);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] double sum() const { return sum_; }
    [[nodiscard]] double min() const { return count_ == 0 ? 0 : min_; }
    [[nodiscard]] double max() const { return count_ == 0 ? 0 : max_; }
    [[nodiscard]] double mean() const {
        return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
    }
    /// q in [0,1]; returns 0 when empty.
    [[nodiscard]] double quantile(double q) const;

    /// Finite upper bounds (the +Inf bucket is counts_.back()).
    [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
    /// Per-bucket counts; size() == bounds().size() + 1 (last is +Inf).
    [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
        return counts_;
    }

private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/// The registry: owns every instrument, keyed by (name, interned label set).
/// Re-requesting the same (name, labels) returns the same instrument;
/// requesting an existing name with a different instrument kind throws
/// std::logic_error.
///
/// Instruments of one name form a family that holds the name once and
/// knows its kind, so a request is one family lookup, one label lookup and
/// one search among the family's series; a name or help literal is never
/// copied into a temporary string.
class Registry {
public:
    enum class Kind { kCounter, kGauge, kHistogram };

    /// One series. Its name, help and labels are stored once, by the
    /// registry; the value lives in the instrument itself.
    struct Instrument {
        Instrument(const std::string& name, const std::string& help, Kind kind,
                   const LabelSet& labels)
            : name(name), help(help), kind(kind), labels(labels) {}

        const std::string& name;
        const std::string& help;
        Kind kind;
        const LabelSet& labels;
        std::optional<Counter> counter;
        std::optional<Gauge> gauge;
        std::optional<Histogram> histogram;
    };

    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    Counter& counter(std::string_view name, const LabelSet& labels = {},
                     std::string_view help = {});
    Gauge& gauge(std::string_view name, const LabelSet& labels = {},
                 std::string_view help = {});
    Histogram& histogram(std::string_view name, const Buckets& buckets,
                         const LabelSet& labels = {}, std::string_view help = {});

    /// Interns `labels`, returning a dense id; identical sets (regardless of
    /// construction order) share one id.
    std::size_t intern(const LabelSet& labels);
    [[nodiscard]] const LabelSet& labels_of(std::size_t id) const {
        return *label_sets_.at(id);
    }
    [[nodiscard]] std::size_t interned_count() const { return label_sets_.size(); }

    /// Starts a new measurement epoch: every counter's current value becomes
    /// its new zero. Gauges and histograms are left untouched (gauges are
    /// instantaneous; histograms record whole-run distributions).
    void begin_epoch();

    [[nodiscard]] std::size_t size() const { return instruments_.size(); }
    /// Instruments sorted by (name, label key) — the exporters' view.
    [[nodiscard]] std::vector<const Instrument*> sorted() const;

private:
    struct Family {
        Kind kind;
        /// The family's series by label id, ascending.
        std::vector<std::pair<std::size_t, Instrument*>> series;
        /// Each distinct help text the family's series were created with.
        std::forward_list<std::string> helps;
    };

    Instrument& find_or_create(std::string_view name, const LabelSet& labels, Kind kind,
                               std::string_view help);

    std::map<std::string, Family, std::less<>> families_;
    std::deque<Instrument> instruments_; // creation order; never moved
    std::map<LabelSet, std::size_t> label_index_;
    std::vector<const LabelSet*> label_sets_; // by id, into label_index_'s keys
};

} // namespace pimlib::telemetry
