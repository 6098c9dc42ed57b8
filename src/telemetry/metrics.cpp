#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pimlib::telemetry {

LabelSet::LabelSet(std::initializer_list<std::pair<std::string, std::string>> labels)
    : pairs_(labels) {
    std::sort(pairs_.begin(), pairs_.end());
}

std::string LabelSet::key() const {
    std::string out;
    for (const auto& [k, v] : pairs_) {
        out += k;
        out += '\x01';
        out += v;
        out += '\x02';
    }
    return out;
}

Buckets Buckets::exponential(double start, double growth, int count) {
    if (start <= 0 || growth <= 1.0 || count <= 0 || count > kMaxBuckets) {
        throw std::invalid_argument("Buckets::exponential: need start > 0, "
                                    "growth > 1, 0 < count <= 64");
    }
    Buckets b;
    b.bounds.reserve(static_cast<std::size_t>(count));
    double bound = start;
    for (int i = 0; i < count; ++i) {
        b.bounds.push_back(bound);
        bound *= growth;
    }
    return b;
}

Histogram::Histogram(Buckets buckets)
    : bounds_(std::move(buckets.bounds)), counts_(bounds_.size() + 1, 0) {
    if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
        throw std::invalid_argument("Histogram: bucket bounds must ascend");
    }
}

void Histogram::observe(double v) {
    // v <= bounds_[i] lands in bucket i; beyond every bound lands in +Inf.
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

double Histogram::quantile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(count_);
    double running = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double in_bucket = static_cast<double>(counts_[i]);
        if (in_bucket == 0 || running + in_bucket < rank) {
            running += in_bucket;
            continue;
        }
        // The rank falls inside bucket i: interpolate between its bounds.
        if (i == counts_.size() - 1) return max_; // +Inf bucket
        const double upper = bounds_[i];
        const double lower = i == 0 ? 0.0 : bounds_[i - 1];
        const double pos = (rank - running) / in_bucket;
        return std::clamp(lower + (upper - lower) * pos, min_, max_);
    }
    return max_;
}

std::size_t Registry::intern(const LabelSet& labels) {
    const auto [it, fresh] = label_index_.try_emplace(labels, label_sets_.size());
    if (fresh) label_sets_.push_back(&it->first);
    return it->second;
}

Registry::Instrument& Registry::find_or_create(std::string_view name,
                                               const LabelSet& labels, Kind kind,
                                               std::string_view help) {
    auto family = families_.find(name);
    if (family == families_.end()) {
        family = families_.emplace(std::string(name), Family{kind, {}, {}}).first;
    } else if (family->second.kind != kind) {
        // A name keeps one kind across all label sets (Prometheus family
        // semantics).
        throw std::logic_error("telemetry: instrument '" + family->first +
                               "' re-registered with a different kind");
    }
    Family& f = family->second;
    const std::size_t label_id = intern(labels);
    const auto at = std::lower_bound(
        f.series.begin(), f.series.end(), label_id,
        [](const std::pair<std::size_t, Instrument*>& s, std::size_t id) { return s.first < id; });
    if (at != f.series.end() && at->first == label_id) return *at->second;

    auto text = std::find(f.helps.begin(), f.helps.end(), help);
    if (text == f.helps.end()) {
        f.helps.emplace_front(help);
        text = f.helps.begin();
    }
    Instrument& inst =
        instruments_.emplace_back(family->first, *text, kind, labels_of(label_id));
    f.series.insert(at, {label_id, &inst});
    return inst;
}

Counter& Registry::counter(std::string_view name, const LabelSet& labels,
                           std::string_view help) {
    Instrument& inst = find_or_create(name, labels, Kind::kCounter, help);
    if (!inst.counter) inst.counter.emplace();
    return *inst.counter;
}

Gauge& Registry::gauge(std::string_view name, const LabelSet& labels, std::string_view help) {
    Instrument& inst = find_or_create(name, labels, Kind::kGauge, help);
    if (!inst.gauge) inst.gauge.emplace();
    return *inst.gauge;
}

Histogram& Registry::histogram(std::string_view name, const Buckets& buckets,
                               const LabelSet& labels, std::string_view help) {
    Instrument& inst = find_or_create(name, labels, Kind::kHistogram, help);
    if (!inst.histogram) inst.histogram.emplace(buckets);
    return *inst.histogram;
}

void Registry::begin_epoch() {
    for (Instrument& inst : instruments_) {
        if (inst.counter) inst.counter->begin_epoch();
    }
}

std::vector<const Registry::Instrument*> Registry::sorted() const {
    std::vector<const Instrument*> out;
    out.reserve(instruments_.size());
    for (const Instrument& inst : instruments_) out.push_back(&inst);
    std::sort(out.begin(), out.end(), [](const Instrument* a, const Instrument* b) {
        if (a->name != b->name) return a->name < b->name;
        return a->labels.key() < b->labels.key();
    });
    return out;
}

} // namespace pimlib::telemetry
