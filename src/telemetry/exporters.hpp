// Render the registry for consumers: Prometheus text exposition for
// scraping-style tooling and JSON for the benches (machine-diffable
// results).
#pragma once

#include <string>

#include "telemetry/metrics.hpp"

namespace pimlib::telemetry {

/// Prometheus text exposition format (v0.0.4): # HELP / # TYPE headers,
/// label values escaped (\\, \", \n), histograms expanded into cumulative
/// `_bucket{le=...}` series plus `_sum` and `_count`. Counters export their
/// since-epoch value.
[[nodiscard]] std::string to_prometheus(const Registry& registry);

/// Escape a label value for the text format (exposed for tests).
[[nodiscard]] std::string prometheus_escape(const std::string& value);

/// Escape a string for embedding in a JSON value (exposed for tests).
[[nodiscard]] std::string json_escape(const std::string& value);

/// JSON object keyed by metric name; labeled instruments nest an array of
/// {labels, ...} entries. Histograms carry count/sum/min/max/p50/p90/p99.
[[nodiscard]] std::string to_json(const Registry& registry);

} // namespace pimlib::telemetry
