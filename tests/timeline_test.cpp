// Timeline exporter tests: chrome_timeline_json must emit valid Chrome
// trace-event JSON — every slice carries pid/tid/ts/ph, sends pair with
// receives as s/f flow arrows, and hostile node/group/detail strings
// survive through json_escape. Validity is checked with a small
// recursive-descent JSON parser rather than substring luck: a single raw
// quote or control character in a label breaks Perfetto's loader.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>

#include "provenance/provenance.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/hub.hpp"
#include "test_util.hpp"
#include "trace/timeline.hpp"

namespace pimlib::test {
namespace {

/// Minimal strict JSON syntax checker (RFC 8259 grammar, no tree built).
/// Rejects raw control characters inside strings — exactly the corruption
/// an escaping bug produces.
class JsonChecker {
public:
    explicit JsonChecker(const std::string& text) : s_(text) {}

    [[nodiscard]] bool valid() {
        skip();
        value();
        skip();
        return ok_ && i_ == s_.size();
    }

private:
    void fail() { ok_ = false; }
    [[nodiscard]] char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
    void skip() {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                                  s_[i_] == '\n' || s_[i_] == '\r')) {
            ++i_;
        }
    }
    void expect(char c) {
        if (peek() == c) {
            ++i_;
        } else {
            fail();
        }
    }
    void literal(const char* lit) {
        for (const char* p = lit; *p != '\0'; ++p) expect(*p);
    }
    void number() {
        const std::size_t start = i_;
        if (peek() == '-') ++i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
                std::strchr(".eE+-", s_[i_]) != nullptr)) {
            ++i_;
        }
        if (i_ == start) fail();
    }
    void string() {
        expect('"');
        while (ok_ && i_ < s_.size() && s_[i_] != '"') {
            const auto c = static_cast<unsigned char>(s_[i_]);
            if (c == '\\') {
                ++i_;
                const char e = peek();
                if (e == 'u') {
                    ++i_;
                    for (int k = 0; k < 4; ++k) {
                        if (std::isxdigit(static_cast<unsigned char>(peek())) == 0) {
                            fail();
                        }
                        ++i_;
                    }
                } else if (std::strchr("\"\\/bfnrt", e) != nullptr) {
                    ++i_;
                } else {
                    fail();
                }
            } else if (c < 0x20) {
                fail(); // raw control character: escaping bug
            } else {
                ++i_;
            }
        }
        expect('"');
    }
    void object() {
        expect('{');
        skip();
        if (peek() == '}') {
            ++i_;
            return;
        }
        while (ok_) {
            skip();
            string();
            skip();
            expect(':');
            value();
            skip();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            break;
        }
        expect('}');
    }
    void array() {
        expect('[');
        skip();
        if (peek() == ']') {
            ++i_;
            return;
        }
        while (ok_) {
            value();
            skip();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            break;
        }
        expect(']');
    }
    void value() {
        if (!ok_) return;
        skip();
        switch (peek()) {
        case '{': object(); break;
        case '[': array(); break;
        case '"': string(); break;
        case 't': literal("true"); break;
        case 'f': literal("false"); break;
        case 'n': literal("null"); break;
        default: number(); break;
        }
    }

    const std::string& s_;
    std::size_t i_ = 0;
    bool ok_ = true;
};

std::size_t count_of(const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

// --- end-to-end: a real join + register + switchover run ------------------

TEST(Timeline, WalkthroughRunEmitsValidChromeTraceJson) {
    Fig3Topology topo;
    topo.net.telemetry().set_tracing(true);
    provenance::Recorder recorder;
    topo.net.set_provenance(&recorder);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});
    stack.set_spt_policy(pim::SptPolicy::immediate());

    topo.net.run_for(100 * sim::kMillisecond);
    stack.host_agent(*topo.receiver).join(kGroup);
    topo.source->send_stream(kGroup, 10, 10 * sim::kMillisecond,
                             150 * sim::kMillisecond);
    topo.net.run_for(1 * sim::kSecond);

    const std::string json = trace::chrome_timeline_json(topo.net, &recorder);

    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);

    // Metadata names both processes and every node track.
    EXPECT_NE(json.find("nodes (control + data plane)"), std::string::npos);
    EXPECT_NE(json.find("causal transactions"), std::string::npos);
    for (const char* node : {"A", "B", "C", "D", "receiver", "source"}) {
        EXPECT_NE(json.find("{\"name\":\"" + std::string(node) + "\"}"),
                  std::string::npos)
            << "no thread_name track for " << node;
    }

    // The join transaction is present: IGMP report, hop-by-hop joins, the
    // register leg, data hops, and the join-to-data span.
    EXPECT_GE(count_of(json, "\"name\":\"igmp-report\""), 1u);
    EXPECT_GE(count_of(json, "\"name\":\"join-sent\""), 1u);
    EXPECT_GE(count_of(json, "\"name\":\"register-received\""), 1u);
    EXPECT_GE(count_of(json, "\"name\":\"fwd deliver\""), 1u);
    EXPECT_GE(count_of(json, "\"name\":\"join-to-data\""), 1u);
    EXPECT_GE(count_of(json, "\"name\":\"igmp-to-join\""), 1u);

    // Flow arrows come in s/f pairs and every finish binds to its enclosing
    // slice so Perfetto draws the arrow into the slice body.
    const std::size_t starts = count_of(json, "\"ph\":\"s\"");
    const std::size_t finishes = count_of(json, "\"ph\":\"f\"");
    EXPECT_GT(starts, 0u);
    EXPECT_EQ(starts, finishes);
    EXPECT_EQ(finishes, count_of(json, "\"bp\":\"e\""));

    // Async span bars open and close in equal numbers.
    EXPECT_EQ(count_of(json, "\"ph\":\"b\""), count_of(json, "\"ph\":\"e\""));
}

// --- hostile labels -------------------------------------------------------

TEST(Timeline, HostileLabelsAreEscaped) {
    topo::Network net;
    net.telemetry().set_tracing(true);
    const std::string evil_node = "ev\"il\\node";
    const std::string evil_note = "line1\nline2\ttab \"quoted\" \x01 end";
    const topo::Router& evil = net.add_router(evil_node);
    const topo::Router& peer = net.add_router("peer");
    net.telemetry().emit({.type = telemetry::EventType::kJoinSent,
                          .node = evil.id(),
                          .group = kGroup,
                          .ifindex = 0,
                          .count = 1});
    net.telemetry().emit({.type = telemetry::EventType::kJoinReceived,
                          .node = peer.id(),
                          .group = kGroup,
                          .addr = evil.router_id()});
    net.telemetry().emit({.type = telemetry::EventType::kWatchdogViolation,
                          .protocol = telemetry::Protocol::kWatchdog,
                          .node = evil.id(),
                          .note = evil_note});

    const std::string json = trace::chrome_timeline_json(net, nullptr);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    // The escaped forms are present; the raw quote-in-string form is not.
    EXPECT_NE(json.find("ev\\\"il\\\\node"), std::string::npos);
    EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
    EXPECT_EQ(json.find(evil_note), std::string::npos);
}

// --- empty hub ------------------------------------------------------------

TEST(Timeline, EmptyHubStillValid) {
    topo::Network net;
    const std::string json = trace::chrome_timeline_json(net, nullptr);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

} // namespace
} // namespace pimlib::test
