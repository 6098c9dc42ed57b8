// pimsim — scripted scenario driver. Runs an event-scripted multicast
// simulation described in a single text file: a topology block (the
// topo::TopologyBuilder format) or a generated transit-stub topology,
// protocol selection, an optional churn workload, and a timeline of
// events. Prints a packet trace (optional) and a delivery report.
//
// Usage: pimsim [scenario-file]     (no argument: runs a built-in demo)
//
// The script language and its interpreter live in the library: see
// src/scenario/script.hpp for the directive list and src/scenario/world.hpp
// for how a script becomes a world. The checker's scenarios
// (src/check/scenarios/*.pimsim) are scripts too, so a counterexample
// pimcheck writes runs here unchanged.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/world.hpp"

namespace {

constexpr const char* kDemoScenario = R"(topology
  router A B C D
  lan lan0 A
  host receiver lan0
  link A B
  link B C
  link B D
  lan lan1 D
  host source lan1
end
protocol pim-sm
rp 224.1.1.1 C
spt-policy threshold 3 10000
trace on
at 100ms join receiver 224.1.1.1
at 300ms send source 224.1.1.1 count=10 interval=50ms
at 1s dump-state
run 2s
)";

} // namespace

int main(int argc, char** argv) {
    std::string text = kDemoScenario;
    if (argc > 1) {
        std::ifstream file(argv[1]);
        if (!file) {
            std::fprintf(stderr, "pimsim: cannot open %s\n", argv[1]);
            return 2;
        }
        std::stringstream buf;
        buf << file.rdbuf();
        text = buf.str();
    } else {
        std::printf("(no scenario file given; running the built-in demo)\n\n");
    }
    try {
        pimlib::scenario::run_script(text);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pimsim: %s\n", e.what());
        return 2;
    }
    return 0;
}
