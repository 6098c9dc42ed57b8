// pimsim — scripted scenario driver. Runs an event-scripted multicast
// simulation described in a single text file: a topology block (the
// topo::TopologyBuilder format) or a generated transit-stub topology,
// protocol selection, an optional churn workload, and a timeline of
// events. Prints a packet trace (optional) and a delivery report.
//
// Usage: pimsim SCENARIO-FILE
//
// Exit status: 0 when the run finished and every `expect` line held, 1 when
// an `expect` failed, 2 on a bad script or a missing file.
//
// The script language and its interpreter live in the library: see
// src/scenario/script.hpp for the directive list and src/scenario/world.hpp
// for how a script becomes a world. The scenarios under examples/scenarios
// narrate the paper's figures, and the checker's scenarios
// (src/check/scenarios/*.pimsim) are scripts too, so a counterexample
// pimcheck writes runs here unchanged.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/world.hpp"

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: pimsim SCENARIO-FILE (see examples/scenarios)\n");
        return 2;
    }
    std::ifstream file(argv[1]);
    if (!file) {
        std::fprintf(stderr, "pimsim: cannot open %s\n", argv[1]);
        return 2;
    }
    std::stringstream buf;
    buf << file.rdbuf();
    try {
        return pimlib::scenario::run_script(buf.str()) ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pimsim: %s\n", e.what());
        return 2;
    }
}
