// Layer probes and reference computations of the end-to-end benchmark. Each
// probe calls one module's public functions on fixed inputs and prints one
// JSON object on stdout. See probes.cc for the commands.
#pragma once

#include <string>

namespace perfbench {

/// Runs `pb-layers`, `pb-cdn-ref`, `pb-table1-ref` or `pb-queue-probe`;
/// returns the process exit code (2 for an unknown command or bad flags).
int RunProbe(const std::string& command, int argc, char** argv);

}  // namespace perfbench
