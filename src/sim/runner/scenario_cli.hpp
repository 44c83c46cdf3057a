// The dyngossip CLI driver.
//
//   dyngossip list [--json]
//   dyngossip adversaries [--json]
//   dyngossip run <scenario> [--threads=N] [--trials=T] [--scale=S] [--quick]
//                            [--csv] [--json[=PATH|-]]
//                            [--adversary=SPEC | --trace=FILE]
//                            [--<param>=v ...]
//   dyngossip trace <record|replay|info|gen> [flags]
//   dyngossip speedup [--threads=N] [--trials=T] [--n=..] [--min=X]
//
// run executes a registered scenario on a fixed thread pool and renders the
// result; the payload is bit-identical at any --threads value.  The global
// --adversary/--trace axis swaps any axis-capable scenario's schedule for a
// registry spec or a recorded .dgt trace.  adversaries enumerates the
// spec grammar.  speedup is the self-measuring harness CI uses: it times
// the same keyed sweep through memoized_sweep on a 1-worker and an N-worker
// pool, asserts bit-identity, and reports the ratio.
#pragma once

#include "sim/runner/scenario_registry.hpp"

namespace dyngossip {

/// Entry point behind tools/dyngossip_main.cpp.  Returns a process exit
/// code (0 success, 1 failed acceptance e.g. speedup --min, 2 usage error).
int dyngossip_main(ScenarioRegistry& registry, int argc, const char* const* argv);

}  // namespace dyngossip
