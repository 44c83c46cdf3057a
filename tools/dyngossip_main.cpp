// dyngossip — unified scenario driver.
//
//   dyngossip list
//   dyngossip run <scenario> [--threads=N --trials=T --scale=S --csv --json[=PATH]]
//   dyngossip speedup [--threads=N --trials=T --min=X]
//
// See src/sim/runner/scenario_cli.hpp for the full contract.

#include "scenarios/scenarios.hpp"
#include "sim/runner/scenario_cli.hpp"

int main(int argc, char** argv) {
  dyngossip::ScenarioRegistry& registry = dyngossip::ScenarioRegistry::global();
  dyngossip::register_all_scenarios(registry);
  return dyngossip::dyngossip_main(registry, argc, argv);
}
