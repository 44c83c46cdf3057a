#include "graph/round_ingest.hpp"

namespace dyngossip {

std::atomic<std::uint64_t> RoundIngest::delta_rounds_total_{0};

}  // namespace dyngossip
