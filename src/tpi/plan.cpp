#include "tpi/plan.hpp"

#include <string>

#include "util/error.hpp"

namespace tpi {

void validate_planner_options(const PlannerOptions& options,
                              std::string_view planner) {
    const std::string who(planner);
    require(options.budget >= 0, who + ": negative budget");
    if (options.cost.observe <= 0 || options.cost.control <= 0)
        throw ValidationError(
            who + ": cost model requires positive per-kind costs (observe=" +
            std::to_string(options.cost.observe) +
            ", control=" + std::to_string(options.cost.control) + ")");
}

}  // namespace tpi
