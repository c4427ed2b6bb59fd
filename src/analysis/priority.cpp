#include "analysis/priority.hpp"

#include <vector>

#include "analysis/tightness.hpp"

namespace tsce::analysis {

const char* to_string(PriorityRule rule) noexcept {
  switch (rule) {
    case PriorityRule::kRelativeTightness: return "relative-tightness";
    case PriorityRule::kRateMonotonic: return "rate-monotonic";
    case PriorityRule::kWorth: return "worth";
  }
  return "unknown";
}

double priority_value(const model::SystemModel& model,
                      const model::Allocation& alloc, model::StringId k,
                      PriorityRule rule) {
  std::vector<double> path_start(model.strings[static_cast<std::size_t>(k)].size());
  return priority_value(model, alloc, k, rule, path_start);
}

double priority_value(const model::SystemModel& model,
                      const model::Allocation& alloc, model::StringId k,
                      PriorityRule rule, std::span<double> start) noexcept {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  switch (rule) {
    case PriorityRule::kRelativeTightness:
      return relative_tightness(model, alloc, k, start);
    case PriorityRule::kRateMonotonic:
      return 1.0 / s.period_s;
    case PriorityRule::kWorth:
      return static_cast<double>(s.worth_factor());
  }
  return 0.0;
}

}  // namespace tsce::analysis
