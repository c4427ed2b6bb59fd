/// \file serialization.hpp
/// JSON persistence for system models and allocations.
///
/// Schema (versioned via the "format" field):
///
/// ```json
/// {
///   "format": "tsce-model-v1",
///   "machines": ["name0", "name1"],          // or a bare count
///   "bandwidth_mbps": [[null, 5.0], [5.0, null]],  // null = infinite
///   "strings": [{
///     "name": "radar-track", "period_s": 8.0, "max_latency_s": 20.0,
///     "worth": 100,
///     "apps": [{"name": "filter", "time_s": [..], "util": [..],
///               "output_kbytes": 80.0}]
///   }]
/// }
/// ```
///
/// Strings are chains: app i's "output_kbytes" is the edge (i, i+1) and the
/// final app's value is ignored.  There is no DAG file format; to_json of a
/// string that is not a path throws std::invalid_argument.
///
/// Allocations serialize as `{"format": "tsce-allocation-v1",
/// "mapping": [[0, 2], ...], "deployed": [true, ...]}` with -1 for
/// unassigned applications.

#pragma once

#include <string>

#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "util/json.hpp"

namespace tsce::model {

[[nodiscard]] util::Json to_json(const SystemModel& model);
/// Throws std::runtime_error on any schema violation — a missing key, a wrong
/// type, or a count, worth or machine id that is not an integer in range —
/// and never casts an unchecked number; the returned model always passes
/// SystemModel::validate().
[[nodiscard]] SystemModel system_model_from_json(const util::Json& json);

[[nodiscard]] util::Json to_json(const Allocation& alloc);
/// \p model supplies the expected shape; mismatches throw.
[[nodiscard]] Allocation allocation_from_json(const util::Json& json,
                                              const SystemModel& model);

void save_system_model(const std::string& path, const SystemModel& model);
[[nodiscard]] SystemModel load_system_model(const std::string& path);

void save_allocation(const std::string& path, const Allocation& alloc);
[[nodiscard]] Allocation load_allocation(const std::string& path,
                                         const SystemModel& model);

}  // namespace tsce::model
