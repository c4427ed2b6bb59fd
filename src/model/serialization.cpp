#include "model/serialization.hpp"

#include <cmath>
#include <stdexcept>

namespace tsce::model {

using util::Json;

namespace {

constexpr const char* kModelFormat = "tsce-model-v1";
constexpr const char* kAllocationFormat = "tsce-allocation-v1";

[[noreturn]] void schema_error(const std::string& message) {
  throw std::runtime_error("serialization: " + message);
}

void check_format(const Json& json, const char* expected) {
  if (!json.is_object() || !json.contains("format") ||
      !json.at("format").is_string() || json.at("format").as_string() != expected) {
    schema_error(std::string("expected format '") + expected + "'");
  }
}

/// Object member \p key; a missing key is a schema error (Json::at would
/// throw std::out_of_range, which callers of the loaders do not expect).
const Json& field(const Json& object, const char* key) {
  if (!object.is_object() || !object.contains(key)) {
    schema_error(std::string("missing key '") + key + "'");
  }
  return object.at(key);
}

double number(const Json& json, const char* what) {
  if (!json.is_number()) schema_error(std::string(what) + " must be a number");
  return json.as_number();
}

/// An integral JSON number in [lo, hi], checked before any cast so that
/// fractional, huge or non-finite values cannot reach an integer conversion.
long long integer(const Json& json, const char* what, long long lo, long long hi) {
  const double x = number(json, what);
  if (!std::isfinite(x) || x != std::trunc(x) || x < static_cast<double>(lo) ||
      x > static_cast<double>(hi)) {
    schema_error(std::string(what) + " must be an integer in [" + std::to_string(lo) +
                 ", " + std::to_string(hi) + "]");
  }
  return static_cast<long long>(x);
}

const Json::Array& array(const Json& json, const char* what) {
  if (!json.is_array()) schema_error(std::string(what) + " must be an array");
  return json.as_array();
}

const std::string& string(const Json& json, const char* what) {
  if (!json.is_string()) schema_error(std::string(what) + " must be a string");
  return json.as_string();
}

Json vector_to_json(const std::vector<double>& xs) {
  Json array = Json::array();
  for (const double x : xs) array.push_back(Json(x));
  return array;
}

std::vector<double> vector_from_json(const Json& json, const char* what) {
  std::vector<double> xs;
  xs.reserve(array(json, what).size());
  for (const Json& item : json.as_array()) xs.push_back(number(item, what));
  return xs;
}

Worth worth_from_json(const Json& json) {
  switch (integer(json, "worth", 1, 100)) {
    case 1: return Worth::kLow;
    case 10: return Worth::kMedium;
    case 100: return Worth::kHigh;
    default: schema_error("worth must be 1, 10 or 100");
  }
}

}  // namespace

Json to_json(const SystemModel& model) {
  Json root = Json::object();
  root.set("format", Json(kModelFormat));

  if (!model.machine_names.empty()) {
    Json names = Json::array();
    for (const auto& name : model.machine_names) names.push_back(Json(name));
    root.set("machines", std::move(names));
  } else {
    root.set("machines", Json(model.num_machines()));
  }

  const auto m = static_cast<MachineId>(model.num_machines());
  Json bandwidth = Json::array();
  for (MachineId j1 = 0; j1 < m; ++j1) {
    Json row = Json::array();
    for (MachineId j2 = 0; j2 < m; ++j2) {
      const double w = model.network.bandwidth_mbps(j1, j2);
      row.push_back(w == kInfiniteBandwidth ? Json(nullptr) : Json(w));
    }
    bandwidth.push_back(std::move(row));
  }
  root.set("bandwidth_mbps", std::move(bandwidth));

  Json strings = Json::array();
  for (std::size_t k = 0; k < model.strings.size(); ++k) {
    const AppString& s = model.strings[k];
    if (!s.is_path()) {
      throw std::invalid_argument("to_json: string " + std::to_string(k) +
                                  " is not a chain; tsce-model-v1 stores chains only");
    }
    Json js = Json::object();
    if (!s.name.empty()) js.set("name", Json(s.name));
    js.set("period_s", Json(s.period_s));
    js.set("max_latency_s", Json(s.max_latency_s));
    js.set("worth", Json(s.worth_factor()));
    Json apps = Json::array();
    for (std::size_t i = 0; i < s.apps.size(); ++i) {
      const Application& a = s.apps[i];
      Json ja = Json::object();
      if (!a.name.empty()) ja.set("name", Json(a.name));
      ja.set("time_s", vector_to_json(a.nominal_time_s));
      ja.set("util", vector_to_json(a.nominal_util));
      ja.set("output_kbytes", Json(i < s.edges.size() ? s.edges[i].kbytes : 0.0));
      apps.push_back(std::move(ja));
    }
    js.set("apps", std::move(apps));
    strings.push_back(std::move(js));
  }
  root.set("strings", std::move(strings));
  return root;
}

SystemModel system_model_from_json(const Json& json) {
  check_format(json, kModelFormat);
  SystemModel model;

  // The bandwidth matrix must be M x M, so its row count bounds any machine
  // count before Network(M) allocates M^2 cells.
  const Json::Array& bandwidth = array(field(json, "bandwidth_mbps"), "bandwidth_mbps");
  const Json& machines = field(json, "machines");
  std::size_t machine_count = 0;
  if (machines.is_number()) {
    machine_count = static_cast<std::size_t>(integer(
        machines, "machines", 0, static_cast<long long>(bandwidth.size())));
  } else if (machines.is_array()) {
    machine_count = machines.as_array().size();
    for (const Json& name : machines.as_array()) {
      model.machine_names.push_back(string(name, "machine name"));
    }
  } else {
    schema_error("machines must be a count or an array of names");
  }
  if (bandwidth.size() != machine_count) {
    schema_error("bandwidth_mbps must be an MxM matrix");
  }
  for (const Json& row : bandwidth) {
    if (!row.is_array() || row.as_array().size() != machine_count) {
      schema_error("bandwidth_mbps must be an MxM matrix");
    }
  }

  model.network = Network(machine_count);
  for (std::size_t j1 = 0; j1 < machine_count; ++j1) {
    for (std::size_t j2 = 0; j2 < machine_count; ++j2) {
      const Json& cell = bandwidth[j1].as_array()[j2];
      model.network.set_bandwidth_mbps(
          static_cast<MachineId>(j1), static_cast<MachineId>(j2),
          cell.is_null() ? kInfiniteBandwidth : number(cell, "bandwidth_mbps"));
    }
  }

  // Strings are chains: app i's output_kbytes is the edge (i, i+1); the final
  // app's output feeds actuators and carries no route.
  for (const Json& js : array(field(json, "strings"), "strings")) {
    AppString s;
    if (js.contains("name")) s.name = string(js.at("name"), "string name");
    s.period_s = number(field(js, "period_s"), "period_s");
    s.max_latency_s = number(field(js, "max_latency_s"), "max_latency_s");
    s.worth = worth_from_json(field(js, "worth"));
    std::vector<double> outputs;
    for (const Json& ja : array(field(js, "apps"), "apps")) {
      Application a;
      if (ja.contains("name")) a.name = string(ja.at("name"), "app name");
      a.nominal_time_s = vector_from_json(field(ja, "time_s"), "time_s");
      a.nominal_util = vector_from_json(field(ja, "util"), "util");
      outputs.push_back(number(field(ja, "output_kbytes"), "output_kbytes"));
      if (!(outputs.back() >= 0.0)) schema_error("output_kbytes must be nonnegative");
      s.apps.push_back(std::move(a));
    }
    for (std::size_t i = 0; i + 1 < s.apps.size(); ++i) {
      s.edges.push_back(
          {static_cast<AppIndex>(i), static_cast<AppIndex>(i + 1), outputs[i]});
    }
    model.strings.push_back(std::move(s));
  }

  const auto problems = model.validate();
  if (!problems.empty()) {
    schema_error("loaded model is invalid: " + problems.front());
  }
  return model;
}

Json to_json(const Allocation& alloc) {
  Json root = Json::object();
  root.set("format", Json(kAllocationFormat));
  Json mapping = Json::array();
  Json deployed = Json::array();
  for (std::size_t k = 0; k < alloc.num_strings(); ++k) {
    const auto sk = static_cast<StringId>(k);
    Json row = Json::array();
    for (std::size_t i = 0; i < alloc.string_size(sk); ++i) {
      row.push_back(Json(static_cast<int>(alloc.machine_of(sk, static_cast<AppIndex>(i)))));
    }
    mapping.push_back(std::move(row));
    deployed.push_back(Json(alloc.deployed(sk)));
  }
  root.set("mapping", std::move(mapping));
  root.set("deployed", std::move(deployed));
  return root;
}

Allocation allocation_from_json(const Json& json, const SystemModel& model) {
  check_format(json, kAllocationFormat);
  Allocation alloc(model);
  const Json& mapping = field(json, "mapping");
  const Json& deployed = field(json, "deployed");
  if (!mapping.is_array() || mapping.as_array().size() != model.num_strings() ||
      !deployed.is_array() || deployed.as_array().size() != model.num_strings()) {
    schema_error("allocation shape does not match the model");
  }
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    const Json& row = mapping.as_array()[k];
    if (!row.is_array() || row.as_array().size() != model.strings[k].size()) {
      schema_error("mapping row " + std::to_string(k) + " has the wrong length");
    }
    for (std::size_t i = 0; i < row.as_array().size(); ++i) {
      const long long j =
          integer(row.as_array()[i], "machine id", kUnassigned,
                  static_cast<long long>(model.num_machines()) - 1);
      alloc.assign(static_cast<StringId>(k), static_cast<AppIndex>(i),
                   static_cast<MachineId>(j));
    }
    const Json& flag = deployed.as_array()[k];
    if (!flag.is_bool()) schema_error("deployed entries must be booleans");
    if (flag.as_bool() && !alloc.fully_mapped(static_cast<StringId>(k))) {
      schema_error("string " + std::to_string(k) +
                   " is marked deployed but not fully mapped");
    }
    alloc.set_deployed(static_cast<StringId>(k), flag.as_bool());
  }
  return alloc;
}

void save_system_model(const std::string& path, const SystemModel& model) {
  util::write_json_file(path, to_json(model));
}

SystemModel load_system_model(const std::string& path) {
  return system_model_from_json(util::read_json_file(path));
}

void save_allocation(const std::string& path, const Allocation& alloc) {
  util::write_json_file(path, to_json(alloc));
}

Allocation load_allocation(const std::string& path, const SystemModel& model) {
  return allocation_from_json(util::read_json_file(path), model);
}

}  // namespace tsce::model
