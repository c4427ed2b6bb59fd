#include "workload/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace tsce::workload {

using model::AppString;
using model::SystemModel;
using model::Worth;

GeneratorConfig GeneratorConfig::for_scenario(Scenario scenario, double string_scale) {
  GeneratorConfig c;
  switch (scenario) {
    case Scenario::kHighlyLoaded:
      c.num_strings = 150;
      c.mu_latency_min = 4.0;
      c.mu_latency_max = 6.0;
      c.mu_period_min = 3.0;
      c.mu_period_max = 4.5;
      break;
    case Scenario::kQosLimited:
      c.num_strings = 150;
      c.mu_latency_min = 1.25;
      c.mu_latency_max = 2.75;
      c.mu_period_min = 1.5;
      c.mu_period_max = 2.5;
      break;
    case Scenario::kLightlyLoaded:
      c.num_strings = 25;
      c.mu_latency_min = 4.0;
      c.mu_latency_max = 6.0;
      c.mu_period_min = 3.0;
      c.mu_period_max = 4.5;
      break;
  }
  c.num_strings = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             static_cast<double>(c.num_strings) * string_scale)));
  return c;
}

double latency_bound(const SystemModel& model, const AppString& s, double mu) {
  std::vector<double> path_start(s.size());
  const double nominal = model::longest_path(
      s, [&](std::size_t i) { return s.apps[i].avg_time_s(); },
      [&](std::size_t e) { return model.network.avg_transfer_s(s.edges[e].kbytes); },
      std::span<double>(path_start));
  return mu * nominal;
}

double period_bound(const SystemModel& model, const AppString& s, double mu) {
  double longest = 0.0;
  for (const auto& a : s.apps) longest = std::max(longest, a.avg_time_s());
  for (const auto& e : s.edges) {
    longest = std::max(longest, model.network.avg_transfer_s(e.kbytes));
  }
  return mu * longest;
}

namespace {

/// The suite: heterogeneous route bandwidths, then (consistent model only)
/// per-machine speed factors, shared within each pool.
std::vector<double> draw_suite(const GeneratorConfig& config, SystemModel& model,
                               util::Rng& rng) {
  model.network = model::Network(config.num_machines);
  const auto m = static_cast<model::MachineId>(config.num_machines);
  for (model::MachineId j1 = 0; j1 < m; ++j1) {
    for (model::MachineId j2 = 0; j2 < m; ++j2) {
      if (j1 != j2) {
        model.network.set_bandwidth_mbps(
            j1, j2, rng.uniform(config.bandwidth_min_mbps, config.bandwidth_max_mbps));
      }
    }
  }
  std::vector<double> speed(config.num_machines, 1.0);
  if (config.heterogeneity == Heterogeneity::kConsistent) {
    const std::size_t pool = std::max<std::size_t>(1, config.machines_per_pool);
    for (std::size_t j = 0; j < config.num_machines; ++j) {
      speed[j] = j % pool == 0
                     ? rng.uniform(config.speed_factor_min, config.speed_factor_max)
                     : speed[j - 1];
    }
  }
  return speed;
}

/// One application's nominal times and utilizations on every machine.
void draw_app(const GeneratorConfig& config, const std::vector<double>& speed,
              util::Rng& rng, model::Application& a) {
  const std::size_t pool = std::max<std::size_t>(1, config.machines_per_pool);
  a.nominal_time_s.resize(config.num_machines);
  a.nominal_util.resize(config.num_machines);
  const double base_time = config.heterogeneity == Heterogeneity::kConsistent
                               ? rng.uniform(config.time_min_s, config.time_max_s)
                               : 0.0;
  for (std::size_t j = 0; j < config.num_machines; ++j) {
    if (j % pool == 0) {
      // First machine of a pool draws fresh values; the rest of the pool
      // replicates them (machines within a pool are identical).
      a.nominal_time_s[j] = config.heterogeneity == Heterogeneity::kConsistent
                                ? base_time * speed[j]
                                : rng.uniform(config.time_min_s, config.time_max_s);
      a.nominal_util[j] = rng.uniform(config.util_min, config.util_max);
    } else {
      a.nominal_time_s[j] = a.nominal_time_s[j - 1];
      a.nominal_util[j] = a.nominal_util[j - 1];
    }
  }
}

std::size_t draw_length(const GeneratorConfig& config, util::Rng& rng) {
  return static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(config.min_apps_per_string),
                      static_cast<std::int64_t>(config.max_apps_per_string)));
}

double draw_output(const GeneratorConfig& config, util::Rng& rng) {
  return rng.uniform(config.output_min_kbytes, config.output_max_kbytes);
}

/// Worth, then the §8 latency and period bounds of the finished graph.
void draw_qos(const GeneratorConfig& config, const SystemModel& model, AppString& s,
              util::Rng& rng) {
  static constexpr std::array<Worth, 3> kWorths = {Worth::kLow, Worth::kMedium,
                                                   Worth::kHigh};
  s.worth = kWorths[rng.bounded(kWorths.size())];
  s.max_latency_s = latency_bound(
      model, s, rng.uniform(config.mu_latency_min, config.mu_latency_max));
  s.period_s =
      period_bound(model, s, rng.uniform(config.mu_period_min, config.mu_period_max));
}

}  // namespace

SystemModel generate(const GeneratorConfig& config, util::Rng& rng) {
  SystemModel model;
  const std::vector<double> speed = draw_suite(config, model, rng);
  model.strings.reserve(config.num_strings);
  for (std::size_t k = 0; k < config.num_strings; ++k) {
    AppString s;
    const std::size_t n = draw_length(config, rng);
    s.apps.resize(n);
    s.edges.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      draw_app(config, speed, rng, s.apps[i]);
      // The final application's output feeds actuators, not a route (eq. 3
      // sums transfers up to n_k - 1), so only i + 1 < n draws one.
      if (i + 1 < n) {
        s.edges.push_back({static_cast<model::AppIndex>(i),
                           static_cast<model::AppIndex>(i + 1),
                           draw_output(config, rng)});
      }
    }
    draw_qos(config, model, s, rng);
    model.strings.push_back(std::move(s));
  }
  return model;
}

SystemModel generate_dag(const GeneratorConfig& config, util::Rng& rng) {
  constexpr double kExtraEdgeProb = 0.15;
  SystemModel model;
  const std::vector<double> speed = draw_suite(config, model, rng);
  model.strings.reserve(config.num_strings);
  for (std::size_t k = 0; k < config.num_strings; ++k) {
    AppString s;
    const std::size_t n = draw_length(config, rng);
    s.apps.resize(n);
    for (auto& a : s.apps) draw_app(config, speed, rng, a);
    // A random spanning tree keeps the string weakly connected: every app
    // after the first hangs off a uniformly chosen earlier app.  Each other
    // forward pair then gains an edge with probability kExtraEdgeProb.
    for (std::size_t i = 1; i < n; ++i) {
      s.edges.push_back({static_cast<model::AppIndex>(rng.bounded(i)),
                         static_cast<model::AppIndex>(i), draw_output(config, rng)});
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!rng.bernoulli(kExtraEdgeProb)) continue;
        const auto from = static_cast<model::AppIndex>(i);
        const auto to = static_cast<model::AppIndex>(j);
        const bool exists =
            std::any_of(s.edges.begin(), s.edges.end(), [&](const model::Edge& e) {
              return e.from == from && e.to == to;
            });
        if (!exists) s.edges.push_back({from, to, draw_output(config, rng)});
      }
    }
    std::sort(s.edges.begin(), s.edges.end(),
              [](const model::Edge& a, const model::Edge& b) {
                return a.from != b.from ? a.from < b.from : a.to < b.to;
              });
    draw_qos(config, model, s, rng);
    model.strings.push_back(std::move(s));
  }
  return model;
}

}  // namespace tsce::workload
