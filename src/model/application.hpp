/// \file application.hpp
/// A periodic application: one stage of an application string.

#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace tsce::model {

/// One application a_i^k.  Workload on machine j is characterized by the
/// nominal execution time t[i,j] (seconds, measured with the application
/// running alone) and the nominal CPU utilization u[i,j] (average CPU share
/// during that execution).  The product t[i,j]*u[i,j] is the fixed amount of
/// CPU work a data set requires on machine j (paper §3).
struct Application {
  /// t[i,j] for every machine j; size equals the machine count M.
  std::vector<double> nominal_time_s;
  /// u[i,j] for every machine j, each in (0, 1].
  std::vector<double> nominal_util;
  /// Optional human-readable label (used by examples and traces).
  std::string name;

  /// Average nominal execution time across machines, eq. (8).
  [[nodiscard]] double avg_time_s() const noexcept {
    double sum = 0.0;
    for (double t : nominal_time_s) sum += t;
    return nominal_time_s.empty() ? 0.0 : sum / static_cast<double>(nominal_time_s.size());
  }

  /// Average nominal CPU utilization across machines, eq. (9).
  [[nodiscard]] double avg_util() const noexcept {
    double sum = 0.0;
    for (double u : nominal_util) sum += u;
    return nominal_util.empty() ? 0.0 : sum / static_cast<double>(nominal_util.size());
  }

  /// CPU work t[i,j]*u[i,j] on machine \p j.
  [[nodiscard]] double cpu_work(std::size_t j) const noexcept {
    assert(j < nominal_time_s.size());
    return nominal_time_s[j] * nominal_util[j];
  }
};

}  // namespace tsce::model
