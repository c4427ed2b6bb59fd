/// \file builders.hpp
/// Shared fixtures for unit tests: small hand-checkable TSCE instances.

#pragma once

#include "model/system_model.hpp"

namespace tsce::testing {

/// Two homogeneous machines joined by 8 Mb/s routes; two 2-app strings.
/// Chosen so every utilization is easy to compute by hand:
///   string 0: P=10, Lmax=30, apps (t=2,u=0.5,O=100KB), (t=4,u=1.0)
///   string 1: P=20, Lmax=50, apps (t=5,u=0.8,O=50KB), (t=2,u=0.25)
inline model::SystemModel two_machine_system() {
  return model::SystemModelBuilder(2)
      .uniform_bandwidth(8.0)
      .begin_string(10.0, 30.0, model::Worth::kHigh, "s0")
      .add_app(2.0, 0.5, 100.0, "a0")
      .add_app(4.0, 1.0, 0.0, "a1")
      .begin_string(20.0, 50.0, model::Worth::kMedium, "s1")
      .add_app(5.0, 0.8, 50.0, "b0")
      .add_app(2.0, 0.25, 0.0, "b1")
      .build();
}

/// Single machine, one single-app string: the smallest valid system.
inline model::SystemModel minimal_system() {
  return model::SystemModelBuilder(1)
      .begin_string(10.0, 10.0, model::Worth::kLow, "only")
      .add_app(3.0, 0.6, 0.0, "app")
      .build();
}

/// The Figure 2 setup: two single-app strings sharing one machine, with
/// configurable periods and utilizations.  String 0 is made relatively
/// tighter (higher priority) via a smaller latency bound.
inline model::SystemModel figure2_system(double p1, double p2, double u1,
                                         double t1 = 2.0, double t2 = 2.0,
                                         double u2 = 1.0) {
  return model::SystemModelBuilder(1)
      .begin_string(p1, /*Lmax=*/t1 * 1.5, model::Worth::kHigh, "tight")
      .add_app(t1, u1, 0.0, "a11")
      .begin_string(p2, /*Lmax=*/t2 * 50.0, model::Worth::kLow, "loose")
      .add_app(t2, u2, 0.0, "a12")
      .build();
}

/// A diamond DAG string on \p machines homogeneous machines: 0 -> 1, 0 -> 2,
/// 1 -> 3, 2 -> 3, every app t=1 s, u=\p util, outputs 10/20/30/40 KB.
inline model::AppString diamond_string(std::size_t machines, double util = 0.5) {
  model::AppString s;
  s.apps.resize(4);
  for (auto& a : s.apps) {
    a.nominal_time_s.assign(machines, 1.0);
    a.nominal_util.assign(machines, util);
  }
  s.edges = {{0, 1, 10.0}, {0, 2, 20.0}, {1, 3, 30.0}, {2, 3, 40.0}};
  s.period_s = 10.0;
  s.max_latency_s = 50.0;
  return s;
}

/// One machine (5 Mb/s routes, all intra-machine anyway) holding one diamond.
inline model::SystemModel diamond_system() {
  model::SystemModel m;
  m.network = model::Network(1, 5.0);
  m.strings.push_back(diamond_string(1));
  return m;
}

}  // namespace tsce::testing
