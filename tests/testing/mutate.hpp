/// \file mutate.hpp
/// Seeded byte-level mutations of valid documents, for untrusted-input
/// property tests: each call returns \p doc truncated, with bytes flipped,
/// spliced with a slice of \p donor, or with a run of open brackets planted.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace tsce::testing {

/// Bytes a flip draws from: JSON structure and escapes first, then any byte.
inline char mutation_byte(util::Rng& rng) {
  static constexpr std::string_view kStructural = "[]{}\":,\\-+.eE0123456789tfnu ";
  if (rng.uniform() < 0.7) return kStructural[rng.bounded(kStructural.size())];
  return static_cast<char>(rng.bounded(256));
}

inline std::string mutate_text(const std::string& doc, const std::string& donor,
                               util::Rng& rng) {
  std::string out = doc;
  switch (rng.bounded(4)) {
    case 0:  // truncate
      out.resize(rng.bounded(out.size() + 1));
      break;
    case 1: {  // flip 1-8 bytes
      const std::size_t flips = 1 + rng.bounded(8);
      for (std::size_t i = 0; i < flips && !out.empty(); ++i) {
        out[rng.bounded(out.size())] = mutation_byte(rng);
      }
      break;
    }
    case 2: {  // replace a slice of doc with a slice of donor
      const std::size_t at = rng.bounded(out.size() + 1);
      const std::size_t cut = rng.bounded(out.size() - at + 1);
      const std::size_t from = rng.bounded(donor.size() + 1);
      const std::size_t len = rng.bounded(donor.size() - from + 1);
      out.replace(at, cut, donor, from, len);
      break;
    }
    default: {  // plant a bracket run, sometimes past the parser's depth cap
      const std::size_t at = rng.bounded(out.size() + 1);
      const std::size_t run = 1 + rng.bounded(2000);
      const std::string_view open = rng.uniform() < 0.5 ? "[" : "{\"k\":";
      std::string bomb;
      for (std::size_t i = 0; i < run; ++i) bomb += open;
      out.insert(at, bomb);
      break;
    }
  }
  return out;
}

}  // namespace tsce::testing
