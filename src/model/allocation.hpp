/// \file allocation.hpp
/// An application-to-machine mapping m[i,k] plus the set of strings accepted
/// as deployed.  Partial allocations (paper §1) leave some strings
/// undeployed; their applications are unassigned.
///
/// Storage is flat (DESIGN.md §12): one MachineId array over all applications
/// with a per-string prefix-sum offset table, and a byte per deployment flag.
/// Copy-assignment between allocations of the same shape reuses the
/// destination's buffers, so cloning a candidate in the search inner loop is
/// three memcpys and no heap traffic.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::model {

class Allocation {
 public:
  Allocation() = default;

  /// Empty (nothing assigned) allocation shaped like \p model.
  explicit Allocation(const SystemModel& model);

  /// Machine of application i of string k, or kUnassigned.
  [[nodiscard]] MachineId machine_of(StringId k, AppIndex i) const noexcept {
    return flat_[offset_[static_cast<std::size_t>(k)] + static_cast<std::size_t>(i)];
  }

  void assign(StringId k, AppIndex i, MachineId j) noexcept {
    flat_[offset_[static_cast<std::size_t>(k)] + static_cast<std::size_t>(i)] = j;
  }

  /// Clears all assignments of string k and marks it undeployed.
  void clear_string(StringId k) noexcept;

  /// True when every application of string k has a machine.
  [[nodiscard]] bool fully_mapped(StringId k) const noexcept;

  /// Deployment flag: a string counts toward total worth only when deployed.
  [[nodiscard]] bool deployed(StringId k) const noexcept {
    return deployed_[static_cast<std::size_t>(k)] != 0;
  }
  void set_deployed(StringId k, bool value) noexcept {
    deployed_[static_cast<std::size_t>(k)] = value ? 1 : 0;
  }

  [[nodiscard]] std::size_t num_strings() const noexcept { return deployed_.size(); }
  /// Application count of string k (the mapping row length).
  [[nodiscard]] std::size_t string_size(StringId k) const noexcept {
    const auto ku = static_cast<std::size_t>(k);
    return offset_[ku + 1] - offset_[ku];
  }
  [[nodiscard]] std::size_t num_deployed() const noexcept;

  /// Ids of all deployed strings, ascending.
  [[nodiscard]] std::vector<StringId> deployed_strings() const;

  /// Human-readable dump (for examples / debugging).
  [[nodiscard]] std::string to_string(const SystemModel& model) const;

  friend bool operator==(const Allocation&, const Allocation&) = default;

 private:
  std::vector<std::uint32_t> offset_;  ///< per-string start into flat_, size Q+1
  std::vector<MachineId> flat_;        ///< all assignments, strings back to back
  std::vector<std::uint8_t> deployed_;
};

}  // namespace tsce::model
