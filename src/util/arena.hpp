/// \file arena.hpp
/// Monotonic bump arena with typed, offset-based views and a memcpy snapshot
/// protocol — the flat-memory substrate of the evaluation core (DESIGN.md
/// §12).
///
/// Everything placed in an Arena is addressed by byte offset, never by
/// pointer, so the whole arena is one relocatable block: growing the backing
/// buffer, snapshotting the used prefix, restoring a snapshot, and cloning
/// into another arena are all plain memcpys that preserve every internal
/// reference.  Only trivially copyable element types are allowed (enforced at
/// compile time), which is what makes the byte-level snapshot exact: a
/// restored arena is bit-identical to the arena at snapshot time.
///
/// The arena is monotonic: alloc() only moves the tip forward, and the only
/// rewind is restore_from() of a snapshot of the full used prefix.  There is
/// no per-object free; dead regions left behind by grow() are reclaimed only
/// when the owner rebuilds the arena.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace tsce::util {

/// Relocatable typed view: a (byte offset, element count) pair that must be
/// resolved against its arena via Arena::view().  Valid across arena growth,
/// snapshot/restore, and cloning — unlike a pointer or std::span.
template <typename T>
struct ArenaSpan {
  static_assert(std::is_trivially_copyable_v<T>,
                "arena elements must be trivially copyable (memcpy snapshot)");
  std::uint32_t offset = 0;  ///< byte offset of the first element
  std::uint32_t count = 0;   ///< element count
};

/// Reusable byte-image of an arena's used prefix.  snapshot_into() overwrites
/// the previous image in place, so steady-state snapshotting never allocates
/// once the buffer has grown to the arena's working size.
struct ArenaSnapshot {
  std::vector<std::byte> bytes;
};

class Arena {
 public:
  Arena() = default;
  explicit Arena(std::size_t initial_capacity) { reserve_bytes(initial_capacity); }

  /// Deep copies reuse the destination buffer when it is large enough, so
  /// clone-into-existing-arena is allocation-free in steady state.
  Arena(const Arena& other) { *this = other; }
  Arena& operator=(const Arena& other) {
    if (this == &other) return *this;
    reserve_bytes(other.used_);
    used_ = other.used_;
    if (used_ != 0) std::memcpy(bytes_.get(), other.bytes_.get(), used_);
    return *this;
  }
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Allocates \p count elements of T at the tip (8-byte aligned,
  /// zero-initialized) and returns the relocatable view.
  template <typename T>
  [[nodiscard]] ArenaSpan<T> alloc(std::size_t count) {
    const std::size_t offset = align_up(used_);
    const std::size_t bytes = count * sizeof(T);
    reserve_bytes(offset + bytes);
    if (bytes != 0) std::memset(bytes_.get() + offset, 0, bytes);
    used_ = offset + bytes;
    return {static_cast<std::uint32_t>(offset), static_cast<std::uint32_t>(count)};
  }

  /// Grows \p span to \p new_count elements.  When the span ends exactly at
  /// the tip it is extended in place; otherwise a fresh region is allocated
  /// at the tip and the old elements are copied over (the old region becomes
  /// arena garbage).  Either way existing element values are preserved and
  /// new elements are zero-initialized.
  template <typename T>
  [[nodiscard]] ArenaSpan<T> grow(ArenaSpan<T> span, std::size_t new_count) {
    const std::size_t old_bytes = span.count * sizeof(T);
    const std::size_t new_bytes = new_count * sizeof(T);
    if (span.offset + old_bytes == used_) {  // tip slab: extend in place
      reserve_bytes(span.offset + new_bytes);
      std::memset(bytes_.get() + span.offset + old_bytes, 0,
                  new_bytes - old_bytes);
      used_ = span.offset + new_bytes;
      return {span.offset, static_cast<std::uint32_t>(new_count)};
    }
    const ArenaSpan<T> moved = alloc<T>(new_count);
    if (old_bytes != 0) {
      std::memcpy(bytes_.get() + moved.offset, bytes_.get() + span.offset,
                  old_bytes);
    }
    return moved;
  }

  template <typename T>
  [[nodiscard]] std::span<T> view(ArenaSpan<T> span) noexcept {
    return {reinterpret_cast<T*>(bytes_.get() + span.offset), span.count};
  }
  template <typename T>
  [[nodiscard]] std::span<const T> view(ArenaSpan<T> span) const noexcept {
    return {reinterpret_cast<const T*>(bytes_.get() + span.offset), span.count};
  }

  [[nodiscard]] std::size_t used() const noexcept { return used_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Copies the used prefix into \p out (one memcpy; buffer reused).
  void snapshot_into(ArenaSnapshot& out) const {
    out.bytes.resize(used_);
    if (used_ != 0) std::memcpy(out.bytes.data(), bytes_.get(), used_);
  }
  /// Restores a snapshot taken from this arena or a same-layout peer: after
  /// the call the used prefix is bit-identical to the snapshot (one memcpy).
  void restore_from(const ArenaSnapshot& snap) {
    reserve_bytes(snap.bytes.size());
    used_ = snap.bytes.size();
    if (used_ != 0) std::memcpy(bytes_.get(), snap.bytes.data(), used_);
  }

 private:
  static constexpr std::size_t align_up(std::size_t n) noexcept {
    return (n + 7u) & ~std::size_t{7};
  }

  void reserve_bytes(std::size_t needed) {
    if (needed <= capacity_) return;
    std::size_t next = capacity_ == 0 ? 256 : capacity_;
    while (next < needed) next *= 2;
    std::unique_ptr<std::byte[]> grown(new std::byte[next]);
    if (used_ != 0) std::memcpy(grown.get(), bytes_.get(), used_);
    bytes_ = std::move(grown);
    capacity_ = next;
  }

  std::unique_ptr<std::byte[]> bytes_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace tsce::util
