/// \file sparse_lu.hpp
/// Sparse LU factorisation of a simplex basis with product-form eta updates.
///
/// The factorisation is a right-looking Gaussian elimination with Markowitz
/// pivot selection (threshold partial pivoting for stability, fill-minimising
/// (r-1)(c-1) cost for sparsity).  Simplex bases are singleton-dominated —
/// most columns are slacks or near-slack structural columns — so the
/// elimination clears singleton rows/columns first with zero fill and only
/// runs the Markowitz search on the small remaining kernel.
///
/// Between refactorisations, basis changes are absorbed as product-form eta
/// matrices: pivoting column q into basis position r appends the spike
/// w = B^-1 A_q, and FTRAN/BTRAN apply the eta file after/before the LU
/// solves.  The eta file grows with every pivot (and its error compounds), so
/// the simplex refactorises every `refactor_interval` pivots or earlier when
/// the FTRAN/BTRAN cross-check drifts (see simplex.cpp).
///
/// Index spaces: FTRAN input vectors are indexed by constraint row, output by
/// basis position (the column order given to factorize()); BTRAN is the
/// transpose, position in / row out.  All solves exploit right-hand-side
/// sparsity by skipping zero entries of the permuted elimination sequence.
///
/// Determinism: pivot selection breaks ties on (Markowitz cost, column,
/// row), all iteration orders are index-based, and no randomisation is used,
/// so a fixed input always produces the identical factor and solve sequence.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "lp/problem.hpp"
#include "util/hot.hpp"

namespace tsce::lp {

/// Dense-value/sparse-pattern work vector used by the FTRAN/BTRAN kernels.
/// `values` is authoritative; `pattern` lists the (unique) indices that may
/// be nonzero so consumers can iterate without scanning the whole vector.
struct IndexedVector {
  std::vector<double> values;
  std::vector<std::int32_t> pattern;

  void resize(std::size_t n) {
    values.assign(n, 0.0);
    pattern.clear();
    pattern.reserve(n);
  }

  /// Zeroes only the listed pattern entries (O(pattern) not O(n)).
  void clear() {
    for (const std::int32_t i : pattern) values[static_cast<std::size_t>(i)] = 0.0;
    pattern.clear();
  }

  void add(std::int32_t i, double v) {
    const auto u = static_cast<std::size_t>(i);
    if (values[u] == 0.0) pattern.push_back(i);
    values[u] += v;
  }

  /// Appends \p i to the pattern without touching values.  Kernel-internal:
  /// the caller (BasisLu's mark-guarded solves) guarantees \p i is not
  /// already listed.
  void note(std::int32_t i) { pattern.push_back(i); }
};

class BasisLu {
 public:
  /// Factorises the basis whose column at position p is `a` column
  /// `basis[p]`.  Clears the eta file.  Returns false when the basis is
  /// numerically singular (no pivot with magnitude >= \p pivot_tol exists in
  /// some elimination step); the factor state is unusable until the next
  /// successful factorize().
  [[nodiscard]] bool factorize(const CscMatrix& a,
                               const std::vector<std::int32_t>& basis,
                               double pivot_tol);

  /// Solves B x = b in place: on input \p v is indexed by constraint row, on
  /// output by basis position.  Applies the LU factors then the eta file.
  TSCE_HOT void ftran(IndexedVector& v) const;

  /// Solves B^T x = b in place: position in, row out.  Applies the eta file
  /// (transposed, reverse order) then the LU factors.
  TSCE_HOT void btran(IndexedVector& v) const;

  /// Absorbs a basis change: the column whose spike is \p w (= B^-1 A_enter,
  /// indexed by basis position) replaces position \p leave_pos.  Returns
  /// false when the spike's pivot element is smaller than \p pivot_tol, in
  /// which case the eta was not appended and the caller must refactorise.
  [[nodiscard]] bool push_eta(const IndexedVector& w, std::size_t leave_pos,
                              double pivot_tol);

  [[nodiscard]] std::size_t eta_count() const noexcept { return eta_.size(); }
  [[nodiscard]] std::size_t dimension() const noexcept { return m_; }
  /// Factor fill: nonzeros of L + U (diagnostic; eta file excluded).
  [[nodiscard]] std::size_t factor_nonzeros() const noexcept {
    return l_entries_.size() + u_entries_.size() + m_;
  }

 private:
  struct Entry {
    std::int32_t index;  ///< row (L) / basis position (U, etas)
    double value;
  };
  struct Eta {
    std::size_t start, end;  ///< half-open range into eta_entries_
    std::int32_t pivot_pos;
    double pivot_value;
  };
  struct ActiveEntry {
    std::int32_t row;  ///< -1 marks a cancelled (tombstoned) entry
    double value;
  };
  /// n lists packed as slices of one pool, so that a refactorisation reuses
  /// a single allocation instead of n small ones.  Appending to a full slice
  /// moves it to the pool's end with twice the room; the abandoned slice is
  /// reclaimed by the next reset().  Each list keeps its append order.
  template <class T>
  struct PackedLists {
    std::vector<T> pool;
    std::vector<std::size_t> start, size, room;

    void reset(std::size_t n) {
      pool.clear();
      start.assign(n, 0);
      size.assign(n, 0);
      room.assign(n, 0);
    }
    /// Gives the (empty) list i a fresh slice with room for \p capacity.
    void open(std::size_t i, std::size_t capacity) {
      start[i] = pool.size();
      room[i] = capacity;
      pool.resize(pool.size() + capacity);
    }
    void push(std::size_t i, const T& v) {
      if (size[i] == room[i]) {
        const std::size_t from = start[i];
        open(i, std::max<std::size_t>(2 * room[i], 4));
        std::copy_n(pool.begin() + static_cast<std::ptrdiff_t>(from), size[i],
                    pool.begin() + static_cast<std::ptrdiff_t>(start[i]));
      }
      pool[start[i] + size[i]++] = v;
    }
    std::span<T> operator[](std::size_t i) { return {pool.data() + start[i], size[i]}; }
  };

  std::size_t m_ = 0;
  // Elimination-ordered factors: step k pivoted (prow_[k], pcol_[k]) with
  // diagonal u_diag_[k]; l_ holds the subdiagonal multipliers by original
  // row, u_ the superdiagonal entries by basis position.
  std::vector<std::int32_t> prow_, pcol_;
  std::vector<std::int32_t> step_of_row_;  ///< inverse of prow_
  std::vector<double> u_diag_;
  std::vector<Entry> l_entries_, u_entries_;
  std::vector<std::size_t> l_start_, u_start_;  ///< size m+1
  std::vector<Eta> eta_;
  std::vector<Entry> eta_entries_;
  // Solve scratch (sized once in factorize, so ftran/btran never allocate):
  // work_ is step-indexed and kept all-zero between calls via touched_;
  // mark_ dedupes pattern insertion.  Mutable scratch makes the const solves
  // non-reentrant — one BasisLu per solver instance, never shared.
  mutable std::vector<double> work_;
  mutable std::vector<std::int32_t> touched_;
  mutable std::vector<std::uint8_t> mark_;
  // factorize() workspace: the active submatrix (per-position entry lists,
  // row -> position patterns, counts, flags), the singleton queues and the
  // Markowitz candidate list.  Kept across calls so each refactorisation
  // reuses the storage of the last; only factorize() reads it.
  PackedLists<ActiveEntry> active_col_;
  PackedLists<std::int32_t> active_row_cols_;
  std::vector<std::int32_t> active_col_count_, active_row_count_;
  std::vector<std::uint8_t> row_active_, col_active_, gathered_;
  std::vector<std::int32_t> col_single_, row_single_, markowitz_cols_;
  std::vector<std::pair<std::int32_t, double>> pivot_row_, pivot_col_;
};

}  // namespace tsce::lp
