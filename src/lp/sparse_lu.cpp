#include "lp/sparse_lu.hpp"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <numeric>

namespace tsce::lp {
namespace {

/// Relative stability threshold for Markowitz pivoting: a candidate must be
/// at least this fraction of the largest magnitude in its column.  The
/// classic 0.1 compromise keeps growth bounded while leaving the pivot
/// search free to chase sparsity.
constexpr double kMarkowitzThreshold = 0.1;

}  // namespace

bool BasisLu::factorize(const CscMatrix& a, const std::vector<std::int32_t>& basis,
                        double pivot_tol) {
  m_ = basis.size();
  assert(a.rows == m_ && "basis must be square");
  const auto m = static_cast<std::int32_t>(m_);

  prow_.assign(m_, -1);
  pcol_.assign(m_, -1);
  step_of_row_.assign(m_, -1);
  u_diag_.assign(m_, 0.0);
  l_entries_.clear();
  u_entries_.clear();
  l_start_.assign(m_ + 1, 0);
  u_start_.assign(m_ + 1, 0);
  eta_.clear();
  eta_entries_.clear();
  work_.assign(m_, 0.0);
  touched_.clear();
  touched_.reserve(m_);
  mark_.assign(m_, 0);
  if (m_ == 0) return true;

  // Active submatrix: column-major entry lists (fill-in appended, exact
  // cancellations tombstoned) plus a row -> column-position pattern that may
  // carry stale or duplicate columns — every consumer re-validates against
  // the column store, and the per-step `gathered` marks dedupe.  The lists
  // are packed in member pools that are cleared, not freed, so a
  // refactorisation reuses the previous one's storage.
  auto& col = active_col_;
  auto& row_cols = active_row_cols_;
  auto& col_count = active_col_count_;
  auto& row_count = active_row_count_;
  auto& row_active = row_active_;
  auto& col_active = col_active_;
  auto& gathered = gathered_;
  col.reset(m_);
  row_cols.reset(m_);
  col_count.resize(m_);  // filled in below
  row_count.assign(m_, 0);
  row_active.assign(m_, 1);
  col_active.assign(m_, 1);
  gathered.assign(m_, 0);
  // Columns the Markowitz search may still pick, ascending; each search
  // compacts out the ones retired since the last.
  auto& markowitz_cols = markowitz_cols_;
  markowitz_cols.resize(m_);
  std::iota(markowitz_cols.begin(), markowitz_cols.end(), 0);

  for (const std::int32_t j : basis) {
    assert(static_cast<std::size_t>(j) < a.cols);
    for (auto idx = a.col_start[static_cast<std::size_t>(j)];
         idx < a.col_start[static_cast<std::size_t>(j) + 1]; ++idx) {
      ++row_count[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(idx)])];
    }
  }
  for (std::size_t i = 0; i < m_; ++i) {
    row_cols.open(i, static_cast<std::size_t>(row_count[i]) + 4);
  }
  for (std::int32_t p = 0; p < m; ++p) {
    const auto j = static_cast<std::size_t>(basis[static_cast<std::size_t>(p)]);
    const auto begin = static_cast<std::size_t>(a.col_start[j]);
    const auto end = static_cast<std::size_t>(a.col_start[j + 1]);
    col.open(static_cast<std::size_t>(p), end - begin + 4);
    for (std::size_t idx = begin; idx < end; ++idx) {
      const std::int32_t r = a.row_index[idx];
      col.push(static_cast<std::size_t>(p), {r, a.value[idx]});
      row_cols.push(static_cast<std::size_t>(r), p);
    }
    col_count[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(end - begin);
  }

  // Singleton queues, FIFO with lazy validation: stale entries (count moved
  // on, or already pivoted) are skipped on pop.
  auto& col_single = col_single_;
  auto& row_single = row_single_;
  col_single.clear();
  row_single.clear();
  std::size_t col_single_head = 0, row_single_head = 0;
  for (std::int32_t p = 0; p < m; ++p) {
    if (col_count[static_cast<std::size_t>(p)] == 1) col_single.push_back(p);
  }
  for (std::int32_t i = 0; i < m; ++i) {
    if (row_count[static_cast<std::size_t>(i)] == 1) row_single.push_back(i);
  }

  const auto live_value = [&](std::int32_t c, std::int32_t r, bool& found) -> double {
    found = false;
    for (const ActiveEntry& e : col[static_cast<std::size_t>(c)]) {
      if (e.row == r) {
        found = true;
        return e.value;
      }
    }
    return 0.0;
  };

  auto& pivot_row = pivot_row_;  // (col position, value)
  auto& pivot_col = pivot_col_;  // (row, value)

  for (std::size_t k = 0; k < m_; ++k) {
    std::int32_t pi = -1, pj = -1;
    double pd = 0.0;

    // 1. Column singletons: zero fill, no multipliers.
    while (pj < 0 && col_single_head < col_single.size()) {
      const std::int32_t p = col_single[col_single_head++];
      if (!col_active[static_cast<std::size_t>(p)] ||
          col_count[static_cast<std::size_t>(p)] != 1) {
        continue;
      }
      for (const ActiveEntry& e : col[static_cast<std::size_t>(p)]) {
        if (e.row >= 0 && row_active[static_cast<std::size_t>(e.row)]) {
          // The column's only entry: below tolerance the basis is singular —
          // no other row can ever cover this column.
          if (std::abs(e.value) < pivot_tol) return false;
          pi = e.row;
          pj = p;
          pd = e.value;
          break;
        }
      }
    }
    // 2. Row singletons: zero fill, empty U row.
    while (pj < 0 && row_single_head < row_single.size()) {
      const std::int32_t i = row_single[row_single_head++];
      if (!row_active[static_cast<std::size_t>(i)] ||
          row_count[static_cast<std::size_t>(i)] != 1) {
        continue;
      }
      for (const std::int32_t c : row_cols[static_cast<std::size_t>(i)]) {
        if (!col_active[static_cast<std::size_t>(c)]) continue;
        bool found = false;
        const double v = live_value(c, i, found);
        if (!found) continue;  // stale pattern entry
        if (std::abs(v) < pivot_tol) return false;
        pi = i;
        pj = c;
        pd = v;
        break;
      }
    }
    // 3. Markowitz: scan active columns in index order; within a column,
    // candidates must pass the relative threshold; best by
    // (cost, column, row).  Columns whose floor cost (count-1)·1 cannot
    // strictly beat the incumbent are skipped — consistent with the
    // ascending-index tie rule, so the choice stays deterministic.
    if (pj < 0) {
      std::size_t best_cost = static_cast<std::size_t>(-1);
      std::size_t kept = 0;
      for (std::size_t idx = 0; idx < markowitz_cols.size(); ++idx) {
        const std::int32_t p = markowitz_cols[idx];
        if (!col_active[static_cast<std::size_t>(p)]) continue;
        markowitz_cols[kept++] = p;
        const auto cnt = static_cast<std::size_t>(col_count[static_cast<std::size_t>(p)]);
        if (pj >= 0 && cnt - 1 >= best_cost) continue;
        double colmax = 0.0;
        for (const ActiveEntry& e : col[static_cast<std::size_t>(p)]) {
          if (e.row < 0 || !row_active[static_cast<std::size_t>(e.row)]) continue;
          colmax = std::max(colmax, std::abs(e.value));
        }
        const double accept = std::max(pivot_tol, kMarkowitzThreshold * colmax);
        for (const ActiveEntry& e : col[static_cast<std::size_t>(p)]) {
          if (e.row < 0 || !row_active[static_cast<std::size_t>(e.row)]) continue;
          if (std::abs(e.value) < accept) continue;
          const auto rc = static_cast<std::size_t>(
              row_count[static_cast<std::size_t>(e.row)]);
          const std::size_t cost = (rc - 1) * (cnt - 1);
          if (pj < 0 || cost < best_cost ||
              (cost == best_cost && e.row < pi)) {
            best_cost = cost;
            pi = e.row;
            pj = p;
            pd = e.value;
          }
        }
      }
      markowitz_cols.resize(kept);
      if (pj < 0) return false;  // no admissible pivot: singular
    }

    // Gather the pivot row (future U row k) and pivot column (future L
    // column k); `gathered` dedupes stale duplicates in row_cols.
    pivot_row.clear();
    for (const std::int32_t c : row_cols[static_cast<std::size_t>(pi)]) {
      if (c == pj || !col_active[static_cast<std::size_t>(c)]) continue;
      if (gathered[static_cast<std::size_t>(c)]) continue;
      bool found = false;
      const double v = live_value(c, pi, found);
      if (!found) continue;
      gathered[static_cast<std::size_t>(c)] = 1;
      pivot_row.emplace_back(c, v);
    }
    for (const auto& rc : pivot_row) gathered[static_cast<std::size_t>(rc.first)] = 0;
    pivot_col.clear();
    for (const ActiveEntry& e : col[static_cast<std::size_t>(pj)]) {
      if (e.row < 0 || e.row == pi || !row_active[static_cast<std::size_t>(e.row)]) {
        continue;
      }
      pivot_col.emplace_back(e.row, e.value);
    }

    // Record factors.
    prow_[k] = pi;
    pcol_[k] = pj;
    u_diag_[k] = pd;
    for (const auto& [c, v] : pivot_row) u_entries_.push_back({c, v});
    u_start_[k + 1] = u_entries_.size();
    for (const auto& [r, v] : pivot_col) l_entries_.push_back({r, v / pd});
    l_start_[k + 1] = l_entries_.size();

    // Rank-1 update of the active submatrix.
    for (const auto& [r, vr] : pivot_col) {
      const double mult = vr / pd;
      for (const auto& [c, vc] : pivot_row) {
        ActiveEntry* hit = nullptr;
        for (ActiveEntry& e : col[static_cast<std::size_t>(c)]) {
          if (e.row == r) {
            hit = &e;
            break;
          }
        }
        if (hit != nullptr) {
          hit->value -= mult * vc;
          if (hit->value == 0.0) {  // exact cancellation: drop the entry
            hit->row = -1;
            if (--col_count[static_cast<std::size_t>(c)] == 1) col_single.push_back(c);
            if (--row_count[static_cast<std::size_t>(r)] == 1) row_single.push_back(r);
          }
        } else {
          col.push(static_cast<std::size_t>(c), {r, -mult * vc});
          row_cols.push(static_cast<std::size_t>(r), c);
          ++col_count[static_cast<std::size_t>(c)];
          ++row_count[static_cast<std::size_t>(r)];
        }
      }
    }

    // Retire the pivot row/column and fix up neighbour counts.
    row_active[static_cast<std::size_t>(pi)] = 0;
    col_active[static_cast<std::size_t>(pj)] = 0;
    for (const auto& rv : pivot_col) {
      if (--row_count[static_cast<std::size_t>(rv.first)] == 1) {
        row_single.push_back(rv.first);
      }
    }
    for (const auto& cv : pivot_row) {
      if (--col_count[static_cast<std::size_t>(cv.first)] == 1) {
        col_single.push_back(cv.first);
      }
    }
  }

  for (std::size_t k = 0; k < m_; ++k) {
    step_of_row_[static_cast<std::size_t>(prow_[k])] = static_cast<std::int32_t>(k);
  }
  return true;
}

TSCE_HOT void BasisLu::ftran(IndexedVector& v) const {
  const std::size_t m = m_;
  if (m == 0) return;

  // 1. Apply the elimination operations (L^-1) in step order, in row space.
  // The pivot row's value is final once its step is reached, so zero pivot
  // values skip the whole step — this is where rhs sparsity pays.
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 1;
  for (std::size_t k = 0; k < m; ++k) {
    const double t = v.values[static_cast<std::size_t>(prow_[k])];
    if (t == 0.0) continue;
    for (std::size_t e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      const auto r = static_cast<std::size_t>(l_entries_[e].index);
      if (!mark_[r]) {
        mark_[r] = 1;
        v.note(l_entries_[e].index);
      }
      v.values[r] -= l_entries_[e].value * t;
    }
  }

  // Gather into step-indexed scratch; release v for the position-space result.
  touched_.clear();
  for (const std::int32_t i : v.pattern) {
    const auto u = static_cast<std::size_t>(i);
    mark_[u] = 0;
    if (v.values[u] != 0.0) {
      const std::int32_t k = step_of_row_[u];
      work_[static_cast<std::size_t>(k)] = v.values[u];
      touched_.push_back(k);
    }
  }
  v.clear();

  // 2. Back substitution through U in reverse step order.  Cost is bounded
  // by O(m + nnz(U)) — the per-step scan is what propagates fill, so unlike
  // the L pass it cannot skip on a zero pivot value alone.
  for (std::size_t k = m; k-- > 0;) {
    double t = work_[k];
    for (std::size_t e = u_start_[k]; e < u_start_[k + 1]; ++e) {
      const double xc = v.values[static_cast<std::size_t>(u_entries_[e].index)];
      if (xc != 0.0) t -= u_entries_[e].value * xc;
    }
    if (t != 0.0) {
      v.values[static_cast<std::size_t>(pcol_[k])] = t / u_diag_[k];
      v.note(pcol_[k]);
    }
  }
  for (const std::int32_t k : touched_) work_[static_cast<std::size_t>(k)] = 0.0;
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 1;

  // 3. Eta file, oldest first: x_r /= w_r, then x_i -= w_i * x_r.
  for (const Eta& eta : eta_) {
    const auto r = static_cast<std::size_t>(eta.pivot_pos);
    const double xr = v.values[r];
    if (xr == 0.0) continue;
    const double scaled = xr / eta.pivot_value;
    v.values[r] = scaled;
    for (std::size_t e = eta.start; e < eta.end; ++e) {
      const auto i = static_cast<std::size_t>(eta_entries_[e].index);
      if (!mark_[i]) {
        mark_[i] = 1;
        v.note(eta_entries_[e].index);
      }
      v.values[i] -= eta_entries_[e].value * scaled;
    }
  }
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 0;
}

TSCE_HOT void BasisLu::btran(IndexedVector& v) const {
  const std::size_t m = m_;
  if (m == 0) return;

  // 1. Eta file transposed, newest first: only component r changes,
  // v_r = (v_r - Σ_{i≠r} w_i v_i) / w_r.
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 1;
  for (std::size_t q = eta_.size(); q-- > 0;) {
    const Eta& eta = eta_[q];
    const auto r = static_cast<std::size_t>(eta.pivot_pos);
    double t = v.values[r];
    for (std::size_t e = eta.start; e < eta.end; ++e) {
      const double vi = v.values[static_cast<std::size_t>(eta_entries_[e].index)];
      if (vi != 0.0) t -= eta_entries_[e].value * vi;
    }
    t /= eta.pivot_value;
    if (t != 0.0 && !mark_[r]) {
      mark_[r] = 1;
      v.note(eta.pivot_pos);
    }
    v.values[r] = t;
  }

  // 2. Forward substitution through U^T in step order (row-access form):
  // z_k = b̂_{j_k} / d_k, then scatter −u_{k,c}·z_k into b̂.
  touched_.clear();
  for (std::size_t k = 0; k < m; ++k) {
    const double t = v.values[static_cast<std::size_t>(pcol_[k])];
    if (t == 0.0) continue;
    const double z = t / u_diag_[k];
    work_[k] = z;
    touched_.push_back(static_cast<std::int32_t>(k));
    for (std::size_t e = u_start_[k]; e < u_start_[k + 1]; ++e) {
      const auto c = static_cast<std::size_t>(u_entries_[e].index);
      if (!mark_[c]) {
        mark_[c] = 1;
        v.note(u_entries_[e].index);
      }
      v.values[c] -= u_entries_[e].value * z;
    }
  }
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 0;
  v.clear();

  // 3. Apply the transposed eliminations in reverse step order, into row
  // space: w_{i_k} = z_k − Σ multipliers·w_r (rows r pivoted later, already
  // final).  prow_ is a permutation, so each index is written once.
  for (std::size_t k = m; k-- > 0;) {
    double t = work_[k];
    for (std::size_t e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      const double wr = v.values[static_cast<std::size_t>(l_entries_[e].index)];
      if (wr != 0.0) t -= l_entries_[e].value * wr;
    }
    if (t != 0.0) {
      v.values[static_cast<std::size_t>(prow_[k])] = t;
      v.note(prow_[k]);
    }
  }
  for (const std::int32_t k : touched_) work_[static_cast<std::size_t>(k)] = 0.0;
}

bool BasisLu::push_eta(const IndexedVector& w, std::size_t leave_pos,
                       double pivot_tol) {
  const double wr = w.values[leave_pos];
  if (std::abs(wr) < pivot_tol) return false;
  const std::size_t start = eta_entries_.size();
  for (const std::int32_t i : w.pattern) {
    if (static_cast<std::size_t>(i) == leave_pos) continue;
    const double v = w.values[static_cast<std::size_t>(i)];
    if (v != 0.0) eta_entries_.push_back({i, v});
  }
  eta_.push_back({start, eta_entries_.size(),
                  static_cast<std::int32_t>(leave_pos), wr});
  return true;
}

}  // namespace tsce::lp
