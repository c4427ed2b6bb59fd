#include "lp/sparse_lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace tsce::lp {
namespace {

/// Dense column-major view of the basis matrix B whose position-p column is
/// column basis[p] of A, for brute-force reference solves.
std::vector<double> dense_basis(const CscMatrix& a,
                                const std::vector<std::int32_t>& basis) {
  const std::size_t m = basis.size();
  std::vector<double> b(m * m, 0.0);
  for (std::size_t p = 0; p < m; ++p) {
    const auto c = static_cast<std::size_t>(basis[p]);
    for (auto e = a.col_start[c]; e < a.col_start[c + 1]; ++e) {
      b[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(e)]) * m + p] =
          a.value[static_cast<std::size_t>(e)];
    }
  }
  return b;
}

/// Gaussian elimination with partial pivoting on a dense column-major matrix.
/// Solves M x = rhs; returns false on singular.
bool dense_solve(std::vector<double> mat, std::vector<double>& rhs) {
  const std::size_t m = rhs.size();
  std::vector<std::size_t> perm(m);
  for (std::size_t i = 0; i < m; ++i) perm[i] = i;
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < m; ++r) {
      if (std::abs(mat[perm[r] * m + k]) > std::abs(mat[perm[piv] * m + k])) piv = r;
    }
    std::swap(perm[k], perm[piv]);
    const double d = mat[perm[k] * m + k];
    if (std::abs(d) < 1e-12) return false;
    for (std::size_t r = k + 1; r < m; ++r) {
      const double f = mat[perm[r] * m + k] / d;
      if (f == 0.0) continue;
      for (std::size_t c = k; c < m; ++c) mat[perm[r] * m + c] -= f * mat[perm[k] * m + c];
      rhs[perm[r]] -= f * rhs[perm[k]];
    }
  }
  std::vector<double> x(m);
  for (std::size_t k = m; k-- > 0;) {
    double v = rhs[perm[k]];
    for (std::size_t c = k + 1; c < m; ++c) v -= mat[perm[k] * m + c] * x[c];
    x[k] = v / mat[perm[k] * m + k];
  }
  rhs = std::move(x);
  return true;
}

std::vector<double> to_dense(const IndexedVector& v) { return v.values; }

void load(IndexedVector& v, const std::vector<double>& dense) {
  v.resize(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) v.add(static_cast<std::int32_t>(i), dense[i]);
  }
}

TEST(BasisLu, IdentityBasisIsIdentitySolve) {
  // A = [I]; basis = all columns: ftran/btran must return the input.
  const std::size_t m = 5;
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i) {
    t.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(i), 1.0});
  }
  const CscMatrix a = CscMatrix::from_triplets(m, m, t);
  std::vector<std::int32_t> basis = {0, 1, 2, 3, 4};
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis, 1e-9));
  EXPECT_EQ(lu.dimension(), m);
  EXPECT_EQ(lu.eta_count(), 0u);

  IndexedVector v;
  load(v, {0.0, 2.0, 0.0, -3.0, 0.5});
  lu.ftran(v);
  EXPECT_NEAR(v.values[1], 2.0, 1e-12);
  EXPECT_NEAR(v.values[3], -3.0, 1e-12);
  EXPECT_NEAR(v.values[4], 0.5, 1e-12);
  lu.btran(v);
  EXPECT_NEAR(v.values[1], 2.0, 1e-12);
}

TEST(BasisLu, SingularBasisRejected) {
  // Two identical columns.
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 1.0}, {1, 1, 2.0}};
  const CscMatrix a = CscMatrix::from_triplets(2, 2, t);
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, {0, 1}, 1e-9));
}

TEST(BasisLu, PatternCoversAllNonzeros) {
  // The sparse solve may list exact-zero cancellations in the pattern, but
  // every nonzero of the result must be listed.
  std::vector<Triplet> t = {{0, 0, 2.0}, {1, 0, 1.0}, {1, 1, 3.0}, {2, 2, 1.0},
                            {0, 2, 5.0}};
  const CscMatrix a = CscMatrix::from_triplets(3, 3, t);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}, 1e-9));
  IndexedVector v;
  load(v, {2.0, 1.0, 0.0});
  lu.ftran(v);
  std::vector<bool> listed(3, false);
  for (const std::int32_t i : v.pattern) listed[static_cast<std::size_t>(i)] = true;
  for (std::size_t i = 0; i < 3; ++i) {
    if (v.values[i] != 0.0) {
      EXPECT_TRUE(listed[i]) << "missing pattern index " << i;
    }
  }
}

/// Random sparse bases: ftran/btran must agree with a dense reference solve.
class BasisLuRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BasisLuRandom, FtranBtranMatchDenseReference) {
  util::Rng rng(GetParam());
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 24));
  // Diagonally-dominated random matrix: always nonsingular.
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i) {
    t.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(i),
                 rng.uniform(2.0, 4.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0)});
  }
  const std::size_t extras = m * 2;
  for (std::size_t e = 0; e < extras; ++e) {
    const auto r = static_cast<std::int32_t>(rng.bounded(m));
    const auto c = static_cast<std::int32_t>(rng.bounded(m));
    if (r == c) continue;
    t.push_back({r, c, rng.uniform(-1.0, 1.0)});
  }
  const CscMatrix a = CscMatrix::from_triplets(m, m, t);
  std::vector<std::int32_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = static_cast<std::int32_t>(i);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis, 1e-9));

  const std::vector<double> bmat = dense_basis(a, basis);
  std::vector<double> rhs(m, 0.0);
  const std::size_t nnz_rhs = 1 + rng.bounded(m);
  for (std::size_t k = 0; k < nnz_rhs; ++k) rhs[rng.bounded(m)] = rng.uniform(-2.0, 2.0);

  {
    IndexedVector v;
    load(v, rhs);
    lu.ftran(v);
    std::vector<double> ref = rhs;
    ASSERT_TRUE(dense_solve(bmat, ref));
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(to_dense(v)[i], ref[i], 1e-8) << "ftran pos " << i;
    }
  }
  {
    // Transpose reference: solve B^T x = rhs.
    std::vector<double> bt(m * m);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) bt[r * m + c] = bmat[c * m + r];
    }
    IndexedVector v;
    load(v, rhs);
    lu.btran(v);
    std::vector<double> ref = rhs;
    ASSERT_TRUE(dense_solve(bt, ref));
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(to_dense(v)[i], ref[i], 1e-8) << "btran row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BasisLuRandom,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(BasisLu, EtaUpdateMatchesRefactorisation) {
  // Replace one basis column via push_eta; the updated solves must agree
  // with a fresh factorisation of the new basis.
  util::Rng rng(7);
  const std::size_t m = 8;
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i) {
    t.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(i),
                 rng.uniform(2.0, 4.0)});
  }
  for (std::size_t e = 0; e < 2 * m; ++e) {
    const auto r = static_cast<std::int32_t>(rng.bounded(m));
    const auto c = static_cast<std::int32_t>(rng.bounded(m));
    if (r != c) t.push_back({r, c, rng.uniform(-1.0, 1.0)});
  }
  // One extra column (index m) to pivot in.
  t.push_back({0, static_cast<std::int32_t>(m), 1.5});
  t.push_back({3, static_cast<std::int32_t>(m), -2.0});
  t.push_back({6, static_cast<std::int32_t>(m), 0.75});
  const CscMatrix a = CscMatrix::from_triplets(m, m + 1, t);

  std::vector<std::int32_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = static_cast<std::int32_t>(i);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis, 1e-9));

  // Spike w = B^-1 A_m, entering at position 2.
  IndexedVector w;
  w.resize(m);
  for (auto e = a.col_start[m]; e < a.col_start[m + 1]; ++e) {
    w.add(a.row_index[static_cast<std::size_t>(e)], a.value[static_cast<std::size_t>(e)]);
  }
  lu.ftran(w);
  ASSERT_TRUE(lu.push_eta(w, 2, 1e-9));
  EXPECT_EQ(lu.eta_count(), 1u);

  std::vector<std::int32_t> new_basis = basis;
  new_basis[2] = static_cast<std::int32_t>(m);
  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(a, new_basis, 1e-9));

  std::vector<double> rhs(m, 0.0);
  rhs[1] = 1.0;
  rhs[5] = -2.5;
  IndexedVector via_eta, via_fresh;
  load(via_eta, rhs);
  load(via_fresh, rhs);
  lu.ftran(via_eta);
  fresh.ftran(via_fresh);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(via_eta.values[i], via_fresh.values[i], 1e-8) << "ftran pos " << i;
  }
  load(via_eta, rhs);
  load(via_fresh, rhs);
  lu.btran(via_eta);
  fresh.btran(via_fresh);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(via_eta.values[i], via_fresh.values[i], 1e-8) << "btran row " << i;
  }
}

/// m x m diagonally dominated matrix with \p per_col random off-diagonal
/// entries per column: nonsingular, and with few enough singletons that the
/// Markowitz search does most of the elimination.
CscMatrix random_square(util::Rng& rng, std::size_t m, std::size_t per_col) {
  std::vector<Triplet> t;
  for (std::size_t c = 0; c < m; ++c) {
    t.push_back({static_cast<std::int32_t>(c), static_cast<std::int32_t>(c),
                 rng.uniform(4.0, 8.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0)});
    for (std::size_t e = 0; e < per_col; ++e) {
      const auto r = static_cast<std::int32_t>(rng.bounded(m));
      if (r != static_cast<std::int32_t>(c)) {
        t.push_back({r, static_cast<std::int32_t>(c), rng.uniform(-1.0, 1.0)});
      }
    }
  }
  return CscMatrix::from_triplets(m, m, t);
}

std::vector<std::int32_t> all_columns(std::size_t m) {
  std::vector<std::int32_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = static_cast<std::int32_t>(i);
  return basis;
}

/// FTRAN and BTRAN of fixed right-hand sides give bit-identical values and
/// patterns through \p reused and \p fresh.
void expect_identical_solves(const BasisLu& reused, const BasisLu& fresh) {
  const std::size_t m = fresh.dimension();
  ASSERT_EQ(reused.dimension(), m);
  EXPECT_EQ(reused.factor_nonzeros(), fresh.factor_nonzeros());
  std::vector<std::vector<double>> rhs(2, std::vector<double>(m, 0.0));
  rhs[0][m / 2] = 1.0;
  for (std::size_t i = 0; i < m; i += 3) rhs[1][i] = (i % 2 == 0 ? 0.37 : -1.9) * (1.0 + i);
  for (const auto& b : rhs) {
    IndexedVector x, y;
    load(x, b);
    load(y, b);
    reused.ftran(x);
    fresh.ftran(y);
    EXPECT_EQ(x.values, y.values);
    EXPECT_EQ(x.pattern, y.pattern);
    load(x, b);
    load(y, b);
    reused.btran(x);
    fresh.btran(y);
    EXPECT_EQ(x.values, y.values);
    EXPECT_EQ(x.pattern, y.pattern);
  }
}

TEST(BasisLu, ReusedWorkspaceMatchesFreshFactor) {
  // One BasisLu refactorises a large basis, a smaller one, then a different
  // one of the first size; each factor must equal a fresh instance's.
  util::Rng rng(11);
  const CscMatrix large = random_square(rng, 120, 3);
  const CscMatrix small = random_square(rng, 30, 4);
  const CscMatrix other = random_square(rng, 120, 2);
  BasisLu lu;
  for (const CscMatrix* a : {&large, &small, &other}) {
    const std::vector<std::int32_t> basis = all_columns(a->rows);
    ASSERT_TRUE(lu.factorize(*a, basis, 1e-9));
    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(*a, basis, 1e-9));
    expect_identical_solves(lu, fresh);
  }
}

TEST(BasisLu, ReusedWorkspaceRejectsSingularThenRecovers) {
  util::Rng rng(12);
  const CscMatrix good = random_square(rng, 80, 3);
  const CscMatrix other = random_square(rng, 80, 3);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(good, all_columns(80), 1e-9));
  // The same column at two basis positions: singular however it is pivoted.
  std::vector<std::int32_t> singular = all_columns(80);
  singular[70] = singular[10];
  EXPECT_FALSE(lu.factorize(good, singular, 1e-9));
  // The workspace a failed factorisation left behind must not leak into
  // the next one.
  ASSERT_TRUE(lu.factorize(other, all_columns(80), 1e-9));
  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(other, all_columns(80), 1e-9));
  expect_identical_solves(lu, fresh);
}

TEST(BasisLu, PushEtaRejectsTinyPivot) {
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 1, 1.0}};
  const CscMatrix a = CscMatrix::from_triplets(2, 2, t);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1}, 1e-9));
  IndexedVector w;
  w.resize(2);
  w.add(0, 1.0);
  w.add(1, 1e-14);  // pivot position 1 below tolerance
  EXPECT_FALSE(lu.push_eta(w, 1, 1e-9));
  EXPECT_EQ(lu.eta_count(), 0u);  // not appended
}

}  // namespace
}  // namespace tsce::lp
