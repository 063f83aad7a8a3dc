// Multigrid tests: transfer-operator identities, Galerkin consistency,
// coarse-operator properties (gamma5-Hermiticity, Schur equivalence),
// recursive coarsening, and end-to-end K-cycle convergence.

#include <gtest/gtest.h>

#include "dirac/clover.h"
#include "dirac/wilson.h"
#include "fields/blas.h"
#include "gauge/ensemble.h"
#include "mg/galerkin.h"
#include "mg/multigrid.h"
#include "mg/nullspace.h"
#include "mg/stencil.h"
#include "mg/transfer.h"
#include "solvers/bicgstab.h"
#include "solvers/block_gcr.h"
#include "solvers/gcr.h"

namespace qmg {
namespace {

/// MG-preconditioned GCR on a single rhs: a block of one through the block
/// solver, the solution copied out into x.
SolverResult mg_gcr(const LinearOperator<double>& op,
                    const SolverParams& params,
                    BlockPreconditioner<double>& precond,
                    ColorSpinorField<double>& x,
                    const ColorSpinorField<double>& b) {
  const auto b_block = pack_block(std::vector{b});
  auto x_block = b_block.similar();
  const auto res =
      BlockGcrSolver<double>(op, params, &precond).solve(x_block, b_block);
  x_block.extract_rhs(x, 0);
  return res.rhs.front();
}

struct MgFixture {
  GeometryPtr geom;
  GaugeField<double> gauge;
  CloverField<double> clover;
  std::unique_ptr<WilsonCloverOp<double>> op;
  std::shared_ptr<const BlockMap> map;
  std::unique_ptr<Transfer<double>> transfer;

  explicit MgFixture(int nvec = 4, double mass = 0.1, double roughness = 0.4,
                     Coord dims = {4, 4, 4, 4}, Coord block = {2, 2, 2, 2})
      : geom(make_geometry(dims)),
        gauge(disordered_gauge<double>(geom, roughness, 71)),
        clover(build_clover_with_inverse(gauge, 1.0, mass)) {
    op = std::make_unique<WilsonCloverOp<double>>(
        gauge, WilsonParams<double>{.mass = mass, .csw = 1.0}, &clover);
    NullSpaceParams ns;
    ns.nvec = nvec;
    ns.iters = 30;
    auto vecs = generate_null_vectors(*op, ns);
    map = std::make_shared<const BlockMap>(geom, block);
    transfer = std::make_unique<Transfer<double>>(map, 4, 3, nvec);
    transfer->set_null_vectors(vecs);
  }
};

TEST(Transfer, RestrictorIsAdjointOfProlongator) {
  MgFixture f;
  auto coarse = f.transfer->create_coarse_vector();
  auto fine = f.transfer->create_fine_vector();
  coarse.gaussian(1);
  fine.gaussian(2);
  auto p_coarse = f.transfer->create_fine_vector();
  f.transfer->prolongate(p_coarse, coarse);
  auto r_fine = f.transfer->create_coarse_vector();
  f.transfer->restrict_to_coarse(r_fine, fine);
  // <fine, P coarse> == <P^dag fine, coarse>.
  const complexd a = blas::cdot(fine, p_coarse);
  const complexd b = blas::cdot(r_fine, coarse);
  EXPECT_NEAR(a.re, b.re, 1e-9);
  EXPECT_NEAR(a.im, b.im, 1e-9);
}

TEST(Transfer, ProlongatorIsIsometry) {
  // After block orthonormalization, P^dag P = identity on the coarse space.
  MgFixture f;
  auto coarse = f.transfer->create_coarse_vector();
  coarse.gaussian(3);
  auto fine = f.transfer->create_fine_vector();
  f.transfer->prolongate(fine, coarse);
  auto back = f.transfer->create_coarse_vector();
  f.transfer->restrict_to_coarse(back, fine);
  blas::axpy(-1.0, coarse, back);
  EXPECT_LT(std::sqrt(blas::norm2(back) / blas::norm2(coarse)), 1e-11);
  // Norm preservation: |P v| = |v|.
  EXPECT_NEAR(blas::norm2(fine), blas::norm2(coarse),
              1e-10 * blas::norm2(coarse));
}

TEST(Transfer, ChiralityIsPreserved) {
  // Prolongating a coarse vector supported on spin 0 (positive chirality)
  // must produce a fine vector supported on spins 0,1 only.
  MgFixture f;
  auto coarse = f.transfer->create_coarse_vector();
  for (long i = 0; i < coarse.nsites(); ++i)
    for (int k = 0; k < coarse.ncolor(); ++k)
      coarse(i, 0, k) = complexd(1.0, -0.5);
  auto fine = f.transfer->create_fine_vector();
  f.transfer->prolongate(fine, coarse);
  double lower = 0;
  for (long i = 0; i < fine.nsites(); ++i)
    for (int s = 2; s < 4; ++s)
      for (int c = 0; c < 3; ++c) lower += norm2(fine(i, s, c));
  EXPECT_EQ(lower, 0.0);
}

TEST(Galerkin, CoarseOperatorMatchesTripleProduct) {
  // The fundamental consistency check: Mhat v = P^dag M P v for random v.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);

  auto v = f.transfer->create_coarse_vector();
  v.gaussian(5);
  // Direct coarse apply.
  auto mv = coarse.create_vector();
  coarse.apply(mv, v);
  // Triple product.
  auto pv = f.transfer->create_fine_vector();
  f.transfer->prolongate(pv, v);
  auto mpv = f.op->create_vector();
  f.op->apply(mpv, pv);
  auto rmpv = f.transfer->create_coarse_vector();
  f.transfer->restrict_to_coarse(rmpv, mpv);

  blas::axpy(-1.0, mv, rmpv);
  EXPECT_LT(std::sqrt(blas::norm2(rmpv) / blas::norm2(mv)), 1e-10);
}

TEST(Galerkin, MixedPrecisionCoarseApplyEquivalence) {
  // Strategy (c): float coarse-link storage with double accumulation must
  // equal the all-double apply on float-truncated links bit-for-bit, and
  // sit within float truncation of the native double apply.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> native = build_coarse_operator(view, *f.transfer);
  const CoarseDirac<double> mixed =
      build_coarse_operator(view, *f.transfer, CoarseStorage::Single);
  const CoarseDirac<double> truncated =
      convert_coarse<double>(convert_coarse<float>(native));

  auto v = native.create_vector();
  v.gaussian(55);
  auto y_native = native.create_vector();
  auto y_mixed = native.create_vector();
  auto y_trunc = native.create_vector();
  const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
  native.apply_with_config(y_native, v, config);
  mixed.apply_with_config(y_mixed, v, config);
  truncated.apply_with_config(y_trunc, v, config);

  for (long k = 0; k < y_mixed.size(); ++k) {
    ASSERT_EQ(y_mixed.data()[k].re, y_trunc.data()[k].re) << k;
    ASSERT_EQ(y_mixed.data()[k].im, y_trunc.data()[k].im) << k;
  }
  blas::axpy(-1.0, y_native, y_mixed);
  const double gap =
      std::sqrt(blas::norm2(y_mixed) / blas::norm2(y_native));
  EXPECT_GT(gap, 0.0);   // the truncation is real...
  EXPECT_LT(gap, 1e-6);  // ...and float-sized
}

TEST(Galerkin, CoarseGamma5Hermiticity) {
  // Coarse gamma5 = diag(+1, -1) over coarse spin; Mhat must satisfy
  // <u, Mhat v> = <Gamma5 Mhat Gamma5 u, v>, inherited from the fine grid.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);

  auto u = coarse.create_vector();
  auto v = coarse.create_vector();
  u.gaussian(6);
  v.gaussian(7);
  auto mv = coarse.create_vector();
  auto mdag_u = coarse.create_vector();
  coarse.apply(mv, v);
  coarse.apply_dagger(mdag_u, u);
  const complexd a = blas::cdot(u, mv);
  const complexd b = blas::cdot(mdag_u, v);
  EXPECT_NEAR(a.re, b.re, 1e-8 * std::abs(a.re) + 1e-9);
  EXPECT_NEAR(a.im, b.im, 1e-8 * std::abs(a.im) + 1e-9);
}

TEST(Galerkin, BackwardLinksAreGamma5ConjugateOfForward) {
  // Structure property below Eq. 3: Ybwd_mu(x) = Gamma5 Yfwd_mu(x-mu)^dag
  // Gamma5 with Gamma5 = diag(1, -1) in coarse spin.
  MgFixture f;
  const WilsonStencilView<double> view(*f.op);
  const CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);
  const auto& cgeom = *coarse.geometry();
  const int n = coarse.block_dim();
  const int nc = coarse.ncolor();

  for (long x = 0; x < cgeom.volume(); ++x)
    for (int mu = 0; mu < 4; ++mu) {
      const long xm = cgeom.neighbor_bwd(x, mu);
      const Complex<double>* bwd = coarse.link_data(x, 2 * mu + 1);
      const Complex<double>* fwd = coarse.link_data(xm, 2 * mu);
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
          const double sign = ((r / nc) + (c / nc)) % 2 == 0 ? 1.0 : -1.0;
          const complexd expect = sign * conj(fwd[c * n + r]);
          const complexd got = bwd[r * n + c];
          ASSERT_NEAR(got.re, expect.re, 1e-10);
          ASSERT_NEAR(got.im, expect.im, 1e-10);
        }
    }
}

TEST(CoarseOp, SchurMatchesFullCoarseSolve) {
  MgFixture f(4, 0.2);
  const WilsonStencilView<double> view(*f.op);
  CoarseDirac<double> coarse = build_coarse_operator(view, *f.transfer);
  coarse.compute_diag_inverse();
  SchurCoarseOp<double> schur(coarse);

  auto b = coarse.create_vector();
  b.gaussian(8);
  SolverParams params;
  params.tol = 1e-10;
  params.max_iter = 2000;
  params.restart = 20;

  auto x_full = coarse.create_vector();
  const auto res_full = GcrSolver<double>(coarse, params).solve(x_full, b);
  ASSERT_TRUE(res_full.converged);

  auto b_hat = schur.create_vector();
  schur.prepare(b_hat, b);
  auto x_even = schur.create_vector();
  const auto res_schur =
      GcrSolver<double>(schur, params).solve(x_even, b_hat);
  ASSERT_TRUE(res_schur.converged);
  auto x_rec = coarse.create_vector();
  schur.reconstruct(x_rec, x_even, b);

  blas::axpy(-1.0, x_full, x_rec);
  EXPECT_LT(std::sqrt(blas::norm2(x_rec) / blas::norm2(x_full)), 1e-7);
}

TEST(CoarseOp, RecursiveCoarseningIsConsistent) {
  // Coarsen the coarse operator once more (3-level structure) and check the
  // Galerkin identity at the second level.
  MgFixture f(4, 0.2, 0.4, Coord{8, 4, 4, 4}, Coord{2, 2, 2, 2});
  const WilsonStencilView<double> view(*f.op);
  CoarseDirac<double> level2 = build_coarse_operator(view, *f.transfer);

  NullSpaceParams ns;
  ns.nvec = 3;
  ns.iters = 20;
  auto vecs2 = generate_null_vectors(level2, ns);
  auto map2 =
      std::make_shared<const BlockMap>(level2.geometry(), Coord{2, 2, 2, 2});
  Transfer<double> transfer2(map2, 2, level2.ncolor(), 3);
  transfer2.set_null_vectors(vecs2);

  const CoarseStencilView<double> view2(level2);
  const CoarseDirac<double> level3 = build_coarse_operator(view2, transfer2);
  EXPECT_EQ(level3.geometry()->volume(), 2);
  EXPECT_EQ(level3.ncolor(), 3);

  auto v = transfer2.create_coarse_vector();
  v.gaussian(9);
  auto mv = level3.create_vector();
  level3.apply(mv, v);
  auto pv = transfer2.create_fine_vector();
  transfer2.prolongate(pv, v);
  auto mpv = level2.create_vector();
  level2.apply(mpv, pv);
  auto rmpv = transfer2.create_coarse_vector();
  transfer2.restrict_to_coarse(rmpv, mpv);
  blas::axpy(-1.0, mv, rmpv);
  EXPECT_LT(std::sqrt(blas::norm2(rmpv) / blas::norm2(mv)), 1e-10);
}

TEST(Multigrid, TwoLevelKCycleConverges) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 81);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.05);
  WilsonCloverOp<double> op(gauge, {.mass = 0.05, .csw = 1.0}, &clover);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 6;
  lvl.null_iters = 50;
  config.levels = {lvl};
  const Multigrid<double> mg(op, config);
  EXPECT_EQ(mg.num_levels(), 2);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(99);
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 200;
  params.restart = 10;

  MgBlockPreconditioner<double> precond(mg);
  auto x = op.create_vector();
  const auto res = mg_gcr(op, params, precond, x, b);
  ASSERT_TRUE(res.converged);

  auto r = op.create_vector();
  op.apply(r, x);
  blas::xpay(b, -1.0, r);
  EXPECT_LT(std::sqrt(blas::norm2(r) / blas::norm2(b)), 5e-8);
}

TEST(Multigrid, MgBeatsUnpreconditionedGcr) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.5, 83);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.02);
  WilsonCloverOp<double> op(gauge, {.mass = 0.02, .csw = 1.0}, &clover);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 8;
  lvl.null_iters = 60;
  config.levels = {lvl};
  const Multigrid<double> mg(op, config);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(101);
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 3000;
  params.restart = 10;

  auto x_plain = op.create_vector();
  const auto res_plain = GcrSolver<double>(op, params).solve(x_plain, b);

  MgBlockPreconditioner<double> precond(mg);
  params.max_iter = 200;
  auto x_mg = op.create_vector();
  const auto res_mg = mg_gcr(op, params, precond, x_mg, b);

  ASSERT_TRUE(res_plain.converged);
  ASSERT_TRUE(res_mg.converged);
  EXPECT_LT(res_mg.iterations, res_plain.iterations / 2);
}

TEST(Multigrid, ThreeLevelHierarchyConverges) {
  auto geom = make_geometry(Coord{8, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 85);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.05);
  WilsonCloverOp<double> op(gauge, {.mass = 0.05, .csw = 1.0}, &clover);

  MgConfig config;
  MgLevelConfig l1;
  l1.block = {2, 2, 2, 2};
  l1.nvec = 6;
  l1.null_iters = 40;
  MgLevelConfig l2;
  l2.block = {2, 2, 2, 2};
  l2.nvec = 4;
  l2.null_iters = 30;
  config.levels = {l1, l2};
  const Multigrid<double> mg(op, config);
  EXPECT_EQ(mg.num_levels(), 3);
  EXPECT_EQ(mg.coarse_op(1).geometry()->volume(), 2);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(103);
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 200;
  params.restart = 10;
  MgBlockPreconditioner<double> precond(mg);
  auto x = op.create_vector();
  const auto res = mg_gcr(op, params, precond, x, b);
  ASSERT_TRUE(res.converged);
}

TEST(Multigrid, VCycleAlsoConverges) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 87);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.1);
  WilsonCloverOp<double> op(gauge, {.mass = 0.1, .csw = 1.0}, &clover);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 6;
  lvl.null_iters = 40;
  config.levels = {lvl};
  config.cycle = CycleType::VCycle;
  const Multigrid<double> mg(op, config);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(105);
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 400;
  params.restart = 10;
  MgBlockPreconditioner<double> precond(mg);
  auto x = op.create_vector();
  const auto res = mg_gcr(op, params, precond, x, b);
  ASSERT_TRUE(res.converged);
}

TEST(Multigrid, MixedPrecisionPreconditionerConverges) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 89);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.1);
  WilsonCloverOp<double> op(gauge, {.mass = 0.1, .csw = 1.0}, &clover);

  // Single-precision hierarchy inside a double outer GCR (paper layout).
  const auto gauge_f = convert_gauge<float>(gauge);
  const auto clover_f = convert_clover<float>(clover);
  WilsonCloverOp<float> op_f(gauge_f, {.mass = 0.1f, .csw = 1.0f}, &clover_f);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 6;
  lvl.null_iters = 40;
  config.levels = {lvl};
  const Multigrid<float> mg(op_f, config);

  ColorSpinorField<double> b(geom, 4, 3);
  b.gaussian(107);
  SolverParams params;
  params.tol = 1e-9;  // below float epsilon: needs the double outer solve
  params.max_iter = 300;
  params.restart = 10;
  MixedPrecisionBlockMgPreconditioner precond(mg);
  auto x = op.create_vector();
  const auto res = mg_gcr(op, params, precond, x, b);
  ASSERT_TRUE(res.converged);

  auto r = op.create_vector();
  op.apply(r, x);
  blas::xpay(b, -1.0, r);
  EXPECT_LT(std::sqrt(blas::norm2(r) / blas::norm2(b)), 5e-9);
}

TEST(NullSpace, VectorsAreLowModeRich) {
  // After relaxation, the Rayleigh quotient |Mv|/|v| of a null vector must
  // be much smaller than that of a random vector.
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 91);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.05);
  WilsonCloverOp<double> op(gauge, {.mass = 0.05, .csw = 1.0}, &clover);

  NullSpaceParams ns;
  ns.nvec = 2;
  ns.iters = 80;
  const auto vecs = generate_null_vectors(op, ns);

  auto random = op.create_vector();
  random.gaussian(55);
  blas::scale(1.0 / std::sqrt(blas::norm2(random)), random);

  auto mv = op.create_vector();
  op.apply(mv, random);
  const double rq_random = blas::norm2(mv);
  op.apply(mv, vecs[0]);
  const double rq_null = blas::norm2(mv);
  EXPECT_LT(rq_null, 0.25 * rq_random);
}

}  // namespace
}  // namespace qmg
