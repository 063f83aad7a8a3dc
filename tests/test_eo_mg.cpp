// Tests for red-black (even-odd) preconditioning inside the multigrid
// hierarchy and outer solvers, and for the adaptive setup refinement:
//
//  * the Schur-embedding identity S x_e = r_e for M x = (r_e, 0), which is
//    what lets the full-system MG cycle precondition the Schur system;
//  * agreement of the eo and full-system solver paths;
//  * apply-counter forwarding from the Schur wrappers;
//  * convergence with eo smoothing / eo coarsest solve on and off;
//  * adaptive refinement not degrading (and near criticality improving)
//    the outer iteration count.

#include <gtest/gtest.h>

#include <cmath>

#include "core/context.h"
#include "fields/blas.h"
#include "mg/multigrid.h"
#include "solvers/bicgstab.h"

namespace qmg {
namespace {

ContextOptions small_options(double mass = 0.05) {
  ContextOptions options;
  options.dims = {4, 4, 4, 8};
  options.mass = mass;
  options.roughness = 0.4;
  options.seed = 11;
  return options;
}

/// A single-rhs solve request to `tol` within `max_iter` iterations.
SolveSpec spec_of(SolveMethod method, double tol, int max_iter,
                  bool eo = true) {
  SolveSpec spec;
  spec.method = method;
  spec.tol = tol;
  spec.max_iter = max_iter;
  spec.eo = eo;
  spec.bicg_inner = InnerPrecision::Single;
  return spec;
}

MgConfig small_mg_config(int adaptive_passes = 1) {
  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 8;
  lvl.null_iters = 30;
  lvl.adaptive_passes = adaptive_passes;
  config.levels = {lvl};
  return config;
}

TEST(SchurEmbedding, EvenBlockOfFullSolveSolvesSchurSystem) {
  QmgContext ctx(small_options());
  const auto& schur = ctx.schur_op();

  // Random even-parity right-hand side embedded as (r_e, 0).
  auto r_e = schur.create_vector();
  r_e.gaussian(3);
  auto b_full = ctx.create_vector();
  blas::zero(b_full);
  insert_parity(b_full, r_e, /*parity=*/0);

  // Accurate full-system solve.
  SolverParams params;
  params.tol = 1e-12;
  params.max_iter = 10000;
  auto x_full = ctx.create_vector();
  BiCgStabSolver<double>(ctx.op(), params).solve(x_full, b_full);

  // Block elimination: the even component must satisfy S x_e = r_e.
  auto x_e = schur.create_vector();
  extract_parity(x_e, x_full, /*parity=*/0);
  auto s_xe = schur.create_vector();
  schur.apply(s_xe, x_e);
  blas::axpy(-1.0, r_e, s_xe);
  EXPECT_LT(std::sqrt(blas::norm2(s_xe) / blas::norm2(r_e)), 1e-9);
}

TEST(SchurCounters, WrapperForwardsToUnderlyingOperator) {
  QmgContext ctx(small_options());
  const auto& schur = ctx.schur_op();
  ctx.op().reset_apply_count();
  schur.reset_apply_count();

  auto x = schur.create_vector();
  x.gaussian(5);
  auto y = schur.create_vector();
  schur.apply(y, x);
  schur.apply(y, x);
  EXPECT_EQ(schur.apply_count(), 2);
  EXPECT_EQ(ctx.op().apply_count(), 2);
}

TEST(EoSolvers, BicgstabEoMatchesFullSystem) {
  QmgContext ctx(small_options());
  auto b = ctx.create_vector();
  b.gaussian(21);

  auto x_eo = ctx.create_vector();
  const auto r_eo =
      ctx.solve(x_eo, b, spec_of(SolveMethod::BiCgStab, 1e-10, 20000))
          .result();
  auto x_full = ctx.create_vector();
  const auto r_full =
      ctx.solve(x_full, b,
                spec_of(SolveMethod::BiCgStab, 1e-10, 20000, /*eo=*/false))
          .result();
  ASSERT_TRUE(r_eo.converged);
  ASSERT_TRUE(r_full.converged);

  auto diff = x_eo;
  blas::axpy(-1.0, x_full, diff);
  EXPECT_LT(std::sqrt(blas::norm2(diff) / blas::norm2(x_full)), 1e-7);
}

TEST(EoSolvers, EoReducesBicgstabIterations) {
  QmgContext ctx(small_options(-0.02));
  auto b = ctx.create_vector();
  b.gaussian(22);

  auto x = ctx.create_vector();
  const auto r_eo =
      ctx.solve(x, b, spec_of(SolveMethod::BiCgStab, 1e-8, 20000)).result();
  const auto r_full =
      ctx.solve(x, b, spec_of(SolveMethod::BiCgStab, 1e-8, 20000,
                              /*eo=*/false))
          .result();
  ASSERT_TRUE(r_eo.converged);
  ASSERT_TRUE(r_full.converged);
  // Red-black roughly halves the iteration count (section 3.3); allow slack.
  EXPECT_LT(r_eo.iterations, r_full.iterations);
}

TEST(EoSolvers, MgEoMatchesFullSystem) {
  QmgContext ctx(small_options());
  ctx.setup_multigrid(small_mg_config());
  auto b = ctx.create_vector();
  b.gaussian(23);

  auto x_eo = ctx.create_vector();
  const auto r_eo =
      ctx.solve(x_eo, b, spec_of(SolveMethod::Mg, 1e-9, 300)).result();
  auto x_full = ctx.create_vector();
  const auto r_full =
      ctx.solve(x_full, b, spec_of(SolveMethod::Mg, 1e-9, 300, /*eo=*/false))
          .result();
  ASSERT_TRUE(r_eo.converged);
  ASSERT_TRUE(r_full.converged);

  auto diff = x_eo;
  blas::axpy(-1.0, x_full, diff);
  EXPECT_LT(std::sqrt(blas::norm2(diff) / blas::norm2(x_full)), 1e-6);

  // Both solutions solve the full system.
  auto r = ctx.create_vector();
  ctx.op().apply(r, x_eo);
  blas::xpay(b, -1.0, r);
  EXPECT_LT(std::sqrt(blas::norm2(r) / blas::norm2(b)), 1e-7);
}

class EoCycleVariants : public ::testing::TestWithParam<std::tuple<bool, bool>>
{};

TEST_P(EoCycleVariants, ConvergesWithAnyEoCombination) {
  const auto [eo_smooth, coarsest_eo] = GetParam();
  QmgContext ctx(small_options());
  MgConfig config = small_mg_config();
  config.levels[0].eo_smooth = eo_smooth;
  config.coarsest_eo = coarsest_eo;
  ctx.setup_multigrid(config);

  auto b = ctx.create_vector();
  b.gaussian(29);
  auto x = ctx.create_vector();
  const auto res =
      ctx.solve(x, b, spec_of(SolveMethod::Mg, 1e-8, 300)).result();
  ASSERT_TRUE(res.converged);

  auto r = ctx.create_vector();
  ctx.op().apply(r, x);
  blas::xpay(b, -1.0, r);
  EXPECT_LT(std::sqrt(blas::norm2(r) / blas::norm2(b)), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, EoCycleVariants,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(AdaptiveSetup, RefinementImprovesNearCriticalConvergence) {
  // Near criticality the refined coarse space must beat the unrefined one.
  ContextOptions options;
  options.dims = {6, 6, 6, 8};
  options.mass = -0.10;
  options.roughness = 0.4;
  QmgContext ctx(options);
  auto b = ctx.create_vector();
  b.gaussian(31);

  MgConfig config;
  MgLevelConfig lvl;
  lvl.block = {2, 2, 2, 2};
  lvl.nvec = 8;
  lvl.null_iters = 30;
  config.levels = {lvl};

  config.levels[0].adaptive_passes = 0;
  ctx.setup_multigrid(config);
  auto x = ctx.create_vector();
  const auto r0 =
      ctx.solve(x, b, spec_of(SolveMethod::Mg, 1e-8, 300)).result();

  config.levels[0].adaptive_passes = 1;
  ctx.setup_multigrid(config);
  const auto r1 =
      ctx.solve(x, b, spec_of(SolveMethod::Mg, 1e-8, 300)).result();

  ASSERT_TRUE(r1.converged);
  EXPECT_LE(r1.iterations, r0.iterations);
}

TEST(AdaptiveSetup, RefinedVectorsStayNormalized) {
  QmgContext ctx(small_options());
  MgConfig config = small_mg_config(/*adaptive_passes=*/2);
  ctx.setup_multigrid(config);
  // Setup must succeed and yield a convergent hierarchy.
  auto b = ctx.create_vector();
  b.gaussian(37);
  auto x = ctx.create_vector();
  const auto res =
      ctx.solve(x, b, spec_of(SolveMethod::Mg, 1e-7, 200)).result();
  EXPECT_TRUE(res.converged);
}

}  // namespace
}  // namespace qmg
