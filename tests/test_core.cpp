// Tests of the public API facade (QmgContext) and the small utilities
// (CLI parsing, timers/profiler, logger).

#include <gtest/gtest.h>

#include "core/qmg.h"
#include "util/cli.h"
#include "util/logger.h"
#include "util/timer.h"

namespace qmg {
namespace {

ContextOptions small_options() {
  ContextOptions o;
  o.dims = {4, 4, 4, 4};
  o.mass = 0.05;
  o.roughness = 0.4;
  return o;
}

TEST(Context, BuildsConsistentOperators) {
  QmgContext ctx(small_options());
  EXPECT_EQ(ctx.geometry()->volume(), 256);
  // Double and single operators agree to single precision.
  auto x = ctx.create_vector();
  x.gaussian(1);
  auto y_d = ctx.create_vector();
  ctx.op().apply(y_d, x);
  auto x_f = convert<float>(x);
  auto y_f = ctx.op_single().create_vector();
  ctx.op_single().apply(y_f, x_f);
  const auto y_fd = convert<double>(y_f);
  double max_rel = 0;
  for (long i = 0; i < y_d.size(); ++i) {
    const double d = std::sqrt(norm2(y_d.data()[i] - y_fd.data()[i]));
    max_rel = std::max(max_rel, d);
  }
  EXPECT_LT(max_rel, 1e-4);
}

TEST(Context, RejectsInvalidOptionsAtConstruction) {
  // Construction-time validation (fail fast with a descriptive message
  // instead of a crash or silent misconfiguration deep in a solve).
  {
    auto o = small_options();
    o.dims[2] = 0;
    EXPECT_THROW(QmgContext{o}, std::invalid_argument);
  }
  {
    auto o = small_options();
    o.dims = {3, 3, 3, 3};  // odd volume cannot be checkerboarded
    EXPECT_THROW(QmgContext{o}, std::invalid_argument);
  }
  {
    auto o = small_options();
    o.threads = -1;
    EXPECT_THROW(QmgContext{o}, std::invalid_argument);
  }
  {
    auto o = small_options();
    o.simd_width = 3;  // not in {0, 1, 2, 4, 8}
    EXPECT_THROW(QmgContext{o}, std::invalid_argument);
  }
}

TEST(Context, SetupMultigridRejectsNegativeCaDepth) {
  // The CA s-depth is an MgConfig setting, checked when the hierarchy is
  // built: a negative value throws instead of silently autotuning.
  QmgContext ctx(small_options());
  MgConfig mg;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  mg.levels = {level};
  mg.coarsest_ca_s = -2;
  EXPECT_THROW(ctx.setup_multigrid(mg), std::invalid_argument);
  EXPECT_FALSE(ctx.has_multigrid());
}

TEST(Context, SolveSpecUnifiedEntryPoint) {
  QmgContext ctx(small_options());
  auto b = ctx.create_vector();
  b.point_source(1, 0, 1);

  auto x_spec = ctx.create_vector();
  SolveSpec spec;
  spec.method = SolveMethod::BiCgStab;
  spec.tol = 1e-7;
  const SolveReport rep = ctx.solve(x_spec, b, spec);
  EXPECT_EQ(rep.method, SolveMethod::BiCgStab);
  EXPECT_EQ(rep.nrhs, 1);
  ASSERT_EQ(rep.rhs.size(), 1u);
  EXPECT_TRUE(rep.all_converged());
  EXPECT_GT(rep.result().iterations, 0);
  EXPECT_LE(rep.max_rel_residual(), 1e-7);
  EXPECT_FALSE(rep.distributed);
}

TEST(Context, SolveRejectsBadSpecs) {
  QmgContext ctx(small_options());
  auto b = ctx.create_vector();
  b.gaussian(7);
  std::vector<ColorSpinorField<double>> xs;  // size mismatch vs bs
  std::vector<ColorSpinorField<double>> bs;
  bs.push_back(ctx.create_vector());
  EXPECT_THROW(ctx.solve(xs, bs, SolveSpec{}), std::invalid_argument);

  // Distributed execution is an MG-only feature.
  SolveSpec bad;
  bad.method = SolveMethod::BiCgStab;
  bad.nranks = 2;
  xs.push_back(ctx.create_vector());
  EXPECT_THROW(ctx.solve(xs, bs, bad), std::invalid_argument);
}

TEST(Context, SolveRejectsMisshapenFields) {
  // Every x and b must be a full-lattice fine field on the context's
  // lattice; anything else throws before a kernel reads it.
  QmgContext ctx(small_options());
  MgConfig mg;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 5;
  mg.levels = {level};
  ctx.setup_multigrid(mg);
  const auto geom = ctx.geometry();
  std::vector<ColorSpinorField<double>> bad;
  bad.emplace_back(geom, 4, 3, Subset::Even);
  bad.emplace_back(geom, 2, 3);
  bad.emplace_back(geom, 4, 2);
  Coord other = ctx.options().dims;
  other[3] *= 2;
  bad.emplace_back(make_geometry(other), 4, 3);
  for (const SolveMethod method : {SolveMethod::Mg, SolveMethod::BiCgStab}) {
    SolveSpec spec;
    spec.method = method;
    for (size_t k = 0; k < bad.size(); ++k) {
      auto x = ctx.create_vector();
      const auto b = ctx.create_vector();
      EXPECT_THROW(ctx.solve(x, bad[k], spec), std::invalid_argument)
          << "b " << k;
      EXPECT_THROW(ctx.solve(bad[k], b, spec), std::invalid_argument)
          << "x " << k;
      std::vector<ColorSpinorField<double>> xs{x}, bs{bad[k]};
      EXPECT_THROW(ctx.solve(xs, bs, spec), std::invalid_argument)
          << "vector b " << k;
    }
  }
}

TEST(Context, MgSolveRequiresSetup) {
  QmgContext ctx(small_options());
  auto b = ctx.create_vector();
  b.gaussian(2);
  auto x = ctx.create_vector();
  EXPECT_THROW(ctx.solve(x, b, SolveSpec{}), std::runtime_error);
}

TEST(Context, MgAndBicgstabAgree) {
  QmgContext ctx(small_options());
  MgConfig mg;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 6;
  level.null_iters = 40;
  mg.levels = {level};
  ctx.setup_multigrid(mg);
  ASSERT_TRUE(ctx.has_multigrid());

  auto b = ctx.create_vector();
  b.point_source(3, 1, 2);
  auto x_mg = ctx.create_vector();
  auto x_bicg = ctx.create_vector();
  SolveSpec spec;
  spec.tol = 1e-9;
  const auto rm = ctx.solve(x_mg, b, spec).result();
  spec.method = SolveMethod::BiCgStab;
  const auto rb = ctx.solve(x_bicg, b, spec).result();
  ASSERT_TRUE(rm.converged);
  ASSERT_TRUE(rb.converged);
  blas::axpy(-1.0, x_mg, x_bicg);
  EXPECT_LT(std::sqrt(blas::norm2(x_bicg) / blas::norm2(x_mg)), 1e-6);
}

TEST(Context, SolverErrorEstimateIsSane) {
  QmgContext ctx(small_options());
  auto b = ctx.create_vector();
  b.gaussian(3);
  auto x = ctx.create_vector();
  SolveSpec spec;
  spec.method = SolveMethod::BiCgStab;
  spec.tol = 1e-6;
  const auto r = ctx.solve(x, b, spec).result();
  ASSERT_TRUE(r.converged);
  const double err = ctx.solver_error(x, b);
  // Error should be within a couple orders of magnitude of the residual
  // (the error/residual ratio of Table 3 is O(10)-O(100)).
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 1e-3);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  const char* argv[] = {"prog", "--l=8", "--mass=-0.05", "--verbose",
                        "--name=abc", "positional"};
  const CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("l", 4), 8);
  EXPECT_DOUBLE_EQ(args.get_double("mass", 0.0), -0.05);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  EXPECT_EQ(args.get("name", ""), "abc");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Profiler, AccumulatesNamedRegions) {
  Profiler prof;
  {
    ScopedTimer t(prof, "region");
  }
  {
    ScopedTimer t(prof, "region");
  }
  EXPECT_EQ(prof.entries().at("region").calls, 2);
  EXPECT_GE(prof.total("region"), 0.0);
  EXPECT_EQ(prof.total("absent"), 0.0);
  prof.clear();
  EXPECT_TRUE(prof.entries().empty());
}

TEST(Logger, LevelGatesOutput) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::Silent);
  logf(LogLevel::Summary, "should not appear\n");
  set_log_level(LogLevel::Verbose);
  EXPECT_EQ(static_cast<int>(log_level()),
            static_cast<int>(LogLevel::Verbose));
  set_log_level(old);
}

}  // namespace
}  // namespace qmg
