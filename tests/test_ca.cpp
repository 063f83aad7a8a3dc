// Equivalence, breakdown and accounting suite for the communication-avoiding
// coarsest-grid solvers (solvers/block_ca_gmres.h, block_pipelined_gcr.h)
// and the fused reductions underneath them (comm/dist_blas.h):
//
//   * block CA-GMRES converges with per-rhs masking (zero rhs included) and
//     solves bit-identically through the distributed coarse adapters vs the
//     replicated operator, across Serial and Threaded at 1/2/4/8 threads;
//   * the pipelined block GCR is bit-identical to its synchronous reference
//     execution (the posted combine computes the same chunked reductions)
//     and distributed == replicated the same way;
//   * basis breakdown: an identity operator collapses the monomial basis to
//     rank 1 — the solver converges with effective_s() == 1, no fallback —
//     and a zero operator trips the depth-0 breakdown into the block-GCR
//     fallback with a finite iterate;
//   * the fused dist::block_gram over rank-partitioned blocks matches the
//     replicated Gram to reassociation tolerance and meters exactly ONE
//     allreduce;
//   * CommStats reconciliation: allreduce count == the solvers' counted
//     block_reductions, payloads and latencies are sane, pipelined overlap
//     is metered as hidden time;
//   * Multigrid dispatch: CaGmres and PipelinedGcr coarsest strategies are
//     distributed == replicated bit-identical through whole K-cycles, the
//     coarsest_comm_stats() meter fills and resets, and coarsest_ca_s == 0
//     autotunes s through the TuneCache (with P-line file persistence).
//
// ctest label: ca.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "comm/dist_blas.h"
#include "comm/dist_coarse.h"
#include "core/context.h"
#include "dirac/clover.h"
#include "dirac/wilson.h"
#include "fields/blas.h"
#include "gauge/ensemble.h"
#include "mg/galerkin.h"
#include "mg/multigrid.h"
#include "mg/nullspace.h"
#include "mg/stencil.h"
#include "mg/transfer.h"
#include "parallel/autotune.h"
#include "parallel/dispatch.h"
#include "parallel/thread_pool.h"
#include "solvers/block_ca_gmres.h"
#include "solvers/block_gcr.h"
#include "solvers/block_pipelined_gcr.h"

namespace {

using namespace qmg;

constexpr int kNRhs = 4;
constexpr int kThreadCounts[] = {1, 2, 4, 8};

template <typename T>
::testing::AssertionResult bits_equal(const ColorSpinorField<T>& a,
                                      const ColorSpinorField<T>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (long i = 0; i < a.size(); ++i)
    if (a.data()[i].re != b.data()[i].re || a.data()[i].im != b.data()[i].im)
      return ::testing::AssertionFailure()
             << "first bit mismatch at element " << i;
  return ::testing::AssertionSuccess();
}

template <typename T>
::testing::AssertionResult block_finite(const BlockSpinor<T>& x) {
  for (int k = 0; k < x.nrhs(); ++k)
    for (long i = 0; i < x.rhs_size(); ++i)
      if (!std::isfinite(static_cast<double>(x.at(i, k).re)) ||
          !std::isfinite(static_cast<double>(x.at(i, k).im)))
        return ::testing::AssertionFailure()
               << "non-finite element at rhs " << k << " index " << i;
  return ::testing::AssertionSuccess();
}

/// Saves and restores the process-wide dispatch state so tests compose.
class DispatchStateTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = default_policy(); }
  void TearDown() override {
    set_default_policy(saved_);
    ThreadPool::instance().resize(1);
  }

  static void use_serial() {
    ThreadPool::instance().resize(1);
    LaunchPolicy p;
    p.backend = Backend::Serial;
    set_default_policy(p);
  }

  static void use_threaded(int threads) {
    ThreadPool::instance().resize(threads);
    LaunchPolicy p;
    p.backend = Backend::Threaded;
    p.grain = 1;  // always engage the pool, even on tiny test lattices
    set_default_policy(p);
  }

 private:
  LaunchPolicy saved_;
};

/// Shared small-but-real problem on 4^3 x 8 (the 2,2,2,4 coarse grid
/// factors over 2 ranks): disordered Wilson-Clover plus a Galerkin coarse
/// operator with genuine near-null vectors — the same fixture shape as the
/// mg-dist suite, so the bit-identity contracts compose.
class CaTest : public DispatchStateTest {
 protected:
  static void SetUpTestSuite() {
    geom_ = make_geometry(Coord{4, 4, 4, 8});
    gauge_ = new GaugeField<double>(disordered_gauge<double>(geom_, 0.4, 53));
    clover_ = new CloverField<double>(
        build_clover_with_inverse(*gauge_, 1.0, 0.1));
    op_ = new WilsonCloverOp<double>(
        *gauge_, WilsonParams<double>{.mass = 0.1, .csw = 1.0}, clover_);
    NullSpaceParams ns;
    ns.nvec = 4;
    ns.iters = 10;
    auto vecs = generate_null_vectors(*op_, ns);
    auto map = std::make_shared<const BlockMap>(geom_, Coord{2, 2, 2, 2});
    transfer_ = new Transfer<double>(map, 4, 3, 4);
    transfer_->set_null_vectors(vecs);
    const WilsonStencilView<double> view(*op_);
    coarse_ = new CoarseDirac<double>(build_coarse_operator(view, *transfer_));
    coarse_->compute_diag_inverse();
    schur_ = new SchurCoarseOp<double>(*coarse_);
  }

  static void TearDownTestSuite() {
    delete schur_;
    delete coarse_;
    delete transfer_;
    delete op_;
    delete clover_;
    delete gauge_;
  }

  static SolverParams coarse_params() {
    SolverParams params;
    params.tol = 1e-6;
    params.max_iter = 400;
    params.restart = 20;
    return params;
  }

  static BlockSpinor<double> random_block(const ColorSpinorField<double>& proto,
                                          std::uint64_t seed,
                                          int zero_rhs = -1) {
    BlockSpinor<double> block(proto.geometry(), proto.nspin(), proto.ncolor(),
                              kNRhs, proto.subset());
    for (int k = 0; k < kNRhs; ++k) {
      auto f = proto.similar();
      if (k != zero_rhs) f.gaussian(seed + static_cast<std::uint64_t>(k));
      block.insert_rhs(f, k);
    }
    return block;
  }

  static GeometryPtr geom_;
  static GaugeField<double>* gauge_;
  static CloverField<double>* clover_;
  static WilsonCloverOp<double>* op_;
  static Transfer<double>* transfer_;
  static CoarseDirac<double>* coarse_;
  static SchurCoarseOp<double>* schur_;
};

GeometryPtr CaTest::geom_;
GaugeField<double>* CaTest::gauge_ = nullptr;
CloverField<double>* CaTest::clover_ = nullptr;
WilsonCloverOp<double>* CaTest::op_ = nullptr;
Transfer<double>* CaTest::transfer_ = nullptr;
CoarseDirac<double>* CaTest::coarse_ = nullptr;
SchurCoarseOp<double>* CaTest::schur_ = nullptr;

/// out = scale * in — the degenerate operators of the breakdown suite.
class ScaledIdentityOp : public LinearOperator<double> {
 public:
  ScaledIdentityOp(ColorSpinorField<double> proto, double scale)
      : proto_(std::move(proto)), scale_(scale) {}
  void apply(Field& out, const Field& in) const override {
    blas::copy(out, in);
    blas::scale(scale_, out);
    count_apply();
  }
  void apply_dagger(Field& out, const Field& in) const override {
    apply(out, in);
  }
  Field create_vector() const override {
    auto f = proto_.similar();
    blas::zero(f);
    return f;
  }
  double flops_per_apply() const override { return 0; }

 private:
  ColorSpinorField<double> proto_;
  double scale_;
};

// --- CA-GMRES convergence, masking, NaN freedom ------------------------------

TEST_F(CaTest, CaGmresConvergesWithZeroRhsMaskedNanFree) {
  use_serial();
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  const auto b = random_block(coarse_->create_vector(), 611, /*zero_rhs=*/1);
  auto x = b.similar();
  BlockCaGmresSolver<double> solver(*coarse_, coarse_params(), /*s=*/4);
  const auto res = solver.solve(x, b);

  EXPECT_TRUE(block_finite(x));
  for (int k = 0; k < kNRhs; ++k) {
    EXPECT_TRUE(res.rhs[static_cast<size_t>(k)].converged) << "rhs=" << k;
    if (k != 1) {
      EXPECT_LE(res.rhs[static_cast<size_t>(k)].final_rel_residual, 1e-6);
    }
  }
  // The zero rhs froze with exactly x = 0 (the masking contract).
  for (long i = 0; i < x.rhs_size(); ++i) {
    ASSERT_EQ(x.at(i, 1).re, 0.0);
    ASSERT_EQ(x.at(i, 1).im, 0.0);
  }
  EXPECT_FALSE(solver.fell_back());
  // The point of the exercise: fewer syncs than the GCR reference for the
  // same solve at equal convergence.
  auto x_gcr = b.similar();
  const auto ref = BlockGcrSolver<double>(*coarse_, coarse_params())
                       .solve(x_gcr, b);
  for (int k = 0; k < kNRhs; ++k)
    EXPECT_TRUE(ref.rhs[static_cast<size_t>(k)].converged);
  EXPECT_LT(res.block_reductions, ref.block_reductions / 2)
      << "CA syncs " << res.block_reductions << " vs GCR "
      << ref.block_reductions;
}

TEST_F(CaTest, CaGmresDistributedBitIdenticalToReplicated) {
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  const auto b = random_block(coarse_->create_vector(), 617);

  use_serial();
  auto x_ref = b.similar();
  BlockCaGmresSolver<double>(*coarse_, coarse_params(), 4).solve(x_ref, b);

  const auto dec = make_decomposition(coarse_->geometry(), 2);
  const DistributedCoarseOp<double> dist(*coarse_, dec);
  for (const HaloMode mode : {HaloMode::Sync, HaloMode::Overlapped}) {
    const DistributedBlockCoarseOp<double> dist_op(*coarse_, dist, mode);
    for (const int t : kThreadCounts) {
      use_threaded(t);
      auto x = b.similar();
      const auto res =
          BlockCaGmresSolver<double>(dist_op, coarse_params(), 4).solve(x, b);
      EXPECT_TRUE(res.all_converged());
      for (int k = 0; k < kNRhs; ++k)
        EXPECT_TRUE(bits_equal(x.extract_rhs(k), x_ref.extract_rhs(k)))
            << "mode=" << (mode == HaloMode::Sync ? "sync" : "overlapped")
            << " threads=" << t << " rhs=" << k;
    }
    use_serial();
  }
}

TEST_F(CaTest, CaGmresOnDistributedSchurBitIdentical) {
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  const auto b_full = random_block(coarse_->create_vector(), 619);
  BlockSpinor<double> b_hat = schur_->create_block(kNRhs);
  schur_->prepare_block(b_hat, b_full);

  use_serial();
  auto x_ref = b_hat.similar();
  BlockCaGmresSolver<double>(*schur_, coarse_params(), 4).solve(x_ref, b_hat);

  const auto dec = make_decomposition(coarse_->geometry(), 2);
  const DistributedCoarseOp<double> dist(*coarse_, dec);
  const DistributedSchurCoarseOp<double> dist_schur(*schur_, dist,
                                                    HaloMode::Overlapped);
  for (const int t : kThreadCounts) {
    use_threaded(t);
    auto x = b_hat.similar();
    BlockCaGmresSolver<double>(dist_schur, coarse_params(), 4).solve(x, b_hat);
    for (int k = 0; k < kNRhs; ++k)
      EXPECT_TRUE(bits_equal(x.extract_rhs(k), x_ref.extract_rhs(k)))
          << "threads=" << t << " rhs=" << k;
  }
}

// --- pipelined GCR ------------------------------------------------------------

TEST_F(CaTest, PipelinedBitIdenticalToSynchronousAndDistributed) {
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  const auto b = random_block(coarse_->create_vector(), 641, /*zero_rhs=*/3);

  use_serial();
  auto x_sync = b.similar();
  const auto res_sync =
      PipelinedBlockGcrSolver<double>(*coarse_, coarse_params(),
                                      /*pipeline=*/false)
          .solve(x_sync, b);
  EXPECT_TRUE(block_finite(x_sync));
  EXPECT_TRUE(res_sync.rhs[3].converged);  // the zero rhs
  for (int k = 0; k < 3; ++k)
    EXPECT_TRUE(res_sync.rhs[static_cast<size_t>(k)].converged) << "rhs=" << k;

  const auto dec = make_decomposition(coarse_->geometry(), 2);
  const DistributedCoarseOp<double> dist(*coarse_, dec);
  const DistributedBlockCoarseOp<double> dist_op(*coarse_, dist,
                                                 HaloMode::Overlapped);
  for (const int t : kThreadCounts) {
    use_threaded(t);
    // Pipelined (posted combine) == synchronous (inline combine), bitwise.
    auto x_pipe = b.similar();
    PipelinedBlockGcrSolver<double>(*coarse_, coarse_params(),
                                    /*pipeline=*/true)
        .solve(x_pipe, b);
    for (int k = 0; k < kNRhs; ++k)
      EXPECT_TRUE(bits_equal(x_pipe.extract_rhs(k), x_sync.extract_rhs(k)))
          << "threads=" << t << " rhs=" << k;
    // Distributed pipelined == replicated synchronous, bitwise: the posted
    // sync overlaps a matvec that itself overlaps its halo exchange.
    auto x_dist = b.similar();
    PipelinedBlockGcrSolver<double>(dist_op, coarse_params(),
                                    /*pipeline=*/true)
        .solve(x_dist, b);
    for (int k = 0; k < kNRhs; ++k)
      EXPECT_TRUE(bits_equal(x_dist.extract_rhs(k), x_sync.extract_rhs(k)))
          << "dist threads=" << t << " rhs=" << k;
  }
}

// --- breakdown and fallback ---------------------------------------------------

TEST_F(CaTest, IdentityOperatorShrinksBasisAndConverges) {
  use_serial();
  const ScaledIdentityOp ident(coarse_->create_vector(), 1.0);
  const auto b = random_block(ident.create_vector(), 653);
  auto x = b.similar();
  SolverParams params = coarse_params();
  BlockCaGmresSolver<double> solver(ident, params, /*s=*/4);
  const auto res = solver.solve(x, b);

  // M = I makes every basis power equal: the Gram matrix is rank 1, the
  // nested-depth retry lands on d = 1, and one step solves exactly.
  EXPECT_TRUE(res.all_converged());
  EXPECT_EQ(solver.effective_s(), 1);
  EXPECT_FALSE(solver.fell_back());
  EXPECT_TRUE(block_finite(x));
  // x = y * v0 with y = |r| and v0 = r / |r| reassociates: equal to b up to
  // a couple of ulps, not bitwise.
  for (int k = 0; k < kNRhs; ++k)
    for (long i = 0; i < x.rhs_size(); ++i) {
      ASSERT_NEAR(x.at(i, k).re, b.at(i, k).re, 1e-12);
      ASSERT_NEAR(x.at(i, k).im, b.at(i, k).im, 1e-12);
    }
}

TEST_F(CaTest, ZeroOperatorFallsBackToBlockGcr) {
  use_serial();
  const ScaledIdentityOp zero_op(coarse_->create_vector(), 0.0);
  const auto b = random_block(zero_op.create_vector(), 659);
  auto x = b.similar();
  SolverParams params = coarse_params();
  params.max_iter = 10;
  BlockCaGmresSolver<double> solver(zero_op, params, /*s=*/4);
  const auto res = solver.solve(x, b);

  // M = 0 annihilates the whole basis: depth-0 breakdown, handled by the
  // block-GCR fallback, which stalls on the same singular operator but
  // returns a finite iterate and honest convergence flags.
  EXPECT_TRUE(solver.fell_back());
  EXPECT_TRUE(block_finite(x));
  for (int k = 0; k < kNRhs; ++k)
    EXPECT_FALSE(res.rhs[static_cast<size_t>(k)].converged);
}

// --- fused reductions and CommStats accounting --------------------------------

TEST_F(CaTest, DistBlockGramMatchesReplicatedAndMetersOneAllreduce) {
  use_serial();
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  constexpr int kS = 3;
  std::vector<BlockSpinor<double>> w;
  for (int j = 0; j < kS; ++j)
    w.push_back(random_block(coarse_->create_vector(),
                             700 + static_cast<std::uint64_t>(10 * j)));
  const auto r = random_block(coarse_->create_vector(), 761);

  std::vector<const BlockSpinor<double>*> wp;
  for (const auto& wj : w) wp.push_back(&wj);
  const auto ref = dist::block_gram(wp, r);

  const auto dec = make_decomposition(coarse_->geometry(), 2);
  const DistributedCoarseOp<double> dist(*coarse_, dec);
  std::vector<DistributedBlockSpinor<double>> dw;
  for (const auto& wj : w) {
    auto d = dist.create_block(kNRhs);
    d.scatter(wj);
    dw.push_back(std::move(d));
  }
  auto dr = dist.create_block(kNRhs);
  dr.scatter(r);
  std::vector<const DistributedBlockSpinor<double>*> dwp;
  for (const auto& dj : dw) dwp.push_back(&dj);

  CommStats stats;
  const auto got = dist::block_gram(dwp, dr, &stats);

  // Exactly one metered allreduce carrying every partial.
  EXPECT_EQ(stats.allreduces, 1);
  EXPECT_EQ(stats.allreduce_doubles, got.payload_doubles());
  EXPECT_EQ(got.payload_doubles(), 2L * (kS * kS + kS) * kNRhs);

  // Rank-partial combination == replicated Gram to reassociation tolerance.
  ASSERT_EQ(got.s, ref.s);
  ASSERT_EQ(got.nrhs, ref.nrhs);
  for (int k = 0; k < kNRhs; ++k) {
    for (int i = 0; i < kS; ++i) {
      for (int j = 0; j < kS; ++j) {
        const double scale = std::abs(ref.g(k, i, i).re) + 1e-30;
        EXPECT_NEAR(got.g(k, i, j).re, ref.g(k, i, j).re, 1e-10 * scale);
        EXPECT_NEAR(got.g(k, i, j).im, ref.g(k, i, j).im, 1e-10 * scale);
      }
      const double scale = std::abs(ref.g(k, i, i).re) + 1e-30;
      EXPECT_NEAR(got.p(k, i).re, ref.p(k, i).re, 1e-10 * scale);
      EXPECT_NEAR(got.p(k, i).im, ref.p(k, i).im, 1e-10 * scale);
    }
  }
}

TEST_F(CaTest, CommStatsReconcileAgainstCountedBlockReductions) {
  use_serial();
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  const auto b = random_block(coarse_->create_vector(), 673);

  // CA-GMRES: every counted sync is one metered allreduce, nothing more.
  {
    CommStats stats;
    auto x = b.similar();
    const auto res =
        BlockCaGmresSolver<double>(*coarse_, coarse_params(), 4, &stats)
            .solve(x, b);
    EXPECT_EQ(stats.allreduces, res.block_reductions);
    // Each sync fuses at least the nrhs per-rhs partials.
    EXPECT_GE(stats.allreduce_doubles, res.block_reductions * kNRhs);
    EXPECT_GE(stats.allreduce_seconds, 0.0);
    EXPECT_EQ(stats.allreduce_hidden_seconds, 0.0);
  }

  // Pipelined GCR: same reconciliation, plus hidden (overlapped) sync time
  // bounded by the total combine time.
  {
    CommStats stats;
    auto x = b.similar();
    const auto res = PipelinedBlockGcrSolver<double>(*coarse_, coarse_params(),
                                                     /*pipeline=*/true, &stats)
                         .solve(x, b);
    EXPECT_EQ(stats.allreduces, res.block_reductions);
    EXPECT_GE(stats.allreduce_doubles, res.block_reductions * kNRhs);
    EXPECT_LE(stats.allreduce_hidden_seconds, stats.allreduce_seconds);
  }
}

// --- Multigrid dispatch -------------------------------------------------------

class CaMgStrategy : public CaTest,
                     public ::testing::WithParamInterface<CoarsestSolver> {};

TEST_P(CaMgStrategy, DistributedKCycleBitIdenticalToReplicated) {
  MgConfig mg_config;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 8;
  level.adaptive_passes = 0;
  mg_config.levels = {level};
  mg_config.coarsest_solver = GetParam();
  mg_config.coarsest_ca_s = 4;
  use_serial();
  Multigrid<double> mg(*op_, mg_config);
  mg.coarse_op_mutable(0).set_kernel_config({Strategy::ColorSpin, 1, 1, 2});

  const auto b = random_block(op_->create_vector(), 811);
  auto x_ref = b.similar();
  mg.cycle_block(0, x_ref, b);

  // The coarsest solver's syncs landed in the meter.
  EXPECT_GT(mg.coarsest_comm_stats().allreduces, 0);
  mg.reset_coarsest_comm_stats();
  EXPECT_EQ(mg.coarsest_comm_stats().allreduces, 0);

  for (const HaloMode mode : {HaloMode::Sync, HaloMode::Overlapped}) {
    ASSERT_EQ(mg.enable_distributed_coarse(2, mode), 1);
    for (const int t : kThreadCounts) {
      use_threaded(t);
      auto x = b.similar();
      mg.cycle_block(0, x, b);
      for (int k = 0; k < kNRhs; ++k)
        EXPECT_TRUE(bits_equal(x.extract_rhs(k), x_ref.extract_rhs(k)))
            << "mode=" << (mode == HaloMode::Sync ? "sync" : "overlapped")
            << " threads=" << t << " rhs=" << k;
    }
    use_serial();
    mg.disable_distributed_coarse();
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, CaMgStrategy,
                         ::testing::Values(CoarsestSolver::CaGmres,
                                           CoarsestSolver::PipelinedGcr));

TEST_F(CaTest, CoarsestCaDepthAutotunesThroughTuneCache) {
  MgConfig mg_config;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 8;
  level.adaptive_passes = 0;
  mg_config.levels = {level};
  mg_config.coarsest_solver = CoarsestSolver::CaGmres;
  mg_config.coarsest_ca_s = 0;  // autotune over {2, 4, 8}
  use_serial();
  Multigrid<double> mg(*op_, mg_config);
  mg.coarse_op_mutable(0).set_kernel_config({Strategy::ColorSpin, 1, 1, 2});

  const size_t params_before = TuneCache::instance().param_size();
  const auto b = random_block(op_->create_vector(), 823);
  auto x = b.similar();
  mg.cycle_block(0, x, b);
  EXPECT_GE(TuneCache::instance().param_size(), params_before + 1);

  // The tuned depth replays from the cache: a second cycle is bit-identical
  // to the first on the same input (same s every coarsest solve).
  auto x2 = b.similar();
  mg.cycle_block(0, x2, b);
  for (int k = 0; k < kNRhs; ++k)
    EXPECT_TRUE(bits_equal(x2.extract_rhs(k), x.extract_rhs(k)));
}

TEST(CaTuneCache, ParamLinesRoundTripAndRangeCheck) {
  const std::string path = "tune_cache_ca_test.txt";
  TuneCache& cache = TuneCache::instance();
  cache.store_param("ca-test-key", 4);
  ASSERT_TRUE(cache.save(path));

  int v = 0;
  ASSERT_TRUE(cache.lookup_param("ca-test-key", &v));
  EXPECT_EQ(v, 4);

  // Round-trip through the v5 file.
  cache.clear();
  EXPECT_FALSE(cache.lookup_param("ca-test-key", &v));
  ASSERT_TRUE(cache.load(path));
  ASSERT_TRUE(cache.lookup_param("ca-test-key", &v));
  EXPECT_EQ(v, 4);
  std::remove(path.c_str());

  // Out-of-range parameter values are rejected wholesale (they feed basis
  // depths — executing a bogus one is not an option).
  {
    std::ofstream out(path, std::ios::trunc);
    out << "qmg-tune-cache 5\nP\tbad-key\t0\n";
  }
  EXPECT_FALSE(cache.load(path));
  std::remove(path.c_str());
}

TEST(CaEndToEnd, ContextCaCoarsestSolveConverges) {
  ContextOptions options;
  options.dims = {4, 4, 4, 8};
  options.mass = -0.01;
  options.roughness = 0.4;
  options.backend = Backend::Serial;
  options.threads = 1;
  QmgContext ctx(options);

  MgConfig mg;
  mg.coarsest_solver = CoarsestSolver::CaGmres;
  mg.coarsest_ca_s = 4;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 10;
  level.adaptive_passes = 0;
  mg.levels = {level};
  ctx.setup_multigrid(mg);
  ASSERT_EQ(ctx.multigrid().config().coarsest_solver, CoarsestSolver::CaGmres);

  std::vector<ColorSpinorField<double>> b, x;
  for (int k = 0; k < 3; ++k) {
    b.push_back(ctx.create_vector());
    b.back().point_source(k, k % 4, k % 3);
    x.push_back(ctx.create_vector());
  }
  SolveSpec spec;
  spec.tol = 1e-6;
  spec.eo = false;
  const auto res = ctx.solve(x, b, spec);
  ASSERT_TRUE(res.all_converged());
  EXPECT_GT(ctx.multigrid().coarsest_comm_stats().allreduces, 0);
}

}  // namespace
