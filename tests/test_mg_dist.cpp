// Equivalence and accounting suite for the fully-batched K-cycle (masked
// block-MR smoother, solvers/block_mr.h) and the distributed coarse levels
// (comm/dist_coarse.h adapters dispatched by Multigrid::cycle_block):
//
//   * BlockMrSolver is per-rhs bit-identical to streaming every rhs through
//     the single-rhs MrSolver — including a zero (immediately masked) rhs
//     and tol-masked early convergence — across backends and thread counts;
//   * the distributed K-cycle is bit-identical to the replicated one at a
//     pinned kernel config (full-op, Schur-smoother and coarsest-solve
//     dispatch), in Sync and Overlapped halo modes;
//   * every storage format distributes: at double and float precision, in
//     both halo modes and at nrhs 1, 5 and 12, the rank-split stencil's
//     single-rhs, batched and Schur applies are bit-identical per rhs to
//     the replicated operator's;
//   * the single-rhs applies reject fields of the wrong shape;
//   * CommStats of nested Schur applies merge exactly once (message counts
//     reconcile against the per-exchange cost measured directly).
//
// ctest label: mg-dist.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

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
#include "parallel/dispatch.h"
#include "parallel/thread_pool.h"
#include "solvers/block_mr.h"
#include "solvers/mr.h"

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

/// Shared small-but-real problem on 4^3 x 8 (the temporal extent keeps the
/// 2,2,2,4 coarse grid factorable over 2 ranks): disordered Wilson-Clover
/// plus a Galerkin coarse operator with genuine near-null vectors.
class MgDistTest : public DispatchStateTest {
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

GeometryPtr MgDistTest::geom_;
GaugeField<double>* MgDistTest::gauge_ = nullptr;
CloverField<double>* MgDistTest::clover_ = nullptr;
WilsonCloverOp<double>* MgDistTest::op_ = nullptr;
Transfer<double>* MgDistTest::transfer_ = nullptr;
CoarseDirac<double>* MgDistTest::coarse_ = nullptr;
SchurCoarseOp<double>* MgDistTest::schur_ = nullptr;

// --- masked block MR vs the streamed single-rhs smoother --------------------

TEST_F(MgDistTest, BlockMrMatchesStreamedSingleRhsMr) {
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  SolverParams params;
  params.tol = 0;  // fixed-iteration smoother mode
  params.max_iter = 4;
  params.omega = 0.85;

  // One rhs is identically zero: the streamed MrSolver returns x = 0
  // immediately; the block solver must mask it instead of feeding the
  // 0/0 omega update that would poison the batch.
  const auto b = random_block(coarse_->create_vector(), 211, /*zero_rhs=*/2);

  use_serial();
  std::vector<ColorSpinorField<double>> ref;
  for (int k = 0; k < kNRhs; ++k) {
    auto b_k = coarse_->create_vector();
    b.extract_rhs(b_k, k);
    auto x_k = coarse_->create_vector();
    MrSolver<double>(*coarse_, params).solve(x_k, b_k);
    ref.push_back(std::move(x_k));
  }

  for (const int t : kThreadCounts) {
    use_threaded(t);
    auto x = b.similar();
    const auto res = BlockMrSolver<double>(*coarse_, params).solve(x, b);
    for (int k = 0; k < kNRhs; ++k) {
      EXPECT_TRUE(bits_equal(x.extract_rhs(k), ref[static_cast<size_t>(k)]))
          << "threads=" << t << " rhs=" << k;
      for (long i = 0; i < x.rhs_size(); ++i) {
        ASSERT_TRUE(std::isfinite(x.at(i, k).re) &&
                    std::isfinite(x.at(i, k).im))
            << "non-finite iterate at rhs " << k;
      }
    }
    EXPECT_TRUE(res.rhs[2].converged);  // the zero rhs
  }
}

TEST_F(MgDistTest, BlockMrWithToleranceMasksEachRhsLikeIndependentSolves) {
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  SolverParams params;
  params.tol = 0.3;  // loose: rhs converge at different iteration counts
  params.max_iter = 25;
  params.omega = 0.85;

  const auto b = random_block(coarse_->create_vector(), 223);
  use_serial();
  std::vector<ColorSpinorField<double>> ref;
  std::vector<SolverResult> ref_res;
  for (int k = 0; k < kNRhs; ++k) {
    auto b_k = coarse_->create_vector();
    b.extract_rhs(b_k, k);
    auto x_k = coarse_->create_vector();
    ref_res.push_back(MrSolver<double>(*coarse_, params).solve(x_k, b_k));
    ref.push_back(std::move(x_k));
  }

  auto x = b.similar();
  const auto res = BlockMrSolver<double>(*coarse_, params).solve(x, b);
  for (int k = 0; k < kNRhs; ++k) {
    EXPECT_TRUE(bits_equal(x.extract_rhs(k), ref[static_cast<size_t>(k)]))
        << "rhs=" << k;
    EXPECT_EQ(res.rhs[static_cast<size_t>(k)].iterations,
              ref_res[static_cast<size_t>(k)].iterations)
        << "rhs=" << k;
  }
}

TEST_F(MgDistTest, BlockMrOnSchurSystemMatchesStreamed) {
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  SolverParams params;
  params.tol = 0;
  params.max_iter = 4;
  params.omega = 0.85;

  // Even-odd form: the smoother's actual configuration on every level.
  const auto b_full = random_block(coarse_->create_vector(), 239);
  BlockSpinor<double> b_hat = schur_->create_block(kNRhs);
  schur_->prepare_block(b_hat, b_full);

  use_serial();
  std::vector<ColorSpinorField<double>> ref;
  for (int k = 0; k < kNRhs; ++k) {
    auto b_k = schur_->create_vector();
    b_hat.extract_rhs(b_k, k);
    auto x_k = schur_->create_vector();
    MrSolver<double>(*schur_, params).solve(x_k, b_k);
    ref.push_back(std::move(x_k));
  }

  for (const int t : kThreadCounts) {
    use_threaded(t);
    auto x = b_hat.similar();
    BlockMrSolver<double>(*schur_, params).solve(x, b_hat);
    for (int k = 0; k < kNRhs; ++k)
      EXPECT_TRUE(bits_equal(x.extract_rhs(k), ref[static_cast<size_t>(k)]))
          << "threads=" << t << " rhs=" << k;
  }
}

// --- distributed Schur complement -------------------------------------------

class MgDistHaloModes
    : public MgDistTest,
      public ::testing::WithParamInterface<HaloMode> {};

TEST_P(MgDistHaloModes, DistributedSchurApplyBitIdentical) {
  const HaloMode mode = GetParam();
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});

  const auto b_full = random_block(coarse_->create_vector(), 307);
  BlockSpinor<double> in = schur_->create_block(kNRhs);
  schur_->prepare_block(in, b_full);
  BlockSpinor<double> ref = in.similar();
  schur_->apply_block(ref, in);

  // The 2,2,2,4 coarse grid factors over 2 ranks only (4 would need a
  // unit local extent, which the decomposition rejects).
  for (const int nranks : {2}) {
    const auto dec = make_decomposition(coarse_->geometry(), nranks);
    const DistributedCoarseOp<double> dist(*coarse_, dec);
    const DistributedSchurCoarseOp<double> dist_schur(*schur_, dist, mode);
    BlockSpinor<double> out = in.similar();
    dist_schur.apply_block(out, in);
    for (int k = 0; k < kNRhs; ++k)
      EXPECT_TRUE(bits_equal(out.extract_rhs(k), ref.extract_rhs(k)))
          << "nranks=" << nranks << " rhs=" << k;

    // Single-rhs apply rides the batched path with the same bits.
    auto in_0 = schur_->create_vector();
    in.extract_rhs(in_0, 0);
    auto out_0 = schur_->create_vector();
    dist_schur.apply(out_0, in_0);
    EXPECT_TRUE(bits_equal(out_0, ref.extract_rhs(0)));
  }
}

INSTANTIATE_TEST_SUITE_P(HaloModes, MgDistHaloModes,
                         ::testing::Values(HaloMode::Sync,
                                           HaloMode::Overlapped));

// --- distributed K-cycle vs replicated --------------------------------------

TEST_F(MgDistTest, DistributedKCycleBitIdenticalToReplicated) {
  MgConfig mg_config;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 8;
  level.adaptive_passes = 0;
  mg_config.levels = {level};
  use_serial();
  Multigrid<double> mg(*op_, mg_config);
  // Pin the coarse kernel config so the replicated and distributed cycles
  // run the same decomposition (the bit-identity contract is per-config).
  mg.coarse_op_mutable(0).set_kernel_config({Strategy::ColorSpin, 1, 1, 2});

  const auto b = random_block(op_->create_vector(), 401);
  auto x_ref = b.similar();
  mg.cycle_block(0, x_ref, b);

  for (const HaloMode mode : {HaloMode::Sync, HaloMode::Overlapped}) {
    ASSERT_EQ(mg.enable_distributed_coarse(2, mode), 1);
    ASSERT_NE(mg.distributed_coarse_op(1), nullptr);
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
    EXPECT_EQ(mg.distributed_coarse_levels(), 0);
  }

  // After disabling, the cycle is the plain replicated one again.
  auto x_after = b.similar();
  mg.cycle_block(0, x_after, b);
  for (int k = 0; k < kNRhs; ++k)
    EXPECT_TRUE(bits_equal(x_after.extract_rhs(k), x_ref.extract_rhs(k)));
}

TEST_F(MgDistTest, UnfactorableLevelsFallBackToReplicated) {
  MgConfig mg_config;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 8;
  level.adaptive_passes = 0;
  mg_config.levels = {level};
  use_serial();
  Multigrid<double> mg(*op_, mg_config);
  mg.coarse_op_mutable(0).set_kernel_config({Strategy::ColorSpin, 1, 1, 2});

  const auto b = random_block(op_->create_vector(), 421);
  auto x_ref = b.similar();
  mg.cycle_block(0, x_ref, b);

  // 4 ranks would need a unit local extent on the 2,2,2,4 coarse grid: the
  // level is skipped (no distributed ops) and the cycle stays correct.
  EXPECT_EQ(mg.enable_distributed_coarse(4), 0);
  EXPECT_EQ(mg.distributed_coarse_op(1), nullptr);
  auto x = b.similar();
  mg.cycle_block(0, x, b);
  for (int k = 0; k < kNRhs; ++k)
    EXPECT_TRUE(bits_equal(x.extract_rhs(k), x_ref.extract_rhs(k)));
  mg.disable_distributed_coarse();
}

// --- Half16 across the rank split -------------------------------------------

// --- every storage format distributes ---------------------------------------

/// (storage, float precision, nrhs, halo mode).
using StorageCase = std::tuple<CoarseStorage, bool, int, HaloMode>;

class MgDistStorage : public MgDistTest,
                      public ::testing::WithParamInterface<StorageCase> {
 protected:
  template <typename T>
  static BlockSpinor<T> gaussian_block(const ColorSpinorField<T>& proto,
                                       int nrhs, std::uint64_t seed) {
    BlockSpinor<T> block(proto.geometry(), proto.nspin(), proto.ncolor(),
                         nrhs, proto.subset());
    for (int k = 0; k < nrhs; ++k) {
      auto f = proto.similar();
      f.gaussian(seed + static_cast<std::uint64_t>(k));
      block.insert_rhs(f, k);
    }
    return block;
  }

  /// The rank split of `op` applied single-rhs, batched and as a Schur
  /// complement, each compared bitwise per rhs with the replicated op.
  template <typename T>
  void expect_distributed_matches_replicated(const CoarseDirac<T>& op) {
    const int nrhs = std::get<2>(GetParam());
    const HaloMode mode = std::get<3>(GetParam());
    const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
    const auto dec = make_decomposition(op.geometry(), 2);
    const DistributedCoarseOp<T> dist(op, dec);
    EXPECT_EQ(dist.storage(), op.storage());

    auto x = op.create_vector();
    x.gaussian(431);
    auto y_ref = op.create_vector();
    op.apply_with_config(y_ref, x, config);
    auto dx = dist.create_vector();
    dx.scatter(x);
    auto dy = dist.create_vector();
    dist.apply(dy, dx, config, nullptr, mode);
    auto y = op.create_vector();
    dy.gather(y);
    EXPECT_TRUE(bits_equal(y, y_ref)) << "single-rhs apply";

    const auto xb = gaussian_block(op.create_vector(), nrhs, 433);
    auto yb_ref = xb.similar();
    op.apply_block_with_config(yb_ref, xb, config, default_policy());
    auto dxb = dist.create_block(nrhs);
    dxb.scatter(xb);
    auto dyb = dist.create_block(nrhs);
    dist.apply_block(dyb, dxb, config, nullptr, mode);
    auto yb = xb.similar();
    dyb.gather(yb);
    for (int k = 0; k < nrhs; ++k)
      EXPECT_TRUE(bits_equal(yb.extract_rhs(k), yb_ref.extract_rhs(k)))
          << "apply_block rhs=" << k;

    const SchurCoarseOp<T> schur(op);
    const DistributedSchurCoarseOp<T> dist_schur(schur, dist, mode);
    const auto b_full = gaussian_block(op.create_vector(), nrhs, 439);
    BlockSpinor<T> in = schur.create_block(nrhs);
    schur.prepare_block(in, b_full);
    BlockSpinor<T> ref = in.similar();
    schur.apply_block(ref, in);
    BlockSpinor<T> out = in.similar();
    dist_schur.apply_block(out, in);
    for (int k = 0; k < nrhs; ++k)
      EXPECT_TRUE(bits_equal(out.extract_rhs(k), ref.extract_rhs(k)))
          << "Schur apply_block rhs=" << k;
  }
};

std::string storage_case_name(
    const ::testing::TestParamInfo<StorageCase>& info) {
  const auto [storage, use_float, nrhs, mode] = info.param;
  return std::string(to_string(storage)) + (use_float ? "_f" : "_d") +
         "_nrhs" + std::to_string(nrhs) +
         (mode == HaloMode::Sync ? "_sync" : "_overlapped");
}

TEST_P(MgDistStorage, DistributedAppliesMatchReplicatedBitwise) {
  // The default Threaded policy runs native rhs lanes: float at nrhs 5 is
  // one lane pack plus a scalar remainder on the baseline ISA.
  use_threaded(2);
  const CoarseStorage storage = std::get<0>(GetParam());
  if (std::get<1>(GetParam())) {
    CoarseDirac<float> op = convert_coarse<float>(*coarse_);
    op.compress_storage(storage);
    expect_distributed_matches_replicated(op);
  } else {
    CoarseDirac<double> op = *coarse_;
    op.compress_storage(storage);
    expect_distributed_matches_replicated(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storages, MgDistStorage,
    ::testing::Combine(::testing::Values(CoarseStorage::Native,
                                         CoarseStorage::Single,
                                         CoarseStorage::Half16),
                       ::testing::Bool(), ::testing::Values(1, 5, 12),
                       ::testing::Values(HaloMode::Sync,
                                         HaloMode::Overlapped)),
    storage_case_name);

// --- shape validation of the single-rhs applies ------------------------------

TEST_F(MgDistTest, SingleRhsAppliesRejectMisshapenFields) {
  const CoarseKernelConfig config{Strategy::ColorSpin, 1, 1, 2};
  const int nspin = CoarseDirac<double>::kNSpin;
  const int nc = coarse_->ncolor();
  auto x = coarse_->create_vector();
  auto y = coarse_->create_vector();
  // site_dof != N would read past the field's end.
  ColorSpinorField<double> wide(coarse_->geometry(), nspin, nc + 1);
  EXPECT_THROW(coarse_->apply_with_config(y, wide, config),
               std::invalid_argument);
  EXPECT_THROW(coarse_->apply_with_config(wide, x, config),
               std::invalid_argument);
  ColorSpinorField<double> even(coarse_->geometry(), nspin, nc, Subset::Even);
  EXPECT_THROW(coarse_->apply_with_config(y, even, config),
               std::invalid_argument);
  coarse_->set_kernel_config(config);
  EXPECT_THROW(coarse_->apply(y, wide), std::invalid_argument);

  const auto dec = make_decomposition(coarse_->geometry(), 2);
  const DistributedCoarseOp<double> dist(*coarse_, dec);
  auto dx = dist.create_vector();
  auto dy = dist.create_vector();
  DistributedSpinor<double> dwide(dec, nspin, nc + 1);
  EXPECT_THROW(dist.apply(dy, dwide, config), std::invalid_argument);
  EXPECT_THROW(dist.apply(dwide, dx, config), std::invalid_argument);
  // A field of another decomposition has another ghost layout.
  DistributedSpinor<double> dother(
      make_decomposition(coarse_->geometry(), 2), nspin, nc);
  EXPECT_THROW(dist.apply(dy, dother, config), std::invalid_argument);
}

// --- CommStats accounting ----------------------------------------------------

TEST_F(MgDistTest, CommStatsOfNestedSchurAppliesMergeExactlyOnce) {
  use_serial();
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  const auto dec = make_decomposition(coarse_->geometry(), 2);
  const DistributedCoarseOp<double> dist(*coarse_, dec);

  // Cost of ONE batched halo exchange at this decomposition, measured
  // directly (the reconciliation unit).
  CommStats one;
  {
    auto probe = dist.create_block(kNRhs);
    probe.exchange_halos(&one);
  }
  ASSERT_GT(one.messages, 0);

  // A nested Schur apply runs exactly two exchanges — each metered once.
  const DistributedSchurCoarseOp<double> dist_schur(*schur_, dist,
                                                    HaloMode::Sync);
  const auto b_full = random_block(coarse_->create_vector(), 443);
  BlockSpinor<double> in = schur_->create_block(kNRhs);
  schur_->prepare_block(in, b_full);
  BlockSpinor<double> out = in.similar();
  dist_schur.apply_block(out, in);
  EXPECT_EQ(dist_schur.comm_stats().messages, 2 * one.messages);
  EXPECT_EQ(dist_schur.comm_stats().message_bytes, 2 * one.message_bytes);

  // Through a whole distributed K-cycle, the context-wide merge equals
  // (full-op applies) x one exchange + (Schur applies) x two exchanges —
  // i.e. nothing is counted twice through the nesting.
  MgConfig mg_config;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 8;
  level.adaptive_passes = 0;
  mg_config.levels = {level};
  Multigrid<double> mg(*op_, mg_config);
  mg.coarse_op_mutable(0).set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  ASSERT_EQ(mg.enable_distributed_coarse(2, HaloMode::Sync), 1);

  const auto* full_op = mg.distributed_block_op(1);
  const auto* schur_op = mg.distributed_schur_op(1);
  ASSERT_NE(full_op, nullptr);
  ASSERT_NE(schur_op, nullptr);
  full_op->reset_apply_count();
  schur_op->reset_apply_count();
  mg.reset_distributed_comm_stats();

  const auto b = random_block(op_->create_vector(), 449);
  auto x = b.similar();
  mg.cycle_block(0, x, b);

  // apply_count counts per rhs; each block apply ran one batched exchange
  // (two for Schur).  The level geometry matches the probe's, so the
  // per-exchange unit is `one`.
  const long full_applies = full_op->apply_count() / kNRhs;
  const long schur_applies = schur_op->apply_count() / kNRhs;
  ASSERT_GT(schur_applies, 0);
  const CommStats total = mg.distributed_comm_stats();
  EXPECT_EQ(total.messages,
            (full_applies + 2 * schur_applies) * one.messages);
  EXPECT_EQ(total.message_bytes,
            (full_applies + 2 * schur_applies) * one.message_bytes);

  mg.reset_distributed_comm_stats();
  EXPECT_EQ(mg.distributed_comm_stats().messages, 0);
}

// --- end to end through the context ------------------------------------------

TEST(MgDistEndToEnd, DistributedBlockSolveMatchesReplicatedBlockSolve) {
  ContextOptions options;
  options.dims = {4, 4, 4, 8};
  options.mass = -0.01;
  options.roughness = 0.4;
  options.backend = Backend::Serial;
  options.threads = 1;
  QmgContext ctx(options);

  MgConfig mg;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 10;
  level.adaptive_passes = 0;
  mg.levels = {level};
  ctx.setup_multigrid(mg);
  // Pin the coarse kernel config so the replicated and distributed cycles
  // share one decomposition (per-config bit-identity contract).
  ctx.multigrid().coarse_op_mutable(0).set_kernel_config(
      {Strategy::ColorSpin, 1, 1, 2});

  SolveSpec spec;
  spec.tol = 1e-6;
  spec.eo = false;
  std::vector<ColorSpinorField<double>> b, x_ref, x_dist;
  for (int k = 0; k < 3; ++k) {
    b.push_back(ctx.create_vector());
    b.back().point_source(k, k % 4, k % 3);
    x_ref.push_back(ctx.create_vector());
    x_dist.push_back(ctx.create_vector());
  }
  const auto ref = ctx.solve(x_ref, b, spec);

  spec.nranks = 2;
  spec.halo = HaloMode::Overlapped;
  const auto res = ctx.solve(x_dist, b, spec);
  const CommStats& comm = res.comm;
  const CommStats& coarse_comm = res.coarse_comm;

  ASSERT_TRUE(res.all_converged());
  for (size_t k = 0; k < b.size(); ++k) {
    EXPECT_EQ(res.rhs[k].iterations, ref.rhs[k].iterations) << "rhs " << k;
    EXPECT_TRUE(bits_equal(x_dist[k], x_ref[k])) << "rhs " << k;
  }
  // The coarse levels really ran distributed, their traffic landed in both
  // counters consistently, and the hierarchy is back to replicated.
  EXPECT_GT(coarse_comm.messages, 0);
  EXPECT_GE(comm.messages, coarse_comm.messages);
  EXPECT_EQ(ctx.multigrid().distributed_coarse_levels(), 0);
}

}  // namespace
