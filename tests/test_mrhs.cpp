// Batched (multi-right-hand-side) equivalence suite for the block-spinor
// subsystem: every batched kernel — Wilson/clover dslash, Schur complements,
// coarse operator under all four strategies, restrict/prolong, the batched
// MG cycle, and the masked block GCR — must be BIT-identical, rhs by rhs,
// to N single-rhs applications with the same kernel configuration, across
// the Serial and Threaded backends at 1/2/4/8 threads and across
// rhs-blockings.  The batched MG setup (mg/nullspace.h) must reproduce the
// per-vector setup candidate by candidate on the fine and a coarse level.  Plus the
// TuneCache persistence round trip and the hoisted MRHS validation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "core/context.h"
#include "dirac/clover.h"
#include "dirac/wilson.h"
#include "fields/blas.h"
#include "fields/blockspinor.h"
#include "gauge/ensemble.h"
#include "mg/galerkin.h"
#include "mg/mrhs.h"
#include "mg/multigrid.h"
#include "mg/nullspace.h"
#include "parallel/autotune.h"
#include "parallel/dispatch.h"
#include "solvers/block_gcr.h"
#include "solvers/gcr.h"

namespace qmg {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kRhsBlocks[] = {0, 1, 2};
constexpr int kNRhs = 3;

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
class BlockDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = default_policy(); }
  void TearDown() override {
    set_default_policy(saved_);
    ThreadPool::instance().resize(1);
  }

  static void use_serial(int rhs_block = 0) {
    ThreadPool::instance().resize(1);
    LaunchPolicy p;
    p.backend = Backend::Serial;
    p.rhs_block = rhs_block;
    set_default_policy(p);
  }

  static void use_threaded(int threads, int rhs_block = 0) {
    ThreadPool::instance().resize(threads);
    LaunchPolicy p;
    p.backend = Backend::Threaded;
    p.grain = 1;  // always engage the pool, even on tiny test lattices
    p.rhs_block = rhs_block;
    set_default_policy(p);
  }

 private:
  LaunchPolicy saved_;
};

/// Shared small-but-real problem: disordered Wilson-Clover on 4^4 and a
/// Galerkin-coarsened operator from genuine near-null vectors.
class MrhsEquivalenceTest : public BlockDispatchTest {
 protected:
  static void SetUpTestSuite() {
    geom_ = make_geometry(Coord{4, 4, 4, 4});
    gauge_ = new GaugeField<double>(disordered_gauge<double>(geom_, 0.4, 29));
    clover_ = new CloverField<double>(
        build_clover_with_inverse(*gauge_, 1.0, 0.1));
    op_ = new WilsonCloverOp<double>(
        *gauge_, WilsonParams<double>{.mass = 0.1, .csw = 1.0}, clover_);
    NullSpaceParams ns;
    ns.nvec = 4;
    ns.iters = 12;
    auto vecs = generate_null_vectors(*op_, ns);
    auto map = std::make_shared<const BlockMap>(geom_, Coord{2, 2, 2, 2});
    transfer_ = new Transfer<double>(map, 4, 3, 4);
    transfer_->set_null_vectors(vecs);
    const WilsonStencilView<double> view(*op_);
    coarse_ = new CoarseDirac<double>(build_coarse_operator(view, *transfer_));
    coarse_->compute_diag_inverse();
  }

  static void TearDownTestSuite() {
    delete coarse_;
    delete transfer_;
    delete op_;
    delete clover_;
    delete gauge_;
  }

  /// N random fields plus their packed block form.
  static std::vector<ColorSpinorField<double>> random_rhs_set(
      const ColorSpinorField<double>& proto, std::uint64_t seed) {
    std::vector<ColorSpinorField<double>> fields;
    for (int k = 0; k < kNRhs; ++k) {
      fields.push_back(proto.similar());
      fields.back().gaussian(seed + k);
    }
    return fields;
  }

  static GeometryPtr geom_;
  static GaugeField<double>* gauge_;
  static CloverField<double>* clover_;
  static WilsonCloverOp<double>* op_;
  static Transfer<double>* transfer_;
  static CoarseDirac<double>* coarse_;
};

GeometryPtr MrhsEquivalenceTest::geom_;
GaugeField<double>* MrhsEquivalenceTest::gauge_ = nullptr;
CloverField<double>* MrhsEquivalenceTest::clover_ = nullptr;
WilsonCloverOp<double>* MrhsEquivalenceTest::op_ = nullptr;
Transfer<double>* MrhsEquivalenceTest::transfer_ = nullptr;
CoarseDirac<double>* MrhsEquivalenceTest::coarse_ = nullptr;

TEST_F(MrhsEquivalenceTest, PackUnpackRoundTrip) {
  const auto fields = random_rhs_set(op_->create_vector(), 11);
  const auto block = pack_block(fields);
  EXPECT_EQ(block.nrhs(), kNRhs);
  for (int k = 0; k < kNRhs; ++k)
    EXPECT_TRUE(bits_equal(block.extract_rhs(k), fields[k])) << "rhs " << k;
}

TEST_F(MrhsEquivalenceTest, BatchedWilsonDslashBitIdentical) {
  const auto in = random_rhs_set(op_->create_vector(), 21);
  // Reference: N single-rhs applies on the Serial backend.
  use_serial();
  std::vector<ColorSpinorField<double>> ref;
  for (int k = 0; k < kNRhs; ++k) {
    ref.push_back(op_->create_vector());
    op_->apply(ref.back(), in[static_cast<size_t>(k)]);
  }
  const auto in_block = pack_block(in);
  for (const int rb : kRhsBlocks) {
    use_serial(rb);
    auto out = in_block.similar();
    op_->apply_block(out, in_block);
    for (int k = 0; k < kNRhs; ++k)
      EXPECT_TRUE(bits_equal(out.extract_rhs(k), ref[static_cast<size_t>(k)]))
          << "serial rhs_block=" << rb << " rhs=" << k;
    for (const int t : kThreadCounts) {
      use_threaded(t, rb);
      auto out_t = in_block.similar();
      op_->apply_block(out_t, in_block);
      for (int k = 0; k < kNRhs; ++k)
        EXPECT_TRUE(
            bits_equal(out_t.extract_rhs(k), ref[static_cast<size_t>(k)]))
            << "threads=" << t << " rhs_block=" << rb << " rhs=" << k;
    }
  }
}

TEST_F(MrhsEquivalenceTest, BatchedSchurWilsonBitIdentical) {
  const SchurWilsonOp<double> schur(*op_);
  const auto b = random_rhs_set(op_->create_vector(), 31);

  use_serial();
  std::vector<ColorSpinorField<double>> ref_bhat, ref_x;
  for (int k = 0; k < kNRhs; ++k) {
    ref_bhat.push_back(schur.create_vector());
    schur.prepare(ref_bhat.back(), b[static_cast<size_t>(k)]);
    ref_x.push_back(schur.create_vector());
    schur.apply(ref_x.back(), ref_bhat.back());
  }

  const auto b_block = pack_block(b);
  for (const int t : kThreadCounts) {
    use_threaded(t);
    auto b_hat = schur.create_block(kNRhs);
    schur.prepare_block(b_hat, b_block);
    auto sx = b_hat.similar();
    schur.apply_block(sx, b_hat);
    for (int k = 0; k < kNRhs; ++k) {
      EXPECT_TRUE(
          bits_equal(b_hat.extract_rhs(k), ref_bhat[static_cast<size_t>(k)]))
          << "prepare threads=" << t << " rhs=" << k;
      EXPECT_TRUE(bits_equal(sx.extract_rhs(k), ref_x[static_cast<size_t>(k)]))
          << "apply threads=" << t << " rhs=" << k;
    }
  }
}

TEST_F(MrhsEquivalenceTest, BatchedCoarseAllStrategiesBitIdentical) {
  const CoarseKernelConfig configs[] = {
      {Strategy::GridOnly, 1, 1, 1},
      {Strategy::ColorSpin, 1, 1, 2},
      {Strategy::StencilDir, 3, 1, 2},
      {Strategy::DotProduct, 3, 2, 2},
  };
  const auto in = random_rhs_set(coarse_->create_vector(), 41);
  const auto in_block = pack_block(in);

  for (const auto& cfg : configs) {
    use_serial();
    LaunchPolicy serial;
    serial.backend = Backend::Serial;
    std::vector<ColorSpinorField<double>> ref;
    for (int k = 0; k < kNRhs; ++k) {
      ref.push_back(coarse_->create_vector());
      coarse_->apply_with_config(ref.back(), in[static_cast<size_t>(k)], cfg,
                                 serial);
    }
    for (const int t : kThreadCounts) {
      for (const int rb : kRhsBlocks) {
        use_threaded(t);
        LaunchPolicy threaded;
        threaded.backend = Backend::Threaded;
        threaded.rhs_block = rb;
        auto out = in_block.similar();
        coarse_->apply_block_with_config(out, in_block, cfg, threaded);
        for (int k = 0; k < kNRhs; ++k)
          EXPECT_TRUE(
              bits_equal(out.extract_rhs(k), ref[static_cast<size_t>(k)]))
              << cfg.to_string() << " threads=" << t << " rhs_block=" << rb
              << " rhs=" << k;
      }
    }
  }
}

TEST_F(MrhsEquivalenceTest, MixedStorageBatchedBitIdenticalPerRhs) {
  // Strategy (c) under MRHS: the batched apply over float (and half)
  // coarse-link storage with double accumulation must stay bit-identical,
  // rhs by rhs, to the single-rhs mixed apply — across backends, thread
  // counts and rhs-blockings, exactly like the native-storage suite.
  const WilsonStencilView<double> view(*op_);
  for (const auto storage : {CoarseStorage::Single, CoarseStorage::Half16}) {
    const CoarseDirac<double> mixed =
        build_coarse_operator(view, *transfer_, storage);
    const CoarseKernelConfig cfg{Strategy::DotProduct, 3, 2, 2};
    const auto in = random_rhs_set(mixed.create_vector(), 59);
    const auto in_block = pack_block(in);

    use_serial();
    LaunchPolicy serial;
    serial.backend = Backend::Serial;
    std::vector<ColorSpinorField<double>> ref;
    for (int k = 0; k < kNRhs; ++k) {
      ref.push_back(mixed.create_vector());
      mixed.apply_with_config(ref.back(), in[static_cast<size_t>(k)], cfg,
                              serial);
    }
    for (const int t : kThreadCounts) {
      for (const int rb : kRhsBlocks) {
        use_threaded(t);
        LaunchPolicy threaded;
        threaded.backend = Backend::Threaded;
        threaded.rhs_block = rb;
        auto out = in_block.similar();
        mixed.apply_block_with_config(out, in_block, cfg, threaded);
        for (int k = 0; k < kNRhs; ++k)
          EXPECT_TRUE(
              bits_equal(out.extract_rhs(k), ref[static_cast<size_t>(k)]))
              << to_string(storage) << " threads=" << t << " rhs_block=" << rb
              << " rhs=" << k;
      }
    }
  }
}

TEST_F(MrhsEquivalenceTest, BatchedCoarseSchurBitIdentical) {
  const SchurCoarseOp<double> schur(*coarse_);
  const auto b = random_rhs_set(coarse_->create_vector(), 51);

  use_serial();
  std::vector<ColorSpinorField<double>> ref_bhat, ref_sx, ref_full;
  for (int k = 0; k < kNRhs; ++k) {
    ref_bhat.push_back(schur.create_vector());
    schur.prepare(ref_bhat.back(), b[static_cast<size_t>(k)]);
    ref_sx.push_back(schur.create_vector());
    schur.apply(ref_sx.back(), ref_bhat.back());
    ref_full.push_back(coarse_->create_vector());
    schur.reconstruct(ref_full.back(), ref_sx.back(),
                      b[static_cast<size_t>(k)]);
  }

  const auto b_block = pack_block(b);
  for (const int t : kThreadCounts) {
    use_threaded(t);
    auto b_hat = schur.create_block(kNRhs);
    schur.prepare_block(b_hat, b_block);
    auto sx = b_hat.similar();
    schur.apply_block(sx, b_hat);
    auto full = coarse_->create_block(kNRhs);
    schur.reconstruct_block(full, sx, b_block);
    for (int k = 0; k < kNRhs; ++k) {
      EXPECT_TRUE(
          bits_equal(b_hat.extract_rhs(k), ref_bhat[static_cast<size_t>(k)]))
          << "prepare threads=" << t << " rhs=" << k;
      EXPECT_TRUE(bits_equal(sx.extract_rhs(k), ref_sx[static_cast<size_t>(k)]))
          << "apply threads=" << t << " rhs=" << k;
      EXPECT_TRUE(
          bits_equal(full.extract_rhs(k), ref_full[static_cast<size_t>(k)]))
          << "reconstruct threads=" << t << " rhs=" << k;
    }
  }
}

TEST_F(MrhsEquivalenceTest, BatchedTransferBitIdentical) {
  std::vector<ColorSpinorField<double>> fine;
  for (int k = 0; k < kNRhs; ++k) {
    fine.push_back(transfer_->create_fine_vector());
    fine.back().gaussian(61 + k);
  }

  use_serial();
  std::vector<ColorSpinorField<double>> ref_coarse, ref_fine;
  for (int k = 0; k < kNRhs; ++k) {
    ref_coarse.push_back(transfer_->create_coarse_vector());
    transfer_->restrict_to_coarse(ref_coarse.back(),
                                  fine[static_cast<size_t>(k)]);
    ref_fine.push_back(transfer_->create_fine_vector());
    transfer_->prolongate(ref_fine.back(), ref_coarse.back());
  }

  const auto fine_block = pack_block(fine);
  for (const int t : kThreadCounts) {
    for (const int rb : kRhsBlocks) {
      use_threaded(t, rb);
      auto coarse_block = transfer_->create_coarse_block(kNRhs);
      transfer_->restrict_to_coarse(coarse_block, fine_block);
      auto fine_out = fine_block.similar();
      transfer_->prolongate(fine_out, coarse_block);
      for (int k = 0; k < kNRhs; ++k) {
        EXPECT_TRUE(bits_equal(coarse_block.extract_rhs(k),
                               ref_coarse[static_cast<size_t>(k)]))
            << "restrict threads=" << t << " rhs_block=" << rb << " rhs=" << k;
        EXPECT_TRUE(bits_equal(fine_out.extract_rhs(k),
                               ref_fine[static_cast<size_t>(k)]))
            << "prolong threads=" << t << " rhs_block=" << rb << " rhs=" << k;
      }
    }
  }
}

TEST_F(MrhsEquivalenceTest, BlockBlasMatchesSingleFieldBitwise) {
  const auto fields = random_rhs_set(coarse_->create_vector(), 71);
  auto ys = random_rhs_set(coarse_->create_vector(), 81);
  auto block_x = pack_block(fields);
  auto block_y = pack_block(ys);

  for (const int t : kThreadCounts) {
    use_threaded(t);
    const auto n2 = blas::block_norm2(block_x);
    const auto d = blas::block_cdot(block_x, block_y);
    for (int k = 0; k < kNRhs; ++k) {
      EXPECT_EQ(n2[static_cast<size_t>(k)],
                blas::norm2(fields[static_cast<size_t>(k)]))
          << "norm2 threads=" << t << " rhs=" << k;
      const auto dk = blas::cdot(fields[static_cast<size_t>(k)],
                                 ys[static_cast<size_t>(k)]);
      EXPECT_EQ(d[static_cast<size_t>(k)].re, dk.re) << "t=" << t;
      EXPECT_EQ(d[static_cast<size_t>(k)].im, dk.im) << "t=" << t;
    }
  }

  // Masked caxpy must leave inactive rhs untouched bit-for-bit.
  std::vector<Complex<double>> a(kNRhs, Complex<double>(1.5, -0.25));
  blas::RhsMask active(kNRhs, 1);
  active[1] = 0;
  blas::block_caxpy(a, block_x, block_y, &active);
  EXPECT_TRUE(bits_equal(block_y.extract_rhs(1), ys[1]));
  auto expected0 = ys[0];
  blas::caxpy(a[0], fields[0], expected0);
  EXPECT_TRUE(bits_equal(block_y.extract_rhs(0), expected0));
}

// A block of one runs the single-rhs BLAS bodies on its storage; a mask
// that leaves its rhs inactive must still keep every update off it.
TEST_F(MrhsEquivalenceTest, MaskedBlockOfOneUpdatesLeaveYUntouched) {
  auto xf = op_->create_vector();
  xf.gaussian(7);
  auto yf = op_->create_vector();
  yf.gaussian(17);
  const auto x = pack_block(std::vector{xf});
  const auto y0 = pack_block(std::vector{yf});
  const blas::RhsMask inactive{0};
  const std::vector<double> a{0.75};
  const std::vector<Complex<double>> ca{Complex<double>(0.5, -1.25)};
  const auto untouched = [&](const BlockSpinor<double>& y) {
    return bits_equal(y.extract_rhs(0), y0.extract_rhs(0));
  };
  for (const int t : {0, 1, 4}) {
    if (t == 0)
      use_serial();
    else
      use_threaded(t);
    auto y = y0;
    blas::block_copy(y, x, &inactive);
    EXPECT_TRUE(untouched(y)) << "copy threads=" << t;
    blas::block_axpy(a, x, y, &inactive);
    EXPECT_TRUE(untouched(y)) << "axpy threads=" << t;
    blas::block_caxpy(ca, x, y, &inactive);
    EXPECT_TRUE(untouched(y)) << "caxpy threads=" << t;
    blas::block_xpay(x, a, y, &inactive);
    EXPECT_TRUE(untouched(y)) << "xpay threads=" << t;
    blas::block_scale(a, y, &inactive);
    EXPECT_TRUE(untouched(y)) << "scale threads=" << t;
    // Active, the same updates match the field ops bit for bit.
    auto yk = yf;
    blas::block_caxpy(ca, x, y);
    blas::caxpy(ca[0], xf, yk);
    blas::block_xpay(x, a, y);
    blas::xpay(xf, a[0], yk);
    EXPECT_TRUE(bits_equal(y.extract_rhs(0), yk)) << "threads=" << t;
    EXPECT_EQ(blas::block_norm2(y)[0], blas::norm2(yk));
    EXPECT_EQ(blas::block_cdot(x, y)[0].re, blas::cdot(xf, yk).re);
  }
}

// A block of one replays apply()'s tuned config under the single-rhs tune
// key: no new TuneCache entry, the same bits.
TEST_F(MrhsEquivalenceTest, CoarseBlockOfOneReplaysSingleRhsTuning) {
  use_serial();
  coarse_->enable_autotune();
  auto in = coarse_->create_vector();
  in.gaussian(23);
  auto out = coarse_->create_vector();
  coarse_->apply(out, in);
  const auto& cache = TuneCache::instance();
  const size_t configs = cache.size();
  const size_t launches = cache.launch_size();
  const auto in_block = pack_block(std::vector{in});
  auto out_block = in_block.similar();
  coarse_->apply_block(out_block, in_block);
  EXPECT_EQ(cache.size(), configs);
  EXPECT_EQ(cache.launch_size(), launches);
  EXPECT_TRUE(bits_equal(out_block.extract_rhs(0), out));
}

TEST_F(MrhsEquivalenceTest, MrhsValidationThrowsInsteadOfAsserting) {
  const MultiRhsCoarseOp<double> mrhs(*coarse_);
  std::vector<ColorSpinorField<double>> in, out;
  in.push_back(coarse_->create_vector());
  // Size mismatch.
  EXPECT_THROW(mrhs.apply(out, in), std::invalid_argument);
  // Parity-subset field (the case the old in-worker assert lost in
  // Release builds).
  out.push_back(coarse_->create_vector());
  in[0] = ColorSpinorField<double>(geom_, 2, coarse_->ncolor(), Subset::Even);
  EXPECT_THROW(mrhs.apply(out, in), std::invalid_argument);
  EXPECT_THROW(mrhs.apply_streamed(out, in), std::invalid_argument);
}

TEST_F(MrhsEquivalenceTest, BlockGcrMatchesIndependentGcrWithMasking) {
  coarse_->set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  SolverParams params;
  params.tol = 1e-8;
  params.max_iter = 200;
  params.restart = 10;

  // Mixed difficulty: two random systems plus a zero rhs (converges at
  // iteration 0 and must be masked out while the batch continues).
  std::vector<ColorSpinorField<double>> b;
  for (int k = 0; k < 2; ++k) {
    b.push_back(coarse_->create_vector());
    b.back().gaussian(91 + k);
  }
  b.push_back(coarse_->create_vector());  // zero rhs

  use_serial();
  std::vector<SolverResult> ref_res;
  std::vector<ColorSpinorField<double>> ref_x;
  for (size_t k = 0; k < b.size(); ++k) {
    ref_x.push_back(coarse_->create_vector());
    ref_res.push_back(
        GcrSolver<double>(*coarse_, params).solve(ref_x.back(), b[k]));
  }

  for (const int t : {1, 4}) {
    use_threaded(t);
    auto b_block = pack_block(b);
    auto x_block = b_block.similar();
    const auto res =
        BlockGcrSolver<double>(*coarse_, params).solve(x_block, b_block);
    ASSERT_EQ(res.rhs.size(), b.size());
    for (size_t k = 0; k < b.size(); ++k) {
      EXPECT_TRUE(bits_equal(x_block.extract_rhs(static_cast<int>(k)),
                             ref_x[k]))
          << "threads=" << t << " rhs=" << k;
      EXPECT_EQ(res.rhs[k].iterations, ref_res[k].iterations)
          << "threads=" << t << " rhs=" << k;
      EXPECT_EQ(res.rhs[k].matvecs, ref_res[k].matvecs)
          << "threads=" << t << " rhs=" << k;
      EXPECT_EQ(res.rhs[k].reductions, ref_res[k].reductions)
          << "threads=" << t << " rhs=" << k;
      EXPECT_EQ(res.rhs[k].converged, ref_res[k].converged);
    }
    // The zero rhs was masked from the start; the others really iterated.
    EXPECT_EQ(res.rhs.back().iterations, 0);
    EXPECT_GT(res.rhs.front().iterations, 0);
    EXPECT_TRUE(res.all_converged());
  }
  coarse_->enable_autotune();
}

TEST_F(MrhsEquivalenceTest, BatchedCycleBitIdentical) {
  MgConfig mg_config;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 8;
  level.adaptive_passes = 0;
  mg_config.levels = {level};
  use_serial();
  Multigrid<double> mg(*op_, mg_config);
  // Pin the coarse kernel config so the nrhs-1 and batched cycles run the
  // same decomposition (the bit-identity contract is per-config).
  mg.coarse_op_mutable(0).set_kernel_config({Strategy::ColorSpin, 1, 1, 2});

  // Reference: each rhs cycled alone, as a block of one.
  const auto b = random_rhs_set(op_->create_vector(), 101);
  std::vector<ColorSpinorField<double>> ref_x;
  for (int k = 0; k < kNRhs; ++k) {
    const auto b_k = pack_block(std::vector{b[static_cast<size_t>(k)]});
    auto x_k = b_k.similar();
    mg.cycle_block(0, x_k, b_k);
    ref_x.push_back(x_k.extract_rhs(0));
  }

  const auto b_block = pack_block(b);
  for (const int t : kThreadCounts) {
    use_threaded(t);
    auto x_block = b_block.similar();
    mg.cycle_block(0, x_block, b_block);
    for (int k = 0; k < kNRhs; ++k)
      EXPECT_TRUE(
          bits_equal(x_block.extract_rhs(k), ref_x[static_cast<size_t>(k)]))
          << "threads=" << t << " rhs=" << k;
  }
}

// --- Batched setup ------------------------------------------------------------

/// Level 0 of a two-level hierarchy in precision T: disordered
/// Wilson-clover on 4^4 with 2^4 aggregates, built under Serial, whose
/// level-1 operator runs a pinned kernel config (the condition of the
/// per-candidate bit-identity contract).
template <typename T>
struct FineLevel {
  FineLevel() {
    MgLevelConfig l1;
    l1.nvec = 4;
    l1.null_iters = 8;
    MgConfig config;
    config.levels = {l1};
    mg = std::make_unique<Multigrid<T>>(op, config);
    mg->coarse_op_mutable(0).set_kernel_config({Strategy::ColorSpin, 1, 1, 2});
  }

  GeometryPtr geom = make_geometry(Coord{4, 4, 4, 4});
  GaugeField<T> gauge = disordered_gauge<T>(geom, 0.4, 29);
  CloverField<T> clover = build_clover_with_inverse(gauge, T(1), T(0.1));
  WilsonCloverOp<T> op{gauge, WilsonParams<T>{.mass = T(0.1), .csw = T(1)},
                       &clover};
  std::unique_ptr<Multigrid<T>> mg;
};

/// The candidate routines of mg/nullspace.h under group sizes > 1 against
/// the group-1 (single-rhs stream) reference, candidate by candidate.  The
/// coarse cases run on level 1 of a three-level hierarchy over the shared
/// 4^4 operator, with 2x2x2x4 and 2^4 coarse grids (every extent even, so
/// both coarse levels have a Schur complement) and both coarse operators
/// pinned.  The fine cases run on FineLevel in double and in float, the
/// hierarchy's precision, whose lane pack is 4 wide on the baseline ISA.
class BatchedSetupTest : public MrhsEquivalenceTest {
 protected:
  template <typename T>
  using Fields = std::vector<ColorSpinorField<T>>;

  void SetUp() override {
    MrhsEquivalenceTest::SetUp();
    MgLevelConfig l1;
    l1.block = {2, 2, 2, 1};
    l1.nvec = 4;
    l1.null_iters = 8;
    MgLevelConfig l2 = l1;
    l2.block = {1, 1, 1, 2};
    MgConfig config;
    config.levels = {l1, l2};
    use_serial();
    mg_ = std::make_unique<Multigrid<double>>(*op_, config);
    for (int l = 0; l < 2; ++l)
      mg_->coarse_op_mutable(l).set_kernel_config(
          {Strategy::ColorSpin, 1, 1, 2});
  }

  const CoarseDirac<double>& level1() const { return mg_->coarse_op(0); }

  /// `relaxed` partly relaxed candidates of `op`, then an all-zero one that
  /// the batched routines must keep masked while the others move.
  template <typename T>
  static Fields<T> candidates(const LinearOperator<T>& op, int relaxed) {
    NullSpaceParams ns;
    ns.nvec = relaxed;
    ns.iters = 3;
    ns.seed = 211;
    Fields<T> vecs = generate_null_vectors(op, ns);
    vecs.push_back(op.create_vector());
    return vecs;
  }

  /// Runs `grouped(g)` for every g in `groups` at Serial and at Threaded
  /// with 1, 2 and 4 threads, and checks every candidate bitwise against
  /// the group-1 `ref`.
  template <typename T>
  static void expect_groups_match(
      const Fields<T>& ref, std::initializer_list<int> groups,
      const std::function<Fields<T>(int)>& grouped) {
    for (const int group : groups)
      for (const int threads : {0, 1, 2, 4}) {
        if (threads == 0)
          use_serial();
        else
          use_threaded(threads);
        const Fields<T> got = grouped(group);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t k = 0; k < ref.size(); ++k)
          EXPECT_TRUE(bits_equal(got[k], ref[k]))
              << (threads == 0 ? "serial" : "threaded")
              << " threads=" << threads << " group=" << group
              << " candidate=" << k;
      }
  }

  /// How far from 1 a normalized candidate's norm2 may read in T.
  template <typename T>
  static double norm_tol() {
    return std::is_same_v<T, float> ? 1e-5 : 1e-12;
  }

  /// Every candidate but the last is finite, unit-norm and moved away from
  /// its start; the last (all-zero) one is still exactly zero.
  template <typename T>
  static void expect_zero_candidate_masked(const Fields<T>& start,
                                           const Fields<T>& out) {
    const double tol = norm_tol<T>();
    ASSERT_EQ(out.size(), start.size());
    for (size_t k = 0; k + 1 < out.size(); ++k) {
      const double n2 = blas::norm2(out[k]);
      EXPECT_TRUE(std::isfinite(n2)) << "candidate " << k;
      EXPECT_NEAR(n2, 1.0, tol) << "candidate " << k;
      EXPECT_FALSE(bits_equal(out[k], start[k])) << "candidate " << k;
    }
    const auto& zero = out.back();
    for (long i = 0; i < zero.size(); ++i)
      ASSERT_TRUE(zero.data()[i].re == 0 && zero.data()[i].im == 0)
          << "zero candidate changed at element " << i;
  }

  // The fine cases use seven candidates (six relaxed plus the zero one in
  // refresh and refinement), so a group of 4 leaves a tail of 3.

  template <typename T>
  static void check_fine_generation() {
    use_serial();
    const FineLevel<T> fine;
    NullSpaceParams ns;
    ns.nvec = 7;
    ns.iters = 12;
    ns.seed = 409;
    const Fields<T> ref = generate_null_vectors(fine.op, ns);
    for (const auto& v : ref) EXPECT_NEAR(blas::norm2(v), 1.0, norm_tol<T>());
    expect_groups_match<T>(ref, {2, 4, 7}, [&](int group) {
      return generate_null_vectors(fine.op, ns, group);
    });
  }

  template <typename T>
  static void check_fine_refresh() {
    use_serial();
    const FineLevel<T> fine;
    const Fields<T> start = candidates(fine.op, 6);
    Fields<T> ref = start;
    relax_null_vectors(fine.op, ref, 10, 0.85);
    expect_zero_candidate_masked(start, ref);
    expect_groups_match<T>(ref, {2, 4, 7}, [&](int group) {
      Fields<T> vecs = start;
      relax_null_vectors(fine.op, vecs, 10, 0.85, group);
      return vecs;
    });
  }

  template <typename T>
  static void check_fine_refinement() {
    use_serial();
    const FineLevel<T> fine;
    const Fields<T> start = candidates(fine.op, 6);
    Fields<T> ref = start;
    refine_null_vectors(fine.op, fine.mg->transfer(0), fine.mg->coarse_op(0),
                        ref, /*iters=*/2, /*smooth_iters=*/4, 0.85);
    expect_zero_candidate_masked(start, ref);
    expect_groups_match<T>(ref, {2, 4, 7}, [&](int group) {
      Fields<T> vecs = start;
      refine_null_vectors(fine.op, fine.mg->transfer(0),
                          fine.mg->coarse_op(0), vecs, /*iters=*/2,
                          /*smooth_iters=*/4, 0.85, group);
      return vecs;
    });
  }

  std::unique_ptr<Multigrid<double>> mg_;
};

// Coarse level: five candidates as one nvec-wide group and in groups of 3.

TEST_F(BatchedSetupTest, BatchedGenerationMatchesPerVector) {
  NullSpaceParams ns;
  ns.nvec = 5;
  ns.iters = 12;
  ns.seed = 307;
  use_serial();
  const Fields<double> ref = generate_null_vectors(level1(), ns);
  for (const auto& v : ref) EXPECT_NEAR(blas::norm2(v), 1.0, 1e-12);
  expect_groups_match<double>(ref, {5, 3}, [&](int group) {
    return generate_null_vectors(level1(), ns, group);
  });
}

TEST_F(BatchedSetupTest, BatchedRefreshMatchesPerVector) {
  use_serial();
  const Fields<double> start = candidates<double>(level1(), 4);
  Fields<double> ref = start;
  relax_null_vectors(level1(), ref, 10, 0.85);
  expect_zero_candidate_masked(start, ref);
  expect_groups_match<double>(ref, {5, 3}, [&](int group) {
    Fields<double> vecs = start;
    relax_null_vectors(level1(), vecs, 10, 0.85, group);
    return vecs;
  });
}

TEST_F(BatchedSetupTest, BatchedRefinementMatchesPerVector) {
  use_serial();
  const Fields<double> start = candidates<double>(level1(), 4);
  Fields<double> ref = start;
  refine_null_vectors(level1(), mg_->transfer(1), mg_->coarse_op(1), ref,
                      /*iters=*/2, /*smooth_iters=*/4, 0.85);
  expect_zero_candidate_masked(start, ref);
  expect_groups_match<double>(ref, {5, 3}, [&](int group) {
    Fields<double> vecs = start;
    refine_null_vectors(level1(), mg_->transfer(1), mg_->coarse_op(1), vecs,
                        /*iters=*/2, /*smooth_iters=*/4, 0.85, group);
    return vecs;
  });
}

// Fine level (Wilson-clover, refinement against the pinned level-1
// operator), in double and in float.

TEST_F(BatchedSetupTest, FineGenerationMatchesPerVector) {
  check_fine_generation<double>();
  check_fine_generation<float>();
}

TEST_F(BatchedSetupTest, FineRefreshMatchesPerVector) {
  check_fine_refresh<double>();
  check_fine_refresh<float>();
}

TEST_F(BatchedSetupTest, FineRefinementMatchesPerVector) {
  check_fine_refinement<double>();
  check_fine_refinement<float>();
}

TEST(TuneCachePersistence, RoundTripsKernelAndLaunchEntries) {
  auto& cache = TuneCache::instance();
  cache.clear();
  const CoarseKernelConfig cfg{Strategy::DotProduct, 3, 4, 2};
  cache.store("coarse_apply/V=4096/N=48/T=4", cfg);
  LaunchPolicy policy;
  policy.backend = Backend::Threaded;
  policy.grain = 64;
  policy.sim_block_dim = 256;
  policy.rhs_block = 4;
  cache.store_launch(mrhs_tune_key(4096, 48, 12, "d"), policy);

  const std::string path =
      ::testing::TempDir() + "/qmg_tune_cache_roundtrip.txt";
  ASSERT_TRUE(cache.save(path));
  cache.clear();
  ASSERT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.load(path));

  CoarseKernelConfig got;
  ASSERT_TRUE(cache.lookup("coarse_apply/V=4096/N=48/T=4", &got));
  EXPECT_EQ(got.strategy, cfg.strategy);
  EXPECT_EQ(got.dir_split, cfg.dir_split);
  EXPECT_EQ(got.dot_split, cfg.dot_split);
  EXPECT_EQ(got.ilp, cfg.ilp);
  LaunchPolicy got_policy;
  ASSERT_TRUE(cache.lookup_launch(mrhs_tune_key(4096, 48, 12, "d"), &got_policy));
  EXPECT_EQ(got_policy.backend, Backend::Threaded);
  EXPECT_EQ(got_policy.grain, 64);
  EXPECT_EQ(got_policy.sim_block_dim, 256);
  EXPECT_EQ(got_policy.rhs_block, 4);

  // A stale/garbage file is rejected, not half-loaded.
  const std::string bad = ::testing::TempDir() + "/qmg_tune_cache_bad.txt";
  std::FILE* f = std::fopen(bad.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a tune cache\n", f);
  std::fclose(f);
  EXPECT_FALSE(cache.load(bad));

  // Out-of-range values (dir_split=100 would overrun the kernel's fixed
  // direction-partial buffers) are rejected, and a valid earlier line must
  // not half-merge into the cache.
  cache.clear();
  const std::string oor = ::testing::TempDir() + "/qmg_tune_cache_oor.txt";
  f = std::fopen(oor.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("qmg-tune-cache 2\n", f);
  std::fputs("K\tgood/key\t1\t1\t1\t2\n", f);
  std::fputs("K\tevil/key\t3\t100\t2\t2\n", f);
  std::fclose(f);
  EXPECT_FALSE(cache.load(oor));
  EXPECT_EQ(cache.size(), 0u);  // nothing merged from the bad file
  cache.clear();
}

TEST(BlockSolveEndToEnd, SolveMgBlockMatchesScalarSolves) {
  ContextOptions options;
  options.dims = {4, 4, 4, 4};
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
  // Pin the coarse kernel config: a single-rhs solve (a block of one)
  // tunes under the single-rhs key and the 3-rhs solve under the mrhs key,
  // so autotuning could hand the two different (individually valid)
  // decompositions.
  ctx.multigrid().coarse_op_mutable(0).set_kernel_config(
      {Strategy::ColorSpin, 1, 1, 2});

  SolveSpec spec;
  spec.tol = 1e-7;
  std::vector<ColorSpinorField<double>> b, x_ref, x_blk;
  std::vector<SolverResult> ref;
  for (int k = 0; k < 3; ++k) {
    b.push_back(ctx.create_vector());
    b.back().point_source(k, k % 4, k % 3);
    x_ref.push_back(ctx.create_vector());
    ref.push_back(ctx.solve(x_ref.back(), b.back(), spec).result());
    x_blk.push_back(ctx.create_vector());
  }
  const auto res = ctx.solve(x_blk, b, spec);

  ASSERT_EQ(res.rhs.size(), b.size());
  EXPECT_TRUE(res.all_converged());
  for (size_t k = 0; k < b.size(); ++k) {
    EXPECT_TRUE(ref[k].converged);
    EXPECT_EQ(res.rhs[k].iterations, ref[k].iterations) << "rhs " << k;
    EXPECT_TRUE(bits_equal(x_blk[k], x_ref[k])) << "rhs " << k;
  }
}

}  // namespace
}  // namespace qmg
