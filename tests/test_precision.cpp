// Mixed-precision storage suite (paper section 4, strategy (c)): the
// clamp-safe Q15 quantizer and its round-trip error bound, the
// bytes-per-site audits against actual allocations, and the
// storage-vs-accumulation split of the coarse operator — float/half links
// with working-precision accumulation must match truncated full-precision
// references bit-for-bit (Single) or within the quantization bound
// (Half16), stay bit-identical across backends/thread counts and per rhs,
// carry through the distributed operator and the low-precision halo wire,
// and leave K-cycle iteration counts within a fixed margin.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "comm/dist_coarse.h"
#include "dirac/clover.h"
#include "dirac/wilson.h"
#include "fields/blas.h"
#include "fields/halffield.h"
#include "fields/halflinks.h"
#include "gauge/ensemble.h"
#include "mg/galerkin.h"
#include "mg/multigrid.h"
#include "mg/nullspace.h"
#include "mg/stencil.h"
#include "parallel/autotune.h"
#include "solvers/block_gcr.h"
#include "solvers/gcr.h"
#include "util/rng.h"

namespace qmg {
namespace {

// --- quantizer ---------------------------------------------------------------

TEST(QuantizeQ15, SaturatesInsteadOfWrapping) {
  // Rounding edge: 32767.5 would round to 32768 and wrap through the raw
  // int16 cast; the clamp saturates it.
  EXPECT_EQ(quantize_q15(32767.5f, 1.0f), 32767);
  EXPECT_EQ(quantize_q15(-32767.5f, 1.0f), -32767);
  EXPECT_EQ(quantize_q15(1e9f, 1.0f), 32767);
  EXPECT_EQ(quantize_q15(-1e9f, 1.0f), -32767);
  // In-range values round to nearest.
  EXPECT_EQ(quantize_q15(32767.4f, 1.0f), 32767);
  EXPECT_EQ(quantize_q15(0.6f, 1.0f), 1);
  EXPECT_EQ(quantize_q15(-0.6f, 1.0f), -1);
}

TEST(QuantizeQ15, NonFiniteInputsAreSafe) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(quantize_q15(inf, 1.0f), 32767);
  EXPECT_EQ(quantize_q15(-inf, 1.0f), -32767);
  EXPECT_EQ(quantize_q15(nan, 1.0f), 0);
  // Overflowing products (huge scale) saturate too.
  EXPECT_EQ(quantize_q15(2.0f, 1e38f), 32767);
}

TEST(HalfSpinor, RoundTripWithinFixedPointBound) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  ColorSpinorField<float> x(geom, 4, 3);
  x.gaussian(17);
  ColorSpinorField<float> y = x;
  quantize_half(y);
  // Per site, the worst-case quantization error is half a step:
  // max_abs / 32767 / 2 < max_abs * 2^-15.
  const double bound = std::pow(2.0, -15);
  for (long i = 0; i < x.nsites(); ++i) {
    float max_abs = 0.0f;
    for (int s = 0; s < 4; ++s)
      for (int c = 0; c < 3; ++c)
        max_abs = std::max({max_abs, std::fabs(x(i, s, c).re),
                            std::fabs(x(i, s, c).im)});
    for (int s = 0; s < 4; ++s)
      for (int c = 0; c < 3; ++c) {
        EXPECT_LE(std::fabs(y(i, s, c).re - x(i, s, c).re), max_abs * bound);
        EXPECT_LE(std::fabs(y(i, s, c).im - x(i, s, c).im), max_abs * bound);
      }
  }
}

TEST(HalfSpinor, NonFiniteComponentsDoNotPoisonTheNorm) {
  auto geom = make_geometry(Coord{2, 2, 2, 2});
  ColorSpinorField<float> x(geom, 4, 3);
  x.gaussian(5);
  x(0, 0, 0) = Complex<float>(std::numeric_limits<float>::quiet_NaN(), 1.0f);
  x(1, 1, 1) = Complex<float>(std::numeric_limits<float>::infinity(), -2.0f);
  HalfSpinorField h(geom, 4, 3);
  h.store(x);
  ColorSpinorField<float> y(geom, 4, 3);
  h.load(y);
  // Every dequantized value is finite: NaN maps to 0, inf saturates to the
  // site norm, and the norms themselves never go non-finite.
  for (long i = 0; i < y.nsites(); ++i)
    for (int s = 0; s < 4; ++s)
      for (int c = 0; c < 3; ++c) {
        EXPECT_TRUE(std::isfinite(y(i, s, c).re)) << i;
        EXPECT_TRUE(std::isfinite(y(i, s, c).im)) << i;
      }
  EXPECT_EQ(y(0, 0, 0).re, 0.0f);  // NaN component
}

TEST(HalfSpinor, BytesPerSiteMatchesAllocation) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const HalfSpinorField h(geom, 4, 3);
  EXPECT_EQ(h.bytes_per_site() * static_cast<size_t>(h.nsites()),
            h.allocated_bytes());
  const HalfSpinorField h2(geom, 2, 8, Subset::Even);
  EXPECT_EQ(h2.bytes_per_site() * static_cast<size_t>(h2.nsites()),
            h2.allocated_bytes());
}

TEST(HalfLinks, BytesPerSiteMatchesAllocation) {
  const HalfCoarseLinks links(256, 8);
  EXPECT_EQ(links.bytes_per_site() * 256u, links.allocated_bytes());
}

TEST(HalfLinks, BlockRoundTripWithinFixedPointBound) {
  const int n = 8;
  HalfCoarseLinks links(4, n);
  std::vector<Complex<double>> block(static_cast<size_t>(n) * n);
  Xoshiro256StarStar rng(91);
  double max_abs = 0;
  for (auto& v : block) {
    v = Complex<double>(rng.normal(), rng.normal());
    max_abs = std::max({max_abs, std::fabs(v.re), std::fabs(v.im)});
  }
  links.store_block(2, 5, block.data());
  std::vector<Complex<float>> back(block.size());
  links.load_block(2, 5, back.data());
  const double bound = max_abs * std::pow(2.0, -15);
  for (size_t k = 0; k < block.size(); ++k) {
    EXPECT_LE(std::fabs(back[k].re - block[k].re), bound);
    EXPECT_LE(std::fabs(back[k].im - block[k].im), bound);
  }
}

// --- coarse-operator storage axis -------------------------------------------

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
double rel_diff(const ColorSpinorField<T>& a, const ColorSpinorField<T>& b) {
  auto d = a;
  blas::axpy(T(-1), b, d);
  return std::sqrt(blas::norm2(d) / blas::norm2(b));
}

/// Shared small-but-real coarse operator: disordered Wilson-Clover on 4^4,
/// Galerkin-coarsened from genuine near-null vectors.
class PrecisionCoarseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    geom_ = make_geometry(Coord{4, 4, 4, 4});
    gauge_ = new GaugeField<double>(disordered_gauge<double>(geom_, 0.4, 37));
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
    native_ = new CoarseDirac<double>(build_coarse_operator(view, *transfer_));
    native_->compute_diag_inverse();
    single_ = new CoarseDirac<double>(build_coarse_operator(view, *transfer_));
    single_->compute_diag_inverse();
    single_->compress_storage(CoarseStorage::Single);
    half_ = new CoarseDirac<double>(build_coarse_operator(view, *transfer_));
    half_->compute_diag_inverse();
    half_->compress_storage(CoarseStorage::Half16);
  }

  static void TearDownTestSuite() {
    delete half_;
    delete single_;
    delete native_;
    delete transfer_;
    delete op_;
    delete clover_;
    delete gauge_;
  }

  void TearDown() override {
    set_default_policy(LaunchPolicy{});
    ThreadPool::instance().resize(1);
  }

  static GeometryPtr geom_;
  static GaugeField<double>* gauge_;
  static CloverField<double>* clover_;
  static WilsonCloverOp<double>* op_;
  static Transfer<double>* transfer_;
  static CoarseDirac<double>* native_;
  static CoarseDirac<double>* single_;
  static CoarseDirac<double>* half_;
};

GeometryPtr PrecisionCoarseTest::geom_;
GaugeField<double>* PrecisionCoarseTest::gauge_ = nullptr;
CloverField<double>* PrecisionCoarseTest::clover_ = nullptr;
WilsonCloverOp<double>* PrecisionCoarseTest::op_ = nullptr;
Transfer<double>* PrecisionCoarseTest::transfer_ = nullptr;
CoarseDirac<double>* PrecisionCoarseTest::native_ = nullptr;
CoarseDirac<double>* PrecisionCoarseTest::single_ = nullptr;
CoarseDirac<double>* PrecisionCoarseTest::half_ = nullptr;

TEST_F(PrecisionCoarseTest, StorageStateAndTags) {
  EXPECT_EQ(native_->storage(), CoarseStorage::Native);
  EXPECT_EQ(single_->storage(), CoarseStorage::Single);
  EXPECT_EQ(half_->storage(), CoarseStorage::Half16);
  EXPECT_TRUE(native_->has_native_storage());
  EXPECT_FALSE(single_->has_native_storage());
  EXPECT_EQ(native_->precision_tag(), "d");
  EXPECT_EQ(single_->precision_tag(), "df");
  EXPECT_EQ(half_->precision_tag(), "dh");
  // The stencil traffic shrinks with the storage: float is half of double,
  // Half16 a quarter plus the per-block scales.
  EXPECT_DOUBLE_EQ(single_->stencil_bytes_per_site(),
                   native_->stencil_bytes_per_site() / 2);
  const int n = native_->block_dim();
  EXPECT_DOUBLE_EQ(half_->stencil_bytes_per_site(),
                   9.0 * (n * n * 2 * 2 + 4));
  // And the Half16 model matches the actual allocation exactly.
  EXPECT_DOUBLE_EQ(half_->stencil_bytes_per_site(),
                   static_cast<double>(HalfCoarseLinks(1, n).bytes_per_site()));
}

TEST_F(PrecisionCoarseTest, SingleStorageMatchesTruncatedDoubleBitwise) {
  // The defining property of the split: float storage + double accumulation
  // must equal the all-double kernel run on links truncated through float —
  // same values, same accumulation order, hence the same bits.
  const CoarseDirac<double> truncated =
      convert_coarse<double>(convert_coarse<float>(*native_));
  auto x = native_->create_vector();
  x.gaussian(7);
  auto y_single = native_->create_vector();
  auto y_trunc = native_->create_vector();
  for (const auto strategy :
       {Strategy::GridOnly, Strategy::ColorSpin, Strategy::StencilDir,
        Strategy::DotProduct}) {
    const CoarseKernelConfig config{strategy, 3, 2, 2};
    single_->apply_with_config(y_single, x, config);
    truncated.apply_with_config(y_trunc, x, config);
    EXPECT_TRUE(bits_equal(y_single, y_trunc))
        << "strategy " << static_cast<int>(strategy);
  }
  // And the truncation gap from the double reference is float-sized.
  auto y_native = native_->create_vector();
  const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
  native_->apply_with_config(y_native, x, config);
  single_->apply_with_config(y_single, x, config);
  const double gap = rel_diff(y_single, y_native);
  EXPECT_GT(gap, 0.0);
  EXPECT_LT(gap, 1e-6);
}

TEST_F(PrecisionCoarseTest, SingleStorageBitIdenticalAcrossBackends) {
  auto x = native_->create_vector();
  x.gaussian(9);
  const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
  LaunchPolicy serial;
  serial.backend = Backend::Serial;
  auto y_ref = native_->create_vector();
  single_->apply_with_config(y_ref, x, config, serial);
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool::instance().resize(threads);
    LaunchPolicy pool;
    pool.backend = Backend::Threaded;
    pool.grain = 1;
    auto y = native_->create_vector();
    single_->apply_with_config(y, x, config, pool);
    EXPECT_TRUE(bits_equal(y, y_ref)) << threads << " threads";
  }
}

TEST_F(PrecisionCoarseTest, GalerkinEmitsRequestedStorage) {
  const WilsonStencilView<double> view(*op_);
  const CoarseDirac<double> emitted =
      build_coarse_operator(view, *transfer_, CoarseStorage::Single);
  EXPECT_EQ(emitted.storage(), CoarseStorage::Single);
  auto x = native_->create_vector();
  x.gaussian(13);
  auto y_a = native_->create_vector();
  auto y_b = native_->create_vector();
  const CoarseKernelConfig config{Strategy::ColorSpin, 1, 1, 2};
  emitted.apply_with_config(y_a, x, config);
  single_->apply_with_config(y_b, x, config);
  EXPECT_TRUE(bits_equal(y_a, y_b));
}

TEST_F(PrecisionCoarseTest, HalfStorageWithinQuantizationBound) {
  auto x = native_->create_vector();
  x.gaussian(11);
  auto y_native = native_->create_vector();
  auto y_half = native_->create_vector();
  const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
  native_->apply_with_config(y_native, x, config);
  half_->apply_with_config(y_half, x, config);
  const double gap = rel_diff(y_half, y_native);
  EXPECT_GT(gap, 0.0);
  EXPECT_LT(gap, 1e-2);  // ~2^-15 per link element, accumulated
  // Half16 is deterministic too: a second apply reproduces the bits.
  auto y_again = native_->create_vector();
  half_->apply_with_config(y_again, x, config);
  EXPECT_TRUE(bits_equal(y_again, y_half));
}

TEST_F(PrecisionCoarseTest, SchurOnCompressedStorage) {
  // The even-odd path (hopping/diag/diag-inverse kernels) follows the
  // storage format; Single stays within float truncation of the native
  // Schur complement.
  const SchurCoarseOp<double> schur_native(*native_);
  const SchurCoarseOp<double> schur_single(*single_);
  auto x_e = schur_native.create_vector();
  x_e.gaussian(21);
  auto y_ref = schur_native.create_vector();
  auto y = schur_native.create_vector();
  schur_native.apply(y_ref, x_e);
  schur_single.apply(y, x_e);
  EXPECT_LT(rel_diff(y, y_ref), 1e-5);
  const SchurCoarseOp<double> schur_half(*half_);
  schur_half.apply(y, x_e);
  EXPECT_LT(rel_diff(y, y_ref), 5e-2);
}

TEST_F(PrecisionCoarseTest, MrhsPerRhsBitIdenticalToSingleRhs) {
  const int nrhs = 3;
  BlockSpinor<double> xb(native_->geometry(), CoarseDirac<double>::kNSpin,
                         native_->ncolor(), nrhs);
  for (int k = 0; k < nrhs; ++k) {
    auto f = native_->create_vector();
    f.gaussian(100 + k);
    xb.insert_rhs(f, k);
  }
  const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
  for (const CoarseDirac<double>* op : {single_, half_}) {
    BlockSpinor<double> yb = xb.similar();
    op->apply_block_with_config(yb, xb, config, default_policy());
    for (int k = 0; k < nrhs; ++k) {
      auto x_k = native_->create_vector();
      xb.extract_rhs(x_k, k);
      auto y_k = native_->create_vector();
      op->apply_with_config(y_k, x_k, config);
      EXPECT_TRUE(bits_equal(y_k, yb.extract_rhs(k)))
          << to_string(op->storage()) << " rhs " << k;
    }
  }
}

TEST_F(PrecisionCoarseTest, StagedLowPrecisionRhsPayload) {
  const int nrhs = 3;
  BlockSpinor<double> xb(native_->geometry(), CoarseDirac<double>::kNSpin,
                         native_->ncolor(), nrhs);
  for (int k = 0; k < nrhs; ++k) {
    auto f = native_->create_vector();
    f.gaussian(200 + k);
    xb.insert_rhs(f, k);
  }
  const CoarseKernelConfig config{Strategy::ColorSpin, 1, 1, 2};
  BlockSpinor<double> y_plain = xb.similar();
  BlockSpinor<double> y_staged = xb.similar();
  single_->apply_block_with_config(y_plain, xb, config, default_policy());
  single_->apply_block_staged(y_staged, xb, config);
  // The staged payload truncates the vectors to float, so the results only
  // agree to single precision — but must do so for every rhs.
  for (int k = 0; k < nrhs; ++k)
    EXPECT_LT(rel_diff(y_staged.extract_rhs(k), y_plain.extract_rhs(k)),
              1e-6);
}

/// Distributed fixture: a larger fine lattice whose coarse grid
/// ({8,3,3,3}) decomposes over 2 ranks into {4,3,3,3} locals — big enough
/// for real messages AND a non-empty interior (every local extent >= 3).
class PrecisionDistTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    geom_ = make_geometry(Coord{16, 6, 6, 6});
    gauge_ = new GaugeField<double>(disordered_gauge<double>(geom_, 0.4, 43));
    clover_ = new CloverField<double>(
        build_clover_with_inverse(*gauge_, 1.0, 0.1));
    op_ = new WilsonCloverOp<double>(
        *gauge_, WilsonParams<double>{.mass = 0.1, .csw = 1.0}, clover_);
    NullSpaceParams ns;
    ns.nvec = 4;
    ns.iters = 8;
    auto vecs = generate_null_vectors(*op_, ns);
    auto map = std::make_shared<const BlockMap>(geom_, Coord{2, 2, 2, 2});
    Transfer<double> transfer(map, 4, 3, 4);
    transfer.set_null_vectors(vecs);
    const WilsonStencilView<double> view(*op_);
    native_ = new CoarseDirac<double>(build_coarse_operator(view, transfer));
    single_ = new CoarseDirac<double>(
        build_coarse_operator(view, transfer, CoarseStorage::Single));
    half_ = new CoarseDirac<double>(
        build_coarse_operator(view, transfer, CoarseStorage::Half16));
  }

  static void TearDownTestSuite() {
    delete half_;
    delete single_;
    delete native_;
    delete op_;
    delete clover_;
    delete gauge_;
  }

  static GeometryPtr geom_;
  static GaugeField<double>* gauge_;
  static CloverField<double>* clover_;
  static WilsonCloverOp<double>* op_;
  static CoarseDirac<double>* native_;
  static CoarseDirac<double>* single_;
  static CoarseDirac<double>* half_;
};

GeometryPtr PrecisionDistTest::geom_;
GaugeField<double>* PrecisionDistTest::gauge_ = nullptr;
CloverField<double>* PrecisionDistTest::clover_ = nullptr;
WilsonCloverOp<double>* PrecisionDistTest::op_ = nullptr;
CoarseDirac<double>* PrecisionDistTest::native_ = nullptr;
CoarseDirac<double>* PrecisionDistTest::single_ = nullptr;
CoarseDirac<double>* PrecisionDistTest::half_ = nullptr;

TEST_F(PrecisionDistTest, DistributedInheritsSingleStorage) {
  const auto dec = make_decomposition(native_->geometry(), 2);
  const DistributedCoarseOp<double> dist(*single_, dec);
  EXPECT_EQ(dist.storage(), CoarseStorage::Single);
  EXPECT_EQ(dist.precision_tag(), "df");

  auto x = native_->create_vector();
  x.gaussian(31);
  auto y_ref = native_->create_vector();
  const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
  single_->apply_with_config(y_ref, x, config);

  auto dx = dist.create_vector();
  dx.scatter(x);
  auto dy = dist.create_vector();
  dist.apply(dy, dx, config);
  auto y = native_->create_vector();
  dy.gather(y);
  EXPECT_TRUE(bits_equal(y, y_ref));

  // Half16 globals split too: the per-rank quantized blocks are raw copies
  // of the global ones, so the dequantize-row stencil views resolve
  // bit-identically across the rank split (the full equivalence suite is
  // tests/test_mg_dist.cpp).
  const DistributedCoarseOp<double> dist_half(*half_, dec);
  EXPECT_EQ(dist_half.storage(), CoarseStorage::Half16);
  EXPECT_EQ(dist_half.precision_tag(), "dh");
  auto yh_ref = native_->create_vector();
  half_->apply_with_config(yh_ref, x, config);
  auto dxh = dist_half.create_vector();
  dxh.scatter(x);
  auto dyh = dist_half.create_vector();
  dist_half.apply(dyh, dxh, config);
  auto yh = native_->create_vector();
  dyh.gather(yh);
  EXPECT_TRUE(bits_equal(yh, yh_ref));
}

TEST_F(PrecisionDistTest, SingleWireHalvesHaloBytes) {
  const auto dec = make_decomposition(native_->geometry(), 2);
  const DistributedCoarseOp<double> dist(*single_, dec);
  const CoarseKernelConfig config{Strategy::DotProduct, 3, 2, 2};
  auto x = native_->create_vector();
  x.gaussian(33);

  auto run = [&](WirePrecision wire, CommStats* stats,
                 ColorSpinorField<double>& y) {
    auto dx = dist.create_vector();
    dx.set_wire_precision(wire);
    dx.scatter(x);
    auto dy = dist.create_vector();
    dist.apply(dy, dx, config, stats);
    dy.gather(y);
  };
  CommStats native_stats, single_stats;
  auto y_native = native_->create_vector();
  auto y_single = native_->create_vector();
  run(WirePrecision::Native, &native_stats, y_native);
  run(WirePrecision::Single, &single_stats, y_single);

  // Same message count, half the wire bytes.
  EXPECT_EQ(single_stats.messages, native_stats.messages);
  EXPECT_EQ(single_stats.message_bytes * 2, native_stats.message_bytes);

  // Interior sites never read ghosts: bit-identical to the native wire.
  ASSERT_FALSE(dec->interior_sites().empty());
  for (int r = 0; r < dec->nranks(); ++r)
    for (const long i : dec->interior_sites()) {
      const long gi = dec->global_index(r, i);
      for (int d = 0; d < y_native.site_dof(); ++d) {
        EXPECT_EQ(y_single.site_data(gi)[d].re, y_native.site_data(gi)[d].re);
        EXPECT_EQ(y_single.site_data(gi)[d].im, y_native.site_data(gi)[d].im);
      }
    }
  // Boundary sites see float-truncated ghosts: small bounded gap.
  const double gap = rel_diff(y_single, y_native);
  EXPECT_LT(gap, 1e-6);
}

TEST_F(PrecisionCoarseTest, CompressedOpsRefuseNativeReaders) {
  EXPECT_THROW(CoarseStencilView<double>{*single_}, std::invalid_argument);
  EXPECT_THROW(convert_coarse<float>(*single_), std::logic_error);
  EXPECT_THROW(single_->compress_storage(CoarseStorage::Half16),
               std::logic_error);
}

// --- K-cycle integration -----------------------------------------------------

TEST(PrecisionMultigrid, IterationCountsWithinMargin) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const auto gauge = disordered_gauge<double>(geom, 0.4, 53);
  const auto clover = build_clover_with_inverse(gauge, 1.0, 0.05);
  const WilsonCloverOp<double> op(gauge, {0.05, 1.0, 1.0}, &clover);

  MgConfig base;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 15;
  level.adaptive_passes = 0;
  base.levels = {level};

  auto solve_with = [&](CoarseStorage storage) {
    MgConfig cfg = base;
    cfg.coarse_storage = storage;
    const Multigrid<double> mg(op, cfg);
    EXPECT_EQ(mg.coarse_op(0).storage(), storage);
    MgBlockPreconditioner<double> precond(mg);
    SolverParams params;
    params.tol = 1e-8;
    params.max_iter = 200;
    params.restart = 10;
    auto b = op.create_vector();
    b.gaussian(71);
    const auto b_block = pack_block(std::vector{b});
    auto x = b_block.similar();
    return BlockGcrSolver<double>(op, params, &precond)
        .solve(x, b_block)
        .rhs.front();
  };

  const auto native = solve_with(CoarseStorage::Native);
  const auto single = solve_with(CoarseStorage::Single);
  const auto half = solve_with(CoarseStorage::Half16);
  ASSERT_TRUE(native.converged);
  EXPECT_TRUE(single.converged);
  EXPECT_TRUE(half.converged);
  // Storage truncation lives inside the flexible preconditioner, whose
  // restarted GCR recomputes true residuals (the reliable updates): the
  // outer iteration count must stay within a fixed margin of native.
  EXPECT_LE(single.iterations, native.iterations + 3);
  EXPECT_LE(half.iterations, native.iterations + 5);
}

// --- tune-cache versioning ---------------------------------------------------

TEST(TuneCachePrecision, V2FilesLoadButDoNotAliasNewKeys) {
  auto& cache = TuneCache::instance();
  cache.clear();
  const std::string path = ::testing::TempDir() + "/qmg_tune_cache_v2.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "qmg-tune-cache 2\n";
    out << "K\tcoarse_apply/V=4096/N=48/T=4\t3\t3\t4\t2\n";
  }
  ASSERT_TRUE(cache.load(path));
  // The v2 entry is preserved verbatim...
  CoarseKernelConfig got;
  EXPECT_TRUE(cache.lookup("coarse_apply/V=4096/N=48/T=4", &got));
  EXPECT_EQ(got.strategy, Strategy::DotProduct);
  // ...but cannot be hit through a precision-tagged key, so a float kernel
  // re-tunes instead of replaying a config of unknown precision.
  EXPECT_FALSE(cache.lookup(coarse_tune_key(4096, 48, "f"), &got));
  EXPECT_FALSE(cache.lookup(coarse_tune_key(4096, 48, "d"), &got));
  cache.clear();

  // Unknown versions are rejected outright.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "qmg-tune-cache 1\n";
    out << "K\tcoarse_apply/V=4096/N=48/T=4\t3\t3\t4\t2\n";
  }
  EXPECT_FALSE(cache.load(path));
  std::remove(path.c_str());
}

TEST(TuneCachePrecision, RoundTripKeepsPrecisionKeys) {
  auto& cache = TuneCache::instance();
  cache.clear();
  const CoarseKernelConfig cfg{Strategy::StencilDir, 9, 1, 2};
  cache.store(coarse_tune_key(256, 8, "df"), cfg);
  const std::string path = ::testing::TempDir() + "/qmg_tune_cache_v6.txt";
  ASSERT_TRUE(cache.save(path));
  // The file is v6 now (an auto lane width under Threaded means native
  // rhs lanes).
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "qmg-tune-cache 6");
  cache.clear();
  ASSERT_TRUE(cache.load(path));
  CoarseKernelConfig got;
  ASSERT_TRUE(cache.lookup(coarse_tune_key(256, 8, "df"), &got));
  EXPECT_EQ(got.strategy, cfg.strategy);
  EXPECT_EQ(got.dir_split, cfg.dir_split);
  cache.clear();
  std::remove(path.c_str());
}

TEST(TuneCachePrecision, V3FilesLoadButDoNotAliasWidthTaggedKeys) {
  auto& cache = TuneCache::instance();
  cache.clear();
  const std::string path = ::testing::TempDir() + "/qmg_tune_cache_v3.txt";
  {
    // A v3 file: precision-tagged key, 6-token L line (no lane width).
    std::ofstream out(path, std::ios::trunc);
    out << "qmg-tune-cache 3\n";
    out << "K\tcoarse_apply/V=256/N=8/P=df/T=4\t2\t4\t1\t2\n";
    out << "L\tcoarse_apply/V=256/N=8/P=df/T=4\t1\t64\t1\t0\n";
  }
  ASSERT_TRUE(cache.load(path));
  // The entries merge, a pre-v6 Threaded entry with the explicit scalar
  // width its auto width meant when it was written...
  LaunchPolicy lp;
  ASSERT_TRUE(cache.lookup_launch("coarse_apply/V=256/N=8/P=df/T=4", &lp));
  EXPECT_EQ(lp.backend, Backend::Threaded);
  EXPECT_EQ(lp.simd_width, 1);
  // ...but a width-tagged lookup misses, so a kernel tuned under a
  // different pack width re-tunes rather than replaying a stale policy.
  CoarseKernelConfig got;
  EXPECT_FALSE(cache.lookup(coarse_tune_key(256, 8, "df"), &got));
  cache.clear();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qmg
