// SIMD lane suite (the Backend::Simd execution backend): pack algebra must
// match the scalar Complex expression trees lane by lane at every width,
// and every width-aware kernel — single-rhs BLAS and reductions, the block
// BLAS with convergence masks, the batched Wilson/clover dslash, the
// coarse operator under all strategies and storage formats, and the block
// transfers — must be BIT-identical to the Serial backend at widths
// 1/2/4/8, across thread counts when lanes compose with the Threaded
// pool, and at rhs counts that exercise full packs, scalar tails and the
// width degradation (nrhs < width).  The float kernels the hierarchy runs
// are checked again on the default policy (Threaded, auto width: native
// float lanes).  Plus the width-aware launch-policy plumbing:
// effective_simd_width, rhs_lane_width, pack-aligned rhs-blocking, and the
// TuneCache round trip with width-tagged keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dirac/clover.h"
#include "dirac/wilson.h"
#include "fields/blas.h"
#include "fields/blockspinor.h"
#include "fields/lanes.h"
#include "gauge/ensemble.h"
#include "linalg/aligned.h"
#include "linalg/simd.h"
#include "mg/galerkin.h"
#include "mg/mrhs.h"
#include "mg/nullspace.h"
#include "mg/transfer.h"
#include "parallel/autotune.h"
#include "parallel/dispatch.h"
#include "util/rng.h"

namespace qmg {
namespace {

constexpr int kWidths[] = {1, 2, 4, 8};
constexpr int kThreadCounts[] = {1, 2, 4};
constexpr int kRhsCounts[] = {1, 3, 4, 12};

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

// --- pack algebra ------------------------------------------------------------

/// Every cpack operation vs the scalar Complex tree it mirrors, lane by
/// lane, exact equality.  Runs at each compiled width including the W=1
/// scalar fallback — the identity the kernel equivalence suites below
/// build on.
template <typename T, int W>
void check_pack_algebra(std::uint64_t seed) {
  using V = simd::cpack<T, W>;
  Xoshiro256StarStar rng(seed);
  alignas(64) Complex<T> xs[W], ys[W];
  for (int j = 0; j < W; ++j) {
    xs[j] = Complex<T>(static_cast<T>(rng.normal()),
                       static_cast<T>(rng.normal()));
    ys[j] = Complex<T>(static_cast<T>(rng.normal()),
                       static_cast<T>(rng.normal()));
  }
  const Complex<T> a(static_cast<T>(rng.normal()),
                     static_cast<T>(rng.normal()));
  const T s = static_cast<T>(rng.normal());
  const V x = V::load(xs), y = V::load(ys);

  auto expect_lanes = [&](const V& got, auto&& scalar, const char* what) {
    Complex<T> out[W];
    got.store(out);
    for (int j = 0; j < W; ++j) {
      const Complex<T> want = scalar(j);
      EXPECT_EQ(out[j].re, want.re) << what << " lane " << j << " W=" << W;
      EXPECT_EQ(out[j].im, want.im) << what << " lane " << j << " W=" << W;
    }
  };

  expect_lanes(x + y, [&](int j) { return xs[j] + ys[j]; }, "add");
  expect_lanes(x - y, [&](int j) { return xs[j] - ys[j]; }, "sub");
  expect_lanes(a * x, [&](int j) { return a * xs[j]; }, "broadcast mul");
  expect_lanes(simd::cmul(x, y), [&](int j) { return xs[j] * ys[j]; },
               "lane mul");
  expect_lanes(s * x, [&](int j) { return s * xs[j]; }, "real scale");
  expect_lanes(simd::conj_mul(a, x), [&](int j) { return conj_mul(a, xs[j]); },
               "conj_mul broadcast");
  expect_lanes(simd::conj_mul(x, y),
               [&](int j) { return conj_mul(xs[j], ys[j]); }, "conj_mul lane");
  {
    V acc = x;
    acc += simd::cmul(x, y);
    expect_lanes(acc, [&](int j) { return xs[j] + xs[j] * ys[j]; }, "fma acc");
  }
  {
    const simd::simd_pack<T, W> n2 = simd::norm2(x);
    for (int j = 0; j < W; ++j)
      EXPECT_EQ(n2.v[j], norm2(xs[j])) << "norm2 lane " << j << " W=" << W;
  }
  {
    // Mixed-precision lane load (the Half16/float dequantize path): promote
    // exactly like the scalar Complex<T>(x) conversion.
    Complex<float> fx[W];
    for (int j = 0; j < W; ++j)
      fx[j] = Complex<float>(static_cast<float>(rng.normal()),
                             static_cast<float>(rng.normal()));
    const V promoted = V::template load_from<float>(fx);
    Complex<T> out[W];
    promoted.store(out);
    for (int j = 0; j < W; ++j) {
      EXPECT_EQ(out[j].re, static_cast<T>(fx[j].re)) << "load_from " << j;
      EXPECT_EQ(out[j].im, static_cast<T>(fx[j].im)) << "load_from " << j;
    }
  }
}

TEST(SimdPack, AlgebraMatchesScalarAtEveryWidth) {
  check_pack_algebra<double, 1>(3);
  check_pack_algebra<double, 2>(5);
  check_pack_algebra<double, 4>(7);
  check_pack_algebra<double, 8>(11);
  check_pack_algebra<float, 1>(13);
  check_pack_algebra<float, 2>(17);
  check_pack_algebra<float, 4>(19);
  check_pack_algebra<float, 8>(23);
}

TEST(SimdPack, WidthHelpers) {
  EXPECT_EQ(simd::normalize_simd_width(0), 1);
  EXPECT_EQ(simd::normalize_simd_width(3), 2);
  EXPECT_EQ(simd::normalize_simd_width(5), 4);
  EXPECT_EQ(simd::normalize_simd_width(100), 8);
  // Degradation: the largest width that fits the lane count.
  EXPECT_EQ(simd::width_for(8, 3), 2);
  EXPECT_EQ(simd::width_for(8, 1), 1);
  EXPECT_EQ(simd::width_for(4, 12), 4);
  // dispatch_width reaches the matching compile-time tag.
  for (const int w : kWidths) {
    int got = 0;
    simd::dispatch_width(w, [&](auto wc) { got = decltype(wc)::value; });
    EXPECT_EQ(got, w);
  }
}

TEST(SimdPack, EffectiveWidthAndPackAlignedBlocking) {
  LaunchPolicy p;
  p.backend = Backend::Simd;
  EXPECT_EQ(effective_simd_width(p), simd::kMaxSimdWidth);  // 0 = native
  p.simd_width = 4;
  EXPECT_EQ(effective_simd_width(p), 4);
  p.backend = Backend::Threaded;
  EXPECT_EQ(effective_simd_width(p), 4);  // explicit width vectorizes Threaded
  p.simd_width = 0;
  EXPECT_EQ(effective_simd_width(p), 1);  // Threaded default stays scalar
  p.backend = Backend::Serial;
  p.simd_width = 8;
  EXPECT_EQ(effective_simd_width(p), 1);

  // A lane pack must never straddle dispatch items: non-multiple
  // rhs-blockings clamp UP, 0 (whole axis) and multiples pass through.
  LaunchPolicy q;
  q.rhs_block = 1;
  EXPECT_EQ(align_rhs_block(q, 4).rhs_block, 4);
  q.rhs_block = 6;
  EXPECT_EQ(align_rhs_block(q, 4).rhs_block, 8);
  q.rhs_block = 8;
  EXPECT_EQ(align_rhs_block(q, 4).rhs_block, 8);
  q.rhs_block = 0;
  EXPECT_EQ(align_rhs_block(q, 4).rhs_block, 0);
  q.rhs_block = 5;
  EXPECT_EQ(align_rhs_block(q, 1).rhs_block, 5);
}

TEST(SimdPack, RhsLaneWidthRule) {
  const LaunchPolicy dflt{};  // Threaded, auto width: what every solve runs
  const int dw = rhs_lane_width<double>(dflt, 64);
  const int fw = rhs_lane_width<float>(dflt, 64);
  EXPECT_EQ(dw, simd::native_width<double>);
  EXPECT_EQ(fw, simd::native_width<float>);
  EXPECT_EQ(dw, simd::kMaxSimdWidth);  // the cap counts double lanes
  if (simd::kMaxSimdWidth == 1) {
    // Scalar build (QMG_MAX_SIMD_WIDTH=1): no lanes at any precision.
    EXPECT_EQ(fw, 1);
  } else {
    // Float fills the same register with twice the double lanes.
    EXPECT_EQ(fw, std::min(2 * dw, simd::kSimdWidthLimit));
  }

  LaunchPolicy p;
  p.backend = Backend::Simd;
  EXPECT_EQ(rhs_lane_width<float>(p, 64), fw);  // same rule under Simd
  for (const Backend b : {Backend::Threaded, Backend::Simd}) {
    // An explicit width is honoured, also past the native one...
    p.backend = b;
    p.simd_width = 1;
    EXPECT_EQ(rhs_lane_width<float>(p, 12), 1);
    p.simd_width = 8;
    EXPECT_EQ(rhs_lane_width<double>(p, 12), 8);
    // ...and degrades to the widest pack nrhs fills.
    EXPECT_EQ(rhs_lane_width<double>(p, 5), 4);
    EXPECT_EQ(rhs_lane_width<double>(p, 3), 2);
    EXPECT_EQ(rhs_lane_width<float>(p, 1), 1);
  }
  EXPECT_EQ(rhs_lane_width<float>(dflt, 1), 1);
  EXPECT_EQ(rhs_lane_width<float>(dflt, 3), std::min(fw, 2));
  // Serial is the reference numerics and SimtModel's lanes are simulated
  // threads: both stay scalar whatever width is asked for.
  for (const Backend b : {Backend::Serial, Backend::SimtModel}) {
    p.backend = b;
    p.simd_width = 0;
    EXPECT_EQ(rhs_lane_width<float>(p, 12), 1);
    p.simd_width = 8;
    EXPECT_EQ(rhs_lane_width<float>(p, 12), 1);
  }
  // Single-rhs ops keep their own rule: Threaded auto stays scalar.
  EXPECT_EQ(effective_simd_width(dflt), 1);
}

TEST(SimdPack, FieldStorageIsAligned) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  const ColorSpinorField<double> x(geom, 4, 3);
  EXPECT_TRUE(is_field_aligned(x.data()));
  const BlockSpinor<float> b(geom, 4, 3, 5);
  EXPECT_TRUE(is_field_aligned(b.data()));
}

// --- dispatch-state fixture --------------------------------------------------

/// Saves and restores the process-wide dispatch state so tests compose.
class SimdDispatchTest : public ::testing::Test {
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

  static void use_simd(int width, int rhs_block = 0) {
    ThreadPool::instance().resize(1);
    LaunchPolicy p;
    p.backend = Backend::Simd;
    p.simd_width = width;
    p.rhs_block = rhs_block;
    set_default_policy(p);
  }

  /// Threads partition pack groups: the composed Threaded+lanes policy.
  static void use_threaded_lanes(int threads, int width, int rhs_block = 0) {
    ThreadPool::instance().resize(threads);
    LaunchPolicy p;
    p.backend = Backend::Threaded;
    p.grain = 1;  // always engage the pool, even on tiny test lattices
    p.simd_width = width;
    p.rhs_block = rhs_block;
    set_default_policy(p);
  }

 private:
  LaunchPolicy saved_;
};

// --- single-rhs BLAS: site-axis lanes ---------------------------------------

TEST_F(SimdDispatchTest, ElementwiseBlasBitIdenticalAcrossWidths) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  ColorSpinorField<double> x(geom, 4, 3), y0(geom, 4, 3);
  x.gaussian(101);
  y0.gaussian(102);
  const Complex<double> ca(0.3, -1.1);

  // Reference: one Serial pass through the whole elementwise chain.
  use_serial();
  auto ref = y0;
  blas::axpy(0.7, x, ref);
  blas::xpay(x, -0.2, ref);
  blas::axpby(1.3, x, 0.5, ref);
  blas::caxpy(ca, x, ref);
  blas::cxpay(x, ca, ref);
  blas::scale(0.9, ref);

  for (const int w : kWidths) {
    use_simd(w);
    auto got = y0;
    blas::axpy(0.7, x, got);
    blas::xpay(x, -0.2, got);
    blas::axpby(1.3, x, 0.5, got);
    blas::caxpy(ca, x, got);
    blas::cxpay(x, ca, got);
    blas::scale(0.9, got);
    EXPECT_TRUE(bits_equal(got, ref)) << "simd width=" << w;

    for (const int t : kThreadCounts) {
      use_threaded_lanes(t, w);
      auto got_t = y0;
      blas::axpy(0.7, x, got_t);
      blas::xpay(x, -0.2, got_t);
      blas::axpby(1.3, x, 0.5, got_t);
      blas::caxpy(ca, x, got_t);
      blas::cxpay(x, ca, got_t);
      blas::scale(0.9, got_t);
      EXPECT_TRUE(bits_equal(got_t, ref)) << "threads=" << t << " width=" << w;
    }
  }
}

TEST_F(SimdDispatchTest, ReductionsBitIdenticalAcrossWidthsAndThreads) {
  // The chunk-lane scheme: lanes are whole reduction chunks, every lane
  // accumulates its chunks in the exact sequential order, and the fixed
  // pairwise combine tree is shared with parallel_reduce — so norm2/cdot
  // are bit-identical at every width AND every thread count.
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  ColorSpinorField<double> x(geom, 4, 3), y(geom, 4, 3);
  x.gaussian(111);
  y.gaussian(112);

  use_serial();
  const double ref_n2 = blas::norm2(x);
  const complexd ref_dot = blas::cdot(x, y);

  for (const int w : kWidths) {
    use_simd(w);
    EXPECT_EQ(blas::norm2(x), ref_n2) << "simd width=" << w;
    const complexd d = blas::cdot(x, y);
    EXPECT_EQ(d.re, ref_dot.re) << "simd width=" << w;
    EXPECT_EQ(d.im, ref_dot.im) << "simd width=" << w;
    for (const int t : kThreadCounts) {
      use_threaded_lanes(t, w);
      EXPECT_EQ(blas::norm2(x), ref_n2) << "threads=" << t << " width=" << w;
      const complexd dt = blas::cdot(x, y);
      EXPECT_EQ(dt.re, ref_dot.re) << "threads=" << t << " width=" << w;
      EXPECT_EQ(dt.im, ref_dot.im) << "threads=" << t << " width=" << w;
    }
  }
}

// --- block BLAS: rhs-axis lanes ---------------------------------------------

TEST_F(SimdDispatchTest, BlockBlasBitIdenticalPerRhsWithMasks) {
  auto geom = make_geometry(Coord{4, 4, 4, 4});
  for (const int nrhs : kRhsCounts) {
    std::vector<ColorSpinorField<double>> xs, ys;
    for (int k = 0; k < nrhs; ++k) {
      xs.emplace_back(geom, 4, 3);
      xs.back().gaussian(200 + k);
      ys.emplace_back(geom, 4, 3);
      ys.back().gaussian(300 + k);
    }
    std::vector<double> a(nrhs), s(nrhs);
    std::vector<Complex<double>> c(nrhs);
    blas::RhsMask mask(nrhs, 1);
    for (int k = 0; k < nrhs; ++k) {
      a[k] = 0.1 * (k + 1);
      s[k] = 1.0 - 0.05 * k;
      c[k] = Complex<double>(0.2 * k, -0.3 * k);
      if (k % 3 == 2) mask[k] = 0;  // a converged rhs frozen mid-batch
    }

    const BlockSpinor<double> x_block = pack_block(xs);
    const BlockSpinor<double> y_block = pack_block(ys);

    use_serial();
    auto ref = y_block;
    blas::block_axpy(a, x_block, ref, &mask);
    blas::block_caxpy(c, x_block, ref, &mask);
    blas::block_xpay(x_block, a, ref, &mask);
    blas::block_scale(s, ref, &mask);
    const auto ref_n2 = blas::block_norm2(ref);
    const auto ref_dot = blas::block_cdot(x_block, ref);

    for (const int w : kWidths) {
      use_simd(w);
      auto got = y_block;
      blas::block_axpy(a, x_block, got, &mask);
      blas::block_caxpy(c, x_block, got, &mask);
      blas::block_xpay(x_block, a, got, &mask);
      blas::block_scale(s, got, &mask);
      for (int k = 0; k < nrhs; ++k)
        EXPECT_TRUE(bits_equal(got.extract_rhs(k), ref.extract_rhs(k)))
            << "nrhs=" << nrhs << " width=" << w << " rhs=" << k;
      const auto n2 = blas::block_norm2(got);
      const auto dot = blas::block_cdot(x_block, got);
      for (int k = 0; k < nrhs; ++k) {
        EXPECT_EQ(n2[k], ref_n2[k]) << "nrhs=" << nrhs << " width=" << w;
        EXPECT_EQ(dot[k].re, ref_dot[k].re) << "nrhs=" << nrhs;
        EXPECT_EQ(dot[k].im, ref_dot[k].im) << "nrhs=" << nrhs;
      }
    }
    for (const int t : kThreadCounts) {
      use_threaded_lanes(t, simd::kMaxSimdWidth);
      auto got = y_block;
      blas::block_axpy(a, x_block, got, &mask);
      blas::block_caxpy(c, x_block, got, &mask);
      blas::block_xpay(x_block, a, got, &mask);
      blas::block_scale(s, got, &mask);
      for (int k = 0; k < nrhs; ++k)
        EXPECT_TRUE(bits_equal(got.extract_rhs(k), ref.extract_rhs(k)))
            << "nrhs=" << nrhs << " threads=" << t << " rhs=" << k;
    }
  }
}

/// The block reductions engage the pool on the per-rhs element count, as the
/// block updates do, and keep the chunk decomposition and combine tree, so
/// they stay bitwise equal to Serial.  An 8^4 float block holds 49152
/// elements per rhs, enough for the host grain (1024 per worker) at 4
/// threads; both the lane path (default policy) and the scalar block_reduce
/// (explicit width 1) run there.
TEST_F(SimdDispatchTest, BlockReductionsOnThePoolMatchSerial) {
  auto geom = make_geometry(Coord{8, 8, 8, 8});
  LaunchPolicy serial;
  serial.backend = Backend::Serial;
  for (const int nrhs : {4, 12}) {
    std::vector<ColorSpinorField<float>> xs, ys;
    for (int k = 0; k < nrhs; ++k) {
      xs.emplace_back(geom, 4, 3);
      xs.back().gaussian(500 + k);
      ys.emplace_back(geom, 4, 3);
      ys.back().gaussian(600 + k);
    }
    const BlockSpinor<float> x = pack_block(xs);
    const BlockSpinor<float> y = pack_block(ys);
    ASSERT_GE(x.rhs_size(), 4 * 1024);
    const auto ref_n2 = blas::block_norm2(x, serial);
    const auto ref_dot = blas::block_cdot(x, y, serial);
    for (const int threads : {2, 4}) {
      ThreadPool::instance().resize(threads);
      set_default_policy(LaunchPolicy{});
      LaunchPolicy scalar = blas::detail::policy_for(Location::Host);
      scalar.simd_width = 1;
      for (const LaunchPolicy& p :
           {blas::detail::policy_for(Location::Host), scalar}) {
        const auto n2 = blas::block_norm2(x, p);
        const auto dot = blas::block_cdot(x, y, p);
        for (int k = 0; k < nrhs; ++k) {
          EXPECT_EQ(n2[k], ref_n2[k])
              << "nrhs=" << nrhs << " threads=" << threads
              << " width=" << p.simd_width << " rhs=" << k;
          EXPECT_EQ(dot[k].re, ref_dot[k].re) << "nrhs=" << nrhs;
          EXPECT_EQ(dot[k].im, ref_dot[k].im) << "nrhs=" << nrhs;
        }
      }
    }
  }
}

// --- batched kernels: shared operator fixture -------------------------------

/// Shared small-but-real problem: disordered Wilson-Clover on 4^4 and a
/// Galerkin-coarsened operator from genuine near-null vectors.
class SimdEquivalenceTest : public SimdDispatchTest {
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
    half_ = new CoarseDirac<double>(
        build_coarse_operator(view, *transfer_, CoarseStorage::Half16));
    half_->compute_diag_inverse();
  }

  static void TearDownTestSuite() {
    delete half_;
    delete coarse_;
    delete transfer_;
    delete op_;
    delete clover_;
    delete gauge_;
  }

  static BlockSpinor<double> random_block(const ColorSpinorField<double>& proto,
                                          int nrhs, std::uint64_t seed) {
    std::vector<ColorSpinorField<double>> fields;
    for (int k = 0; k < nrhs; ++k) {
      fields.push_back(proto.similar());
      fields.back().gaussian(seed + k);
    }
    return pack_block(fields);
  }

  static GeometryPtr geom_;
  static GaugeField<double>* gauge_;
  static CloverField<double>* clover_;
  static WilsonCloverOp<double>* op_;
  static Transfer<double>* transfer_;
  static CoarseDirac<double>* coarse_;
  static CoarseDirac<double>* half_;
};

GeometryPtr SimdEquivalenceTest::geom_;
GaugeField<double>* SimdEquivalenceTest::gauge_ = nullptr;
CloverField<double>* SimdEquivalenceTest::clover_ = nullptr;
WilsonCloverOp<double>* SimdEquivalenceTest::op_ = nullptr;
Transfer<double>* SimdEquivalenceTest::transfer_ = nullptr;
CoarseDirac<double>* SimdEquivalenceTest::coarse_ = nullptr;
CoarseDirac<double>* SimdEquivalenceTest::half_ = nullptr;

TEST_F(SimdEquivalenceTest, BatchedWilsonCloverSimdMatchesSerial) {
  for (const int nrhs : kRhsCounts) {
    const auto in = random_block(op_->create_vector(), nrhs, 400);

    use_serial();
    auto ref = in.similar(), ref_d = in.similar(), ref_di = in.similar();
    op_->apply_block(ref, in);
    op_->apply_diag_block(ref_d, in);
    op_->apply_diag_inverse_block(ref_di, in);

    for (const int w : kWidths) {
      for (const int rb : {0, simd::normalize_simd_width(w)}) {
        use_simd(w, rb);
        auto out = in.similar(), out_d = in.similar(), out_di = in.similar();
        op_->apply_block(out, in);
        op_->apply_diag_block(out_d, in);
        op_->apply_diag_inverse_block(out_di, in);
        for (int k = 0; k < nrhs; ++k) {
          EXPECT_TRUE(bits_equal(out.extract_rhs(k), ref.extract_rhs(k)))
              << "apply nrhs=" << nrhs << " w=" << w << " rb=" << rb
              << " rhs=" << k;
          EXPECT_TRUE(bits_equal(out_d.extract_rhs(k), ref_d.extract_rhs(k)))
              << "diag nrhs=" << nrhs << " w=" << w << " rhs=" << k;
          EXPECT_TRUE(
              bits_equal(out_di.extract_rhs(k), ref_di.extract_rhs(k)))
              << "diag_inv nrhs=" << nrhs << " w=" << w << " rhs=" << k;
        }
      }
    }
    for (const int t : kThreadCounts) {
      use_threaded_lanes(t, simd::kMaxSimdWidth);
      auto out = in.similar();
      op_->apply_block(out, in);
      for (int k = 0; k < nrhs; ++k)
        EXPECT_TRUE(bits_equal(out.extract_rhs(k), ref.extract_rhs(k)))
            << "apply nrhs=" << nrhs << " threads=" << t << " rhs=" << k;
    }
  }
}

TEST_F(SimdEquivalenceTest, CoarseApplySimdMatchesSerialAllStrategies) {
  const CoarseKernelConfig configs[] = {
      {Strategy::GridOnly, 1, 1, 1},
      {Strategy::ColorSpin, 1, 1, 2},
      {Strategy::StencilDir, 3, 1, 2},
      {Strategy::DotProduct, 3, 2, 2},
  };
  for (const int nrhs : kRhsCounts) {
    const auto in = random_block(coarse_->create_vector(), nrhs, 500);
    for (const auto& cfg : configs) {
      LaunchPolicy serial;
      serial.backend = Backend::Serial;
      use_serial();
      auto ref = in.similar();
      coarse_->apply_block_with_config(ref, in, cfg, serial);

      for (const int w : kWidths) {
        LaunchPolicy lanes;
        lanes.backend = Backend::Simd;
        lanes.simd_width = w;
        auto out = in.similar();
        coarse_->apply_block_with_config(out, in, cfg, lanes);
        for (int k = 0; k < nrhs; ++k)
          EXPECT_TRUE(bits_equal(out.extract_rhs(k), ref.extract_rhs(k)))
              << cfg.to_string() << " nrhs=" << nrhs << " w=" << w
              << " rhs=" << k;
      }
      for (const int t : kThreadCounts) {
        ThreadPool::instance().resize(t);
        LaunchPolicy tw;
        tw.backend = Backend::Threaded;
        tw.grain = 1;
        tw.simd_width = simd::kMaxSimdWidth;
        auto out = in.similar();
        coarse_->apply_block_with_config(out, in, cfg, tw);
        for (int k = 0; k < nrhs; ++k)
          EXPECT_TRUE(bits_equal(out.extract_rhs(k), ref.extract_rhs(k)))
              << cfg.to_string() << " nrhs=" << nrhs << " threads=" << t
              << " rhs=" << k;
        ThreadPool::instance().resize(1);
      }
    }
  }
}

TEST_F(SimdEquivalenceTest, CoarseHalf16DequantizeRowSimdMatchesSerial) {
  // The compressed-storage row path: lanes share one dequantized row, so
  // the per-rhs result must stay bit-identical to the scalar mixed apply.
  const CoarseKernelConfig cfg{Strategy::DotProduct, 3, 2, 2};
  for (const int nrhs : kRhsCounts) {
    const auto in = random_block(half_->create_vector(), nrhs, 600);
    LaunchPolicy serial;
    serial.backend = Backend::Serial;
    use_serial();
    auto ref = in.similar();
    half_->apply_block_with_config(ref, in, cfg, serial);
    for (const int w : kWidths) {
      LaunchPolicy lanes;
      lanes.backend = Backend::Simd;
      lanes.simd_width = w;
      auto out = in.similar();
      half_->apply_block_with_config(out, in, cfg, lanes);
      for (int k = 0; k < nrhs; ++k)
        EXPECT_TRUE(bits_equal(out.extract_rhs(k), ref.extract_rhs(k)))
            << "half16 nrhs=" << nrhs << " w=" << w << " rhs=" << k;
    }
  }
}

TEST_F(SimdEquivalenceTest, BlockTransfersSimdMatchesSerial) {
  for (const int nrhs : kRhsCounts) {
    const auto fine_in = random_block(op_->create_vector(), nrhs, 700);
    const auto coarse_in = random_block(coarse_->create_vector(), nrhs, 800);

    use_serial();
    BlockSpinor<double> ref_c = coarse_in.similar();
    transfer_->restrict_to_coarse(ref_c, fine_in);
    BlockSpinor<double> ref_f = fine_in.similar();
    transfer_->prolongate(ref_f, coarse_in);

    for (const int w : kWidths) {
      use_simd(w);
      BlockSpinor<double> got_c = coarse_in.similar();
      transfer_->restrict_to_coarse(got_c, fine_in);
      BlockSpinor<double> got_f = fine_in.similar();
      transfer_->prolongate(got_f, coarse_in);
      for (int k = 0; k < nrhs; ++k) {
        EXPECT_TRUE(bits_equal(got_c.extract_rhs(k), ref_c.extract_rhs(k)))
            << "restrict nrhs=" << nrhs << " w=" << w << " rhs=" << k;
        EXPECT_TRUE(bits_equal(got_f.extract_rhs(k), ref_f.extract_rhs(k)))
            << "prolong nrhs=" << nrhs << " w=" << w << " rhs=" << k;
      }
    }
    for (const int t : kThreadCounts) {
      use_threaded_lanes(t, simd::kMaxSimdWidth);
      BlockSpinor<double> got_c = coarse_in.similar();
      transfer_->restrict_to_coarse(got_c, fine_in);
      for (int k = 0; k < nrhs; ++k)
        EXPECT_TRUE(bits_equal(got_c.extract_rhs(k), ref_c.extract_rhs(k)))
            << "restrict nrhs=" << nrhs << " threads=" << t << " rhs=" << k;
    }
  }
}

// --- float kernels on the default policy -------------------------------------

/// The hierarchy runs float, and every solve launches on LaunchPolicy{}
/// (Threaded, auto width), which gives the batched kernels native float
/// lanes.  Each must equal Serial bitwise per rhs at 1/2/4 threads and rhs
/// counts with full packs, a scalar tail and no pack at all.  The lattice
/// is 4^3x8 so the host BLAS threshold (1024 elements per worker) engages
/// the pool at 4 threads.
class SimdFloatDefaultTest : public SimdDispatchTest {
 protected:
  static constexpr int kFloatRhsCounts[] = {1, 4, 6, 12};

  static void SetUpTestSuite() {
    geom_ = make_geometry(Coord{4, 4, 4, 8});
    gauge_ = new GaugeField<float>(disordered_gauge<float>(geom_, 0.4, 31));
    clover_ = new CloverField<float>(
        build_clover_with_inverse(*gauge_, 1.0f, 0.1f));
    op_ = new WilsonCloverOp<float>(
        *gauge_, WilsonParams<float>{.mass = 0.1f, .csw = 1.0f}, clover_);
    schur_ = new SchurWilsonOp<float>(*op_);
    NullSpaceParams ns;
    ns.nvec = 4;
    ns.iters = 12;
    auto vecs = generate_null_vectors(*op_, ns);
    auto map = std::make_shared<const BlockMap>(geom_, Coord{2, 2, 2, 2});
    transfer_ = new Transfer<float>(map, 4, 3, 4);
    transfer_->set_null_vectors(vecs);
    const WilsonStencilView<float> view(*op_);
    coarse_ = new CoarseDirac<float>(build_coarse_operator(view, *transfer_));
  }

  static void TearDownTestSuite() {
    delete coarse_;
    delete transfer_;
    delete schur_;
    delete op_;
    delete clover_;
    delete gauge_;
  }

  static void use_default(int threads) {
    ThreadPool::instance().resize(threads);
    set_default_policy(LaunchPolicy{});
  }

  static BlockSpinor<float> random_block(const ColorSpinorField<float>& proto,
                                         int nrhs, std::uint64_t seed) {
    std::vector<ColorSpinorField<float>> fields;
    for (int k = 0; k < nrhs; ++k) {
      fields.push_back(proto.similar());
      fields.back().gaussian(seed + k);
    }
    return pack_block(fields);
  }

  static ::testing::AssertionResult blocks_equal(const BlockSpinor<float>& a,
                                                 const BlockSpinor<float>& b) {
    for (int k = 0; k < a.nrhs(); ++k) {
      auto r = bits_equal(a.extract_rhs(k), b.extract_rhs(k));
      if (!r) return r << " (rhs " << k << ")";
    }
    return ::testing::AssertionSuccess();
  }

  static GeometryPtr geom_;
  static GaugeField<float>* gauge_;
  static CloverField<float>* clover_;
  static WilsonCloverOp<float>* op_;
  static SchurWilsonOp<float>* schur_;
  static Transfer<float>* transfer_;
  static CoarseDirac<float>* coarse_;
};

GeometryPtr SimdFloatDefaultTest::geom_;
GaugeField<float>* SimdFloatDefaultTest::gauge_ = nullptr;
CloverField<float>* SimdFloatDefaultTest::clover_ = nullptr;
WilsonCloverOp<float>* SimdFloatDefaultTest::op_ = nullptr;
SchurWilsonOp<float>* SimdFloatDefaultTest::schur_ = nullptr;
Transfer<float>* SimdFloatDefaultTest::transfer_ = nullptr;
CoarseDirac<float>* SimdFloatDefaultTest::coarse_ = nullptr;

TEST_F(SimdFloatDefaultTest, WilsonAndSchurBlocksMatchSerial) {
  for (const int nrhs : kFloatRhsCounts) {
    const auto full = random_block(op_->create_vector(), nrhs, 900);
    const auto even = random_block(schur_->create_vector(), nrhs, 950);

    use_serial();
    auto ref = full.similar();
    op_->apply_block(ref, full);
    auto ref_s = even.similar();
    schur_->apply_block(ref_s, even);
    auto ref_hat = even.similar();
    schur_->prepare_block(ref_hat, full);
    auto ref_x = full.similar();
    schur_->reconstruct_block(ref_x, even, full);
    // The Serial reference is itself the single-rhs operator, rhs by rhs.
    for (int k = 0; k < nrhs; ++k) {
      const auto fk = full.extract_rhs(k);
      const auto ek = even.extract_rhs(k);
      auto f = fk.similar();
      op_->apply(f, fk);
      EXPECT_TRUE(bits_equal(f, ref.extract_rhs(k))) << "apply rhs " << k;
      auto e = ek.similar();
      schur_->apply(e, ek);
      EXPECT_TRUE(bits_equal(e, ref_s.extract_rhs(k))) << "schur rhs " << k;
      schur_->prepare(e, fk);
      EXPECT_TRUE(bits_equal(e, ref_hat.extract_rhs(k)))
          << "prepare rhs " << k;
      schur_->reconstruct(f, ek, fk);
      EXPECT_TRUE(bits_equal(f, ref_x.extract_rhs(k)))
          << "reconstruct rhs " << k;
    }

    for (const int t : kThreadCounts) {
      use_default(t);
      auto out = full.similar();
      op_->apply_block(out, full);
      EXPECT_TRUE(blocks_equal(out, ref)) << "apply nrhs=" << nrhs
                                          << " threads=" << t;
      auto out_s = even.similar();
      schur_->apply_block(out_s, even);
      EXPECT_TRUE(blocks_equal(out_s, ref_s)) << "schur nrhs=" << nrhs
                                              << " threads=" << t;
      auto out_hat = even.similar();
      schur_->prepare_block(out_hat, full);
      EXPECT_TRUE(blocks_equal(out_hat, ref_hat))
          << "prepare nrhs=" << nrhs << " threads=" << t;
      auto out_x = full.similar();
      schur_->reconstruct_block(out_x, even, full);
      EXPECT_TRUE(blocks_equal(out_x, ref_x))
          << "reconstruct nrhs=" << nrhs << " threads=" << t;
    }
  }
}

TEST_F(SimdFloatDefaultTest, TransfersMatchSerial) {
  for (const int nrhs : kFloatRhsCounts) {
    const auto fine_in = random_block(op_->create_vector(), nrhs, 1000);
    const auto coarse_in = random_block(coarse_->create_vector(), nrhs, 1100);

    use_serial();
    auto ref_c = coarse_in.similar();
    transfer_->restrict_to_coarse(ref_c, fine_in);
    auto ref_f = fine_in.similar();
    transfer_->prolongate(ref_f, coarse_in);
    for (int k = 0; k < nrhs; ++k) {
      auto c = coarse_in.extract_rhs(k);
      transfer_->restrict_to_coarse(c, fine_in.extract_rhs(k));
      EXPECT_TRUE(bits_equal(c, ref_c.extract_rhs(k))) << "restrict rhs " << k;
      auto f = fine_in.extract_rhs(k);
      transfer_->prolongate(f, coarse_in.extract_rhs(k));
      EXPECT_TRUE(bits_equal(f, ref_f.extract_rhs(k))) << "prolong rhs " << k;
    }

    for (const int t : kThreadCounts) {
      use_default(t);
      auto got_c = coarse_in.similar();
      transfer_->restrict_to_coarse(got_c, fine_in);
      EXPECT_TRUE(blocks_equal(got_c, ref_c)) << "restrict nrhs=" << nrhs
                                              << " threads=" << t;
      auto got_f = fine_in.similar();
      transfer_->prolongate(got_f, coarse_in);
      EXPECT_TRUE(blocks_equal(got_f, ref_f)) << "prolong nrhs=" << nrhs
                                              << " threads=" << t;
    }
  }
}

TEST_F(SimdFloatDefaultTest, BlockBlasMatchesSerial) {
  for (const int nrhs : kFloatRhsCounts) {
    const auto x = random_block(op_->create_vector(), nrhs, 1200);
    const auto y0 = random_block(op_->create_vector(), nrhs, 1300);
    std::vector<float> a(nrhs), sc(nrhs);
    std::vector<Complex<float>> c(nrhs);
    blas::RhsMask mask(nrhs, 1);
    for (int k = 0; k < nrhs; ++k) {
      a[k] = 0.1f * static_cast<float>(k + 1);
      sc[k] = 1.0f - 0.05f * static_cast<float>(k);
      c[k] = Complex<float>(0.2f * static_cast<float>(k), -0.3f);
      if (k % 3 == 2) mask[k] = 0;
    }
    auto chain = [&](BlockSpinor<float>& y) {
      blas::block_copy(y, y0);
      blas::block_axpy(a, x, y, &mask);
      blas::block_caxpy(c, x, y, &mask);
      blas::block_xpay(x, a, y, &mask);
      blas::block_scale(sc, y, &mask);
    };

    use_serial();
    auto ref = y0.similar();
    chain(ref);
    const auto ref_n2 = blas::block_norm2(ref);
    const auto ref_dot = blas::block_cdot(x, ref);

    for (const int t : kThreadCounts) {
      use_default(t);
      auto got = y0.similar();
      chain(got);
      EXPECT_TRUE(blocks_equal(got, ref)) << "nrhs=" << nrhs
                                          << " threads=" << t;
      const auto n2 = blas::block_norm2(got);
      const auto dot = blas::block_cdot(x, got);
      for (int k = 0; k < nrhs; ++k) {
        EXPECT_EQ(n2[k], ref_n2[k]) << "nrhs=" << nrhs << " threads=" << t;
        EXPECT_EQ(dot[k].re, ref_dot[k].re) << "nrhs=" << nrhs;
        EXPECT_EQ(dot[k].im, ref_dot[k].im) << "nrhs=" << nrhs;
      }
    }
  }
}

TEST_F(SimdFloatDefaultTest, CoarseApplyAtPinnedConfigMatchesSerial) {
  const CoarseKernelConfig cfg{Strategy::ColorSpin, 1, 1, 2};
  LaunchPolicy serial;
  serial.backend = Backend::Serial;
  for (const int nrhs : kFloatRhsCounts) {
    const auto in = random_block(coarse_->create_vector(), nrhs, 1400);
    use_serial();
    auto ref = in.similar();
    coarse_->apply_block_with_config(ref, in, cfg, serial);
    for (int k = 0; k < nrhs; ++k) {
      const auto xk = in.extract_rhs(k);
      auto yk = xk.similar();
      coarse_->apply_with_config(yk, xk, cfg, serial);
      EXPECT_TRUE(bits_equal(yk, ref.extract_rhs(k))) << "rhs " << k;
    }
    for (const int t : kThreadCounts) {
      use_default(t);
      auto out = in.similar();
      coarse_->apply_block_with_config(out, in, cfg, LaunchPolicy{});
      EXPECT_TRUE(blocks_equal(out, ref)) << "nrhs=" << nrhs
                                          << " threads=" << t;
    }
  }
}

// --- tune-cache width plumbing ----------------------------------------------

TEST(SimdTuneCache, WidthTaggedKeysRoundTrip) {
  auto& cache = TuneCache::instance();
  cache.clear();
  // Keys carry the build's native pack width, so a cache written by a
  // scalar build never aliases a vector build's entries.
  const std::string key = mrhs_tune_key(256, 8, 12, "d");
  EXPECT_NE(key.find("/W=" + std::to_string(simd::kMaxSimdWidth)),
            std::string::npos);

  LaunchPolicy p;
  p.backend = Backend::Simd;
  p.simd_width = 4;
  p.rhs_block = 4;
  cache.store_launch(key, p);
  const std::string path = ::testing::TempDir() + "/qmg_tune_cache_simd.txt";
  ASSERT_TRUE(cache.save(path));
  cache.clear();
  ASSERT_TRUE(cache.load(path));
  LaunchPolicy got;
  ASSERT_TRUE(cache.lookup_launch(key, &got));
  EXPECT_EQ(got.backend, Backend::Simd);
  EXPECT_EQ(got.simd_width, 4);
  EXPECT_EQ(got.rhs_block, 4);
  cache.clear();
  std::remove(path.c_str());
}

TEST(SimdTuneCache, RejectsPackSplittingRhsBlock) {
  auto& cache = TuneCache::instance();
  cache.clear();
  const std::string path =
      ::testing::TempDir() + "/qmg_tune_cache_badwidth.txt";
  {
    // rhs_block=3 with a width-4 Simd policy would split a pack across
    // dispatch items: the loader must reject the file outright.
    std::ofstream out(path, std::ios::trunc);
    out << "qmg-tune-cache 4\n";
    out << "L\tsome_kernel/V=256/N=8/W=4/T=1\t3\t1\t1\t3\t4\n";
  }
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.launch_size(), 0u);
  std::remove(path.c_str());
}

TEST(SimdTuneCache, LegacyAutoWidthsLoadAsTheWidthTheyMeant) {
  auto& cache = TuneCache::instance();
  cache.clear();
  const std::string path = ::testing::TempDir() + "/qmg_tune_cache_v5w.txt";
  {
    // Before v6 an auto width meant scalar under Threaded and the
    // double-lane cap under Simd; the entries must replay exactly that.
    std::ofstream out(path, std::ios::trunc);
    out << "qmg-tune-cache 5\n";
    out << "L\tthreaded_kernel\t1\t1\t128\t1\t0\n";
    out << "L\tsimd_kernel\t3\t1\t128\t0\t0\n";
  }
  ASSERT_TRUE(cache.load(path));
  LaunchPolicy got;
  ASSERT_TRUE(cache.lookup_launch("threaded_kernel", &got));
  EXPECT_EQ(got.simd_width, 1);
  EXPECT_EQ(rhs_lane_width<float>(got, 12), 1);
  ASSERT_TRUE(cache.lookup_launch("simd_kernel", &got));
  EXPECT_EQ(got.simd_width, simd::kMaxSimdWidth);

  // A v6 file keeps the auto width: native rhs lanes.
  LaunchPolicy lanes;
  lanes.backend = Backend::Threaded;
  cache.store_launch("threaded_kernel", lanes);
  ASSERT_TRUE(cache.save(path));
  cache.clear();
  ASSERT_TRUE(cache.load(path));
  ASSERT_TRUE(cache.lookup_launch("threaded_kernel", &got));
  EXPECT_EQ(got.simd_width, 0);
  EXPECT_EQ(rhs_lane_width<float>(got, 12), simd::native_width<float>);
  cache.clear();
  std::remove(path.c_str());
}

TEST(SimdTuneCache, CandidatesNeverSplitAPack) {
  const int saved_threads = ThreadPool::instance().num_threads();
  ThreadPool::instance().resize(2);
  for (const int nrhs : {1, 3, 4, 12}) {
    bool scalar_threaded = false;
    for (const auto& p : TuneCache::launch_candidates_2d(nrhs)) {
      // The auto widths resolve per precision; float packs are the widest.
      for (const int w : {rhs_lane_width<float>(p, nrhs),
                          rhs_lane_width<double>(p, nrhs)}) {
        if (w > 1 && p.rhs_block > 0) {
          EXPECT_EQ(p.rhs_block % w, 0)
              << "nrhs=" << nrhs << " backend=" << to_string(p.backend)
              << " rhs_block=" << p.rhs_block << " width=" << w;
        }
      }
      scalar_threaded |= p.backend == Backend::Threaded && p.simd_width == 1;
    }
    // The sweep keeps the pool without lanes as a candidate.
    EXPECT_TRUE(scalar_threaded) << "nrhs=" << nrhs;
  }
  ThreadPool::instance().resize(saved_threads);
  // The native-width Simd candidate is explored whenever the build has
  // vector lanes at all.
  if (simd::kMaxSimdWidth > 1) {
    bool has_simd = false;
    for (const auto& p : TuneCache::launch_candidates())
      has_simd |= p.backend == Backend::Simd;
    EXPECT_TRUE(has_simd);
  }
}

}  // namespace
}  // namespace qmg
