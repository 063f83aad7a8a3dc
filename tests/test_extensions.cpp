// Tests for the section 9 "future work" multiple-right-hand-side coarse
// apply (the s-step coarsest solver's coverage lives in test_ca.cpp).

#include <gtest/gtest.h>

#include "dirac/clover.h"
#include "fields/blas.h"
#include "gauge/ensemble.h"
#include "mg/galerkin.h"
#include "mg/mrhs.h"
#include "mg/nullspace.h"
#include "mg/stencil.h"
#include "mg/transfer.h"

namespace qmg {
namespace {

/// A small real coarse operator for the extension tests.
struct CoarseFixture {
  GeometryPtr geom = make_geometry(Coord{4, 4, 4, 8});
  GaugeField<double> gauge = disordered_gauge<double>(geom, 0.4, 13);
  CloverField<double> clover = build_clover_with_inverse(gauge, 1.0, 0.1);
  WilsonCloverOp<double> op{gauge, {0.1, 1.0, 1.0}, &clover};
  std::shared_ptr<const BlockMap> map =
      std::make_shared<const BlockMap>(geom, Coord{2, 2, 2, 2});
  Transfer<double> transfer{map, 4, 3, 6};
  CoarseDirac<double> coarse = [&] {
    NullSpaceParams ns;
    ns.nvec = 6;
    ns.iters = 10;
    transfer.set_null_vectors(generate_null_vectors(op, ns));
    const WilsonStencilView<double> view(op);
    return CoarseDirac<double>(build_coarse_operator(view, transfer));
  }();
};

CoarseFixture& fixture() {
  static CoarseFixture f;
  return f;
}

class MrhsCounts : public ::testing::TestWithParam<int> {};

TEST_P(MrhsCounts, MatchesSingleRhsAppliesBitExactly) {
  auto& f = fixture();
  const int nrhs = GetParam();
  const CoarseKernelConfig config{Strategy::ColorSpin, 1, 1, 2};

  std::vector<ColorSpinorField<double>> in, out, ref;
  for (int k = 0; k < nrhs; ++k) {
    in.push_back(f.coarse.create_vector());
    in.back().gaussian(100 + k);
    out.push_back(f.coarse.create_vector());
    ref.push_back(f.coarse.create_vector());
    f.coarse.apply_with_config(ref.back(), in.back(), config);
  }

  const MultiRhsCoarseOp<double> mrhs(f.coarse);
  mrhs.apply(out, in, config);
  for (int k = 0; k < nrhs; ++k)
    for (long i = 0; i < out[k].size(); ++i) {
      ASSERT_EQ(out[k].data()[i].re, ref[k].data()[i].re)
          << "rhs " << k << " element " << i;
      ASSERT_EQ(out[k].data()[i].im, ref[k].data()[i].im);
    }
}

INSTANTIATE_TEST_SUITE_P(RhsCounts, MrhsCounts, ::testing::Values(1, 2, 12));

TEST(Mrhs, ArithmeticIntensityGrowsWithRhsCount) {
  auto& f = fixture();
  const MultiRhsCoarseOp<double> mrhs(f.coarse);
  const double i1 = mrhs.arithmetic_intensity(1);
  const double i12 = mrhs.arithmetic_intensity(12);
  EXPECT_GT(i12, 3 * i1);  // link amortization: paper section 9's point
}

TEST(Mrhs, SizeMismatchThrows) {
  auto& f = fixture();
  const MultiRhsCoarseOp<double> mrhs(f.coarse);
  std::vector<ColorSpinorField<double>> in(2, f.coarse.create_vector());
  std::vector<ColorSpinorField<double>> out(1, f.coarse.create_vector());
  EXPECT_THROW(mrhs.apply(out, in), std::invalid_argument);
}

}  // namespace
}  // namespace qmg
