// Ablation: the adaptive part of the adaptive geometric MG setup (paper
// section 3.4, steps 1-2).  Null-vector candidates from plain relaxation are
// refined by v <- (1 - B M) v against the current two-grid method, then the
// hierarchy is rebuilt.  Without refinement the coarse space degrades as the
// mass approaches criticality and the outer iteration count grows; with one
// refinement pass it stays essentially flat — the property that makes the
// paper's Table 3 MG iteration counts mass-independent.
//
//   ./bench_ablation_adaptive [--l=8] [--lt=16] [--roughness=0.58]

#include <cstdio>

#include "bench/common.h"

using namespace qmg;

namespace {

int run_mg(QmgContext& ctx, const ColorSpinorField<double>& b, int passes,
           double tol) {
  MgConfig mg;
  MgLevelConfig l1;
  l1.block = {4, 4, 4, 4};
  l1.nvec = 16;
  l1.null_iters = 25;
  l1.adaptive_passes = passes;
  MgLevelConfig l2 = l1;
  l2.block = {2, 2, 2, 2};
  l2.nvec = 16;
  mg.levels = {l1, l2};
  ctx.setup_multigrid(mg);
  auto x = ctx.create_vector();
  const auto r = ctx.solve(x, b, bench::solve_spec(tol, 200)).result();
  return r.iterations;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int l = static_cast<int>(args.get_int("l", 8));
  const int lt = static_cast<int>(args.get_int("lt", 16));
  const double roughness = args.get_double("roughness", 0.58);
  const double tol = args.get_double("tol", 1e-7);

  std::printf("=== Adaptive setup ablation: MG outer iterations vs mass "
              "(%d^3x%d, roughness %.2f) ===\n", l, lt, roughness);
  std::printf("%-9s %-14s %-14s %-14s %-12s\n", "mass", "passes=0",
              "passes=1", "passes=2", "BiCGStab");

  for (const double mass : {-0.10, -0.15, -0.18, -0.20}) {
    ContextOptions options;
    options.dims = {l, l, l, lt};
    options.mass = mass;
    options.roughness = roughness;
    QmgContext ctx(options);
    auto b = ctx.create_vector();
    b.gaussian(77);

    auto x = ctx.create_vector();
    const auto rb =
        ctx.solve(x, b,
                  bench::solve_spec(tol, 4000, SolveMethod::BiCgStab))
            .result();

    const int it0 = run_mg(ctx, b, 0, tol);
    const int it1 = run_mg(ctx, b, 1, tol);
    const int it2 = run_mg(ctx, b, 2, tol);
    std::printf("%-9.3f %-14d %-14d %-14d %-12d\n", mass, it0, it1, it2,
                rb.iterations);
  }
  std::printf("\npaper hook: section 3.4's setup is *adaptive* — the "
              "prolongator coefficients are set from vectors rich in "
              "slow-to-converge modes.  Refinement against the current "
              "two-grid method is what keeps the MG iteration count flat "
              "toward criticality (Table 3's stable 14-18 iterations).\n");
  return 0;
}
