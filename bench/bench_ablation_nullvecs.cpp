// Ablation: null-vector count (the 24/24 vs 24/32 vs 32/32 strategy choice
// of section 7.1).  More vectors capture more of the near-null space —
// fewer outer iterations — but every coarse operation scales like Nhat_c^2,
// so the intermediate grid gets more expensive (the paper finds 32/32 is
// usually a net loss).
//
//   ./bench_ablation_nullvecs [--l=6] [--lt=8]

#include <cstdio>

#include "bench/common.h"

using namespace qmg;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int l = static_cast<int>(args.get_int("l", 6));
  const int lt = static_cast<int>(args.get_int("lt", 8));

  ContextOptions options;
  options.dims = {l, l, l, lt};
  options.mass = args.get_double("mass", -0.10);
  options.roughness = 0.4;
  QmgContext ctx(options);
  auto b = ctx.create_vector();
  b.gaussian(88);

  std::printf("=== Null-vector count ablation (%d^3x%d, mass %.2f) ===\n", l,
              lt, options.mass);
  std::printf("%-7s %-10s %-11s %-12s %-18s %-22s\n", "nvec", "MG iters",
              "setup(s)", "solve(s)", "coarse-op flops",
              "modeled coarse GF (2^4 grid)");

  const auto dev = DeviceSpec::tesla_k20x();
  for (const int nvec : {4, 8, 12, 16, 24, 32}) {
    MgConfig mg;
    MgLevelConfig level;
    level.block = {2, 2, 2, 2};
    level.nvec = nvec;
    level.null_iters = 60;
    mg.levels = {level};
    ctx.setup_multigrid(mg);
    auto x = ctx.create_vector();
    const auto r = ctx.solve(x, b, bench::solve_spec(1e-7, 1000)).result();
    const double flops = ctx.multigrid().coarse_op(0).flops_per_apply();
    std::printf("%-7d %-10d %-11.1f %-12.2f %-18.3g %-22.1f\n", nvec,
                r.iterations, ctx.mg_setup_seconds(), r.seconds, flops,
                best_coarse_gflops(dev, 16, 2 * nvec,
                                   Strategy::DotProduct));
  }
  std::printf("\npaper: 20-30 vectors are needed to capture enough of the "
              "null space; beyond that the Nhat_c^2 cost of the coarse "
              "level outweighs the better preconditioner.\n");
  return 0;
}
