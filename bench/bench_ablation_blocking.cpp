// Ablation: aggregate (blocking) size — paper section 3.4 prescribes
// aggregates of 2^4..8^4 sites.  Small blocks give a large, expensive
// coarse grid; large blocks capture the null space poorly.
//
//   ./bench_ablation_blocking [--l=8] [--lt=8]

#include <cstdio>

#include "bench/common.h"

using namespace qmg;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int l = static_cast<int>(args.get_int("l", 8));
  const int lt = static_cast<int>(args.get_int("lt", 8));

  ContextOptions options;
  options.dims = {l, l, l, lt};
  options.mass = args.get_double("mass", -0.08);
  options.roughness = 0.4;
  QmgContext ctx(options);
  auto b = ctx.create_vector();
  b.gaussian(77);

  std::printf("=== Blocking-size ablation (%d^3x%d, mass %.2f) ===\n", l, lt,
              options.mass);
  std::printf("%-12s %-13s %-10s %-11s %-12s %-14s\n", "block",
              "coarse sites", "MG iters", "setup(s)", "solve(s)",
              "coarse dof/site");

  const std::vector<Coord> blockings = {
      {2, 2, 2, 2}, {2, 2, 2, 4}, {4, 4, 4, 2}, {4, 4, 4, 4}};
  for (const auto& block : blockings) {
    bool divides = true;
    for (int mu = 0; mu < kNDim; ++mu)
      if (options.dims[mu] % block[mu] != 0) divides = false;
    long coarse_sites = 1;
    for (int mu = 0; mu < kNDim; ++mu)
      coarse_sites *= options.dims[mu] / block[mu];
    if (!divides || coarse_sites % 2 != 0) continue;

    MgConfig mg;
    MgLevelConfig level;
    level.block = block;
    level.nvec = 12;
    level.null_iters = 60;
    mg.levels = {level};
    ctx.setup_multigrid(mg);

    auto x = ctx.create_vector();
    const auto r = ctx.solve(x, b, bench::solve_spec(1e-7, 1000)).result();
    std::printf("%dx%dx%dx%-6d %-13ld %-10d %-11.1f %-12.2f %-14d\n",
                block[0], block[1], block[2], block[3], coarse_sites,
                r.iterations, ctx.mg_setup_seconds(), r.seconds, 2 * 12);
  }
  std::printf("\ntrade-off: larger aggregates shrink the coarse grid (less "
              "coarse work, less parallelism — the paper's Fig. 2 problem) "
              "but weaken the coarse-grid correction.\n");
  return 0;
}
