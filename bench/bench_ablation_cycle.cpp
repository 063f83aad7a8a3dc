// Ablation: K-cycle vs V-cycle (paper section 7.1 uses a three-level
// K-cycle: GCR-accelerated coarse solves at every intermediate level).
// The K-cycle does more coarse work per cycle but yields a much stronger
// preconditioner for ill-conditioned systems.
//
//   ./bench_ablation_cycle [--l=8] [--lt=8]

#include <cstdio>

#include "bench/common.h"

using namespace qmg;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int l = static_cast<int>(args.get_int("l", 8));
  const int lt = static_cast<int>(args.get_int("lt", 8));

  ContextOptions options;
  options.dims = {l, l, l, lt};
  options.mass = args.get_double("mass", -0.10);
  options.roughness = 0.4;
  QmgContext ctx(options);
  auto b = ctx.create_vector();
  b.gaussian(66);

  std::printf("=== Cycle-type ablation (%d^3x%d, mass %.2f, 3 levels) "
              "===\n", l, lt, options.mass);
  std::printf("%-9s %-12s %-11s %-14s %-14s\n", "cycle", "outer iters",
              "solve(s)", "fine matvecs", "coarse matvecs");

  for (const auto cycle : {CycleType::KCycle, CycleType::VCycle}) {
    MgConfig mg;
    MgLevelConfig l1;
    l1.block = {2, 2, 2, 2};
    l1.nvec = 12;
    l1.null_iters = 60;
    MgLevelConfig l2;
    l2.block = {2, 2, 2, 2};
    l2.nvec = 8;
    l2.null_iters = 40;
    mg.levels = {l1, l2};
    mg.cycle = cycle;
    ctx.setup_multigrid(mg);

    auto& hierarchy = ctx.multigrid();
    for (int lev = 0; lev < hierarchy.num_levels(); ++lev)
      hierarchy.op(lev).reset_apply_count();

    auto x = ctx.create_vector();
    const auto r = ctx.solve(x, b, bench::solve_spec(1e-8, 2000)).result();
    std::printf("%-9s %-12d %-11.2f %-14ld %-14ld\n",
                cycle == CycleType::KCycle ? "K-cycle" : "V-cycle",
                r.iterations, r.seconds, hierarchy.op(0).apply_count(),
                hierarchy.op(1).apply_count() +
                    hierarchy.op(2).apply_count());
  }
  std::printf("\npaper choice: K-cycle — the GCR acceleration of each "
              "coarse solve pays for itself through far fewer outer "
              "iterations on near-critical systems.\n");
  return 0;
}
