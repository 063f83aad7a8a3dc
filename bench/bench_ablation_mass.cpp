// Ablation: critical slowing down (paper sections 1 and 3.3).
// As the quark mass approaches the critical point, the Dirac matrix becomes
// singular and Krylov solvers' iteration counts diverge — while MG's stays
// essentially flat.  This is the motivating pathology the paper removes.
//
//   ./bench_ablation_mass [--l=6] [--lt=8] [--roughness=0.4]

#include <cstdio>

#include "bench/common.h"

using namespace qmg;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int l = static_cast<int>(args.get_int("l", 6));
  const int lt = static_cast<int>(args.get_int("lt", 8));
  const double roughness = args.get_double("roughness", 0.4);
  const double tol = args.get_double("tol", 1e-7);
  // Iteration cap: near the critical mass CGNR's iteration count diverges
  // quadratically; the cap keeps the bench bounded while the divergence
  // pattern ("> cap" at the lightest masses) still demonstrates the point.
  const int cap = static_cast<int>(args.get_int("cap", 6000));

  std::printf("=== Critical slowing down: iterations vs quark mass "
              "(%d^3x%d, roughness %.2f) ===\n", l, lt, roughness);
  std::printf("%-9s %-11s %-11s %-10s %-12s\n", "mass", "BiCGStab",
              "CGNR", "MG-GCR", "BiCG/MG");

  // The proxy's critical mass sits near -0.13 at this roughness: -0.12 is
  // the deepest point where the solvers still converge (past it the Wilson
  // operator loses positivity and no Krylov method is usable — the same
  // wall physical lattices hit at kappa_c).
  for (const double mass : {0.10, 0.00, -0.05, -0.10, -0.12}) {
    ContextOptions options;
    options.dims = {l, l, l, lt};
    options.mass = mass;
    options.roughness = roughness;
    QmgContext ctx(options);

    auto b = ctx.create_vector();
    b.gaussian(31);

    auto x = ctx.create_vector();
    const auto rb =
        ctx.solve(x, b, bench::solve_spec(tol, cap, SolveMethod::BiCgStab))
            .result();

    SolverParams cp;
    cp.tol = tol;
    cp.max_iter = cap;
    auto x_cgnr = ctx.create_vector();
    const auto rc = CgnrSolver<double>(ctx.op(), cp).solve(x_cgnr, b);

    MgConfig mg;
    MgLevelConfig level;
    level.block = {2, 2, 2, 2};
    level.nvec = 12;
    level.null_iters = 60;
    mg.levels = {level};
    ctx.setup_multigrid(mg);
    auto x_mg = ctx.create_vector();
    const auto rm = ctx.solve(x_mg, b, bench::solve_spec(tol, 300)).result();

    char bicg_buf[16], cgnr_buf[16];
    std::snprintf(bicg_buf, sizeof(bicg_buf), "%s%d",
                  rb.iterations >= cap ? ">" : "", rb.iterations);
    std::snprintf(cgnr_buf, sizeof(cgnr_buf), "%s%d",
                  rc.iterations >= cap ? ">" : "", rc.iterations);
    std::printf("%-9.3f %-11s %-11s %-10d %-12.1f\n", mass, bicg_buf,
                cgnr_buf, rm.iterations,
                static_cast<double>(rb.iterations) /
                    std::max(1, rm.iterations));
  }
  std::printf("\npaper shape: BiCGStab (and CGNR, worse) iteration counts "
              "diverge toward the critical mass; MG stays flat — the "
              "algorithmic acceleration that motivates deploying MG on "
              "GPUs at all.\n");
  return 0;
}
