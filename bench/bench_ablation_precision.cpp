// Ablation: precision policy (paper section 4 strategy (c) and section
// 7.1's layout — double outer GCR, single MG hierarchy, half-precision
// smoother/inner storage).  Lower storage precision halves memory traffic
// (so the bandwidth-bound kernels run proportionally faster on the device)
// at the cost of quantization error recovered by reliable updates.
//
//   ./bench_ablation_precision [--l=6] [--lt=8]

#include <cstdio>

#include "bench/common.h"
#include "solvers/block_gcr.h"

using namespace qmg;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int l = static_cast<int>(args.get_int("l", 6));
  const int lt = static_cast<int>(args.get_int("lt", 8));
  const double tol = 1e-9;

  ContextOptions options;
  options.dims = {l, l, l, lt};
  options.mass = args.get_double("mass", -0.08);
  options.roughness = 0.4;
  QmgContext ctx(options);
  auto b = ctx.create_vector();
  b.gaussian(55);

  std::printf("=== Precision-policy ablation (%d^3x%d, tol %.0e) ===\n", l,
              lt, tol);

  // 1) BiCGStab inner precision.
  std::printf("\nBiCGStab (double reliable updates around inner solver):\n");
  std::printf("%-22s %-11s %-12s %-12s\n", "inner precision", "iters",
              "final |r|/|b|", "converged");
  {
    SolverParams sp;
    sp.tol = tol;
    sp.max_iter = 100000;
    sp.reliable_delta = 0.1;
    auto x = ctx.create_vector();
    const auto r = BiCgStabSolver<double>(ctx.op(), sp).solve(x, b);
    std::printf("%-22s %-11d %-12.1e %-12s\n", "double (reference)",
                r.iterations, r.final_rel_residual,
                r.converged ? "yes" : "NO");
  }
  for (const auto inner : {InnerPrecision::Single, InnerPrecision::Half}) {
    auto x = ctx.create_vector();
    SolveSpec spec = bench::solve_spec(tol, 100000, SolveMethod::BiCgStab);
    spec.bicg_inner = inner;
    const auto r = ctx.solve(x, b, spec).result();
    std::printf("%-22s %-11d %-12.1e %-12s\n",
                inner == InnerPrecision::Single ? "single" : "half (16-bit)",
                r.iterations, r.final_rel_residual,
                r.converged ? "yes" : "NO");
  }

  // 2) MG hierarchy precision: double vs single (paper runs single).
  std::printf("\nMG-preconditioned GCR (outer double):\n");
  std::printf("%-22s %-11s %-12s\n", "hierarchy precision", "outer iters",
              "final |r|/|b|");
  MgConfig mg;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 12;
  level.null_iters = 60;
  mg.levels = {level};
  {
    // Double-precision hierarchy.
    const Multigrid<double> hierarchy(ctx.op(), mg);
    MgBlockPreconditioner<double> precond(hierarchy);
    SolverParams sp;
    sp.tol = tol;
    sp.max_iter = 500;
    sp.restart = 10;
    const auto b_block = pack_block(std::vector{b});
    auto x = b_block.similar();
    const auto r = BlockGcrSolver<double>(ctx.op(), sp, &precond)
                       .solve(x, b_block)
                       .rhs.front();
    std::printf("%-22s %-11d %-12.1e\n", "double", r.iterations,
                r.final_rel_residual);
  }
  {
    ctx.setup_multigrid(mg);  // single-precision hierarchy (paper layout)
    auto x = ctx.create_vector();
    const auto r = ctx.solve(x, b, bench::solve_spec(tol, 500)).result();
    std::printf("%-22s %-11d %-12.1e\n", "single (paper)", r.iterations,
                r.final_rel_residual);
  }

  // 3) Device-model implication: bytes halve, bandwidth-bound rates double.
  std::printf("\nmodeled fine-operator GFLOPS on K20X by storage "
              "precision (V=16^4, reconstruct-12):\n");
  const auto dev = DeviceSpec::tesla_k20x();
  for (const auto prec :
       {SimPrecision::Double, SimPrecision::Single, SimPrecision::Half}) {
    const auto work = wilson_work(65536, prec, 12);
    std::printf("  %-8s %8.0f GFLOPS\n",
                prec == SimPrecision::Double  ? "double"
                : prec == SimPrecision::Single ? "single"
                                               : "half",
                estimate_gflops(dev, work));
  }
  std::printf("\npaper: half-precision storage + reliable updates gives "
              "high speed with no loss in final accuracy.\n");
  return 0;
}
