#pragma once
// The unified request/report shape of the public solve API (and of the
// service layer built on top of it, src/service/solve_queue.h).
//
// One SolveSpec describes WHAT to solve and HOW — method, tolerance,
// iteration cap, even-odd preconditioning, and the distributed-execution
// knobs (virtual rank count, halo overlap mode, wire precision) —
// and one SolveReport carries everything a solve can tell its caller:
// per-rhs solver results, batch-level matvec/sync counts, and OWNED
// communication statistics with the coarse-level share broken out.

#include <stdexcept>
#include <vector>

#include "comm/dist_spinor.h"   // CommStats, HaloMode, WirePrecision
#include "mg/setup_timings.h"   // SetupTimings
#include "solvers/mixed.h"      // InnerPrecision
#include "solvers/solver.h"     // SolverResult, BlockSolverResult

namespace qmg {

/// Which solver family runs the spec.
///   * Mg       — MG-preconditioned (block) GCR, the paper's configuration:
///                double outer solve over a single-precision K-cycle.  With
///                nranks > 0 the fine-operator applies run through the
///                domain-decomposed two-phase dslash and every factorable
///                coarse level dispatches through its DistributedCoarseOp.
///   * BiCgStab — mixed-precision BiCGStab (the production baseline);
///                multi-rhs specs stream one rhs at a time (no batched
///                BiCGStab kernel exists).
enum class SolveMethod { Mg, BiCgStab };

struct SolveSpec {
  SolveMethod method = SolveMethod::Mg;
  double tol = 1e-8;  // target relative residual |r|/|b|
  // Iteration cap; 0 picks the method default (1000 for Mg, 100000 for
  // BiCgStab — the historical entry-point defaults).
  int max_iter = 0;
  // Solve the even-odd Schur system and reconstruct (the paper's
  // "red-black preconditioning is almost always used").  Distributed Mg
  // solves currently run the full-system outer solve and ignore this flag.
  bool eo = true;
  // Inner precision of the BiCgStab method (ignored by Mg).
  InnerPrecision bicg_inner = InnerPrecision::Half;
  // Virtual rank count: 0 solves on the full replicated lattice; > 0 runs
  // the distributed path (Mg only — fine applies through the two-phase
  // dslash, factorable coarse levels through DistributedCoarseOp splits).
  int nranks = 0;
  // Halo exchange mode of a distributed solve.
  HaloMode halo = HaloMode::Overlapped;
  // Element precision of distributed halo traffic (comm/dist_spinor.h):
  // Single halves message and staging bytes of the double-precision
  // outer fine-operator applies.
  WirePrecision halo_wire = WirePrecision::Native;
  bool record_history = false;  // per-rhs residual histories in the report
};

/// True when two specs may share one batched solve: every field that
/// changes the solver's arithmetic or its communication must match.  The
/// service layer only aggregates requests whose specs are batch-compatible
/// (per-rhs masking then keeps each rhs bit-identical however the batch is
/// composed).
inline bool batch_compatible(const SolveSpec& a, const SolveSpec& b) {
  return a.method == b.method && a.tol == b.tol && a.max_iter == b.max_iter &&
         a.eo == b.eo && a.bicg_inner == b.bicg_inner &&
         a.nranks == b.nranks && a.halo == b.halo &&
         a.halo_wire == b.halo_wire &&
         a.record_history == b.record_history;
}

/// Everything a solve reports, single- and multi-rhs alike.  The
/// communication of a distributed solve is OWNED by the report, with the
/// coarse-level share broken out as a subset (already included in `comm`;
/// do not add them).
struct SolveReport {
  SolveMethod method = SolveMethod::Mg;
  int nrhs = 0;
  std::vector<SolverResult> rhs;  // one entry per right-hand side
  /// Batched operator applications / batched reduction syncs (the
  /// BlockSolverResult accounting convention; zero for streamed methods).
  long block_matvecs = 0;
  long block_reductions = 0;
  double seconds = 0;  // wall time of the solve itself
  /// Communication of a distributed solve (fine + coarse, each exchange
  /// counted exactly once); default-initialized (all zero) otherwise.
  CommStats comm;
  /// The coarse-level share of `comm` — the latency-bound traffic the
  /// batched halos amortize.  A subset of `comm`, not additional to it.
  CommStats coarse_comm;
  bool distributed = false;
  /// Service-layer fields (zero for direct context solves): time this
  /// request waited in the SolveQueue before its batch dispatched, and how
  /// many rhs rode in that batch.
  double queue_wait_seconds = 0;
  int batch_nrhs = 0;
  /// Per-phase setup cost (null-gen / Galerkin / adaptive) of the MG
  /// hierarchy this solve ran on, as of its last build or refresh — the
  /// amortization the hierarchy lifecycle tracks.  All-zero for BiCgStab
  /// solves (no hierarchy).
  SetupTimings mg_setup;

  bool all_converged() const {
    for (const auto& r : rhs)
      if (!r.converged) return false;
    return !rhs.empty();
  }
  int max_iterations() const {
    int m = 0;
    for (const auto& r : rhs) m = std::max(m, r.iterations);
    return m;
  }
  double max_rel_residual() const {
    double m = 0;
    for (const auto& r : rhs) m = std::max(m, r.final_rel_residual);
    return m;
  }
  /// Single-rhs convenience: the (first) per-rhs result.
  const SolverResult& result() const {
    if (rhs.empty())
      throw std::logic_error("SolveReport::result(): empty report");
    return rhs.front();
  }
};

}  // namespace qmg
