#pragma once
// Block (multi-right-hand-side) flexible GCR with per-rhs convergence
// masking — the solver front-end of the MRHS reformulation (paper section
// 9): all N systems advance in lockstep so every operator application is
// one batched apply_block (N x the arithmetic intensity of the stencil
// load), and every reduction is one batched per-rhs block_cdot/block_norm2.
//
// This is an MRHS-wrapped GCR, not a shared-subspace block-Krylov method:
// each rhs keeps its own Krylov directions (slices of shared BlockSpinors)
// and its own Gram-Schmidt coefficients, computed in exactly the order of
// the single-rhs GcrSolver (solvers/gcr.h).  A converged rhs is masked out
// of all further x/r/z/w updates while the batch continues, so for every
// rhs the iterates — and the returned solution — are bit-identical to an
// independent single-rhs GCR solve with the same operator kernels.
//
// Two documented deviations from running N independent solves, both
// confined to pathological cases: (1) a rhs whose recurrence residual
// converges is masked immediately; if its *true* residual still exceeds
// the target (heavy rounding drift), the independent solver would restart
// while the block solver reports converged = false for that rhs.  (2) a
// rhs whose search direction collapses (|w| = 0) is masked as permanently
// stalled, where the independent solver would restart.

#include <cmath>
#include <vector>

#include "fields/blas.h"
#include "solvers/solver.h"
#include "util/timer.h"

namespace qmg {

template <typename T>
class BlockGcrSolver {
 public:
  using BlockField = BlockSpinor<T>;

  /// precond == nullptr means unpreconditioned block GCR.
  BlockGcrSolver(const LinearOperator<T>& op, SolverParams params,
                 BlockPreconditioner<T>* precond = nullptr)
      : op_(op), params_(params), precond_(precond) {}

  BlockSolverResult solve(BlockField& x, const BlockField& b) {
    Timer timer;
    const int nrhs = b.nrhs();
    const int k_max = params_.restart;
    BlockSolverResult res;
    res.rhs.assign(static_cast<size_t>(nrhs), SolverResult{});

    auto r = b.similar();
    op_.apply_block(r, x);
    ++res.block_matvecs;
    const std::vector<T> minus_one(static_cast<size_t>(nrhs), T(-1));
    blas::block_xpay(b, minus_one, r);

    // Sync accounting convention (see BlockSolverResult::block_reductions):
    // every batched reduction call below bumps block_reductions exactly
    // once — it is one fused allreduce in a distributed run regardless of
    // nrhs — while the per-rhs `reductions` entries keep counting only the
    // in-iteration syncs that rhs participates in.
    const std::vector<double> b2 = blas::block_norm2(b);
    ++res.block_reductions;
    std::vector<double> target(static_cast<size_t>(nrhs), 0.0);
    // Mask of rhs still iterating.  b_k = 0 converges immediately with
    // x_k = 0 (matching the single-rhs early return, which follows the
    // residual apply counted here).
    blas::RhsMask active(static_cast<size_t>(nrhs), 1);
    for (int k = 0; k < nrhs; ++k) {
      target[static_cast<size_t>(k)] =
          params_.tol * params_.tol * b2[static_cast<size_t>(k)];
      res.rhs[static_cast<size_t>(k)].matvecs = 1;
      if (b2[static_cast<size_t>(k)] == 0.0) {
        active[static_cast<size_t>(k)] = 0;
        res.rhs[static_cast<size_t>(k)].converged = true;
        for (long i = 0; i < x.rhs_size(); ++i) x.at(i, k) = Complex<T>{};
      }
    }

    std::vector<double> r2 = blas::block_norm2(r);
    ++res.block_reductions;
    auto converged = [&](int k) {
      return r2[static_cast<size_t>(k)] <= target[static_cast<size_t>(k)];
    };
    auto iterating = [&](int k) {
      return active[static_cast<size_t>(k)] != 0 &&
             res.rhs[static_cast<size_t>(k)].iterations < params_.max_iter &&
             !converged(k);
    };
    auto any_iterating = [&]() {
      for (int k = 0; k < nrhs; ++k)
        if (iterating(k)) return true;
      return false;
    };
    // The rhs whose single-rhs solve enters its restart loop, and so ends
    // with a true-residual apply: the final apply below stands in for it.
    blas::RhsMask closes(static_cast<size_t>(nrhs), 0);
    for (int k = 0; k < nrhs; ++k)
      closes[static_cast<size_t>(k)] = iterating(k) ? 1 : 0;

    std::vector<BlockField> z;  // preconditioned directions, one per rhs
    std::vector<BlockField> w;  // M z, orthonormalized per rhs
    while (any_iterating()) {
      z.clear();
      w.clear();
      for (int k_dir = 0; k_dir < k_max && any_iterating(); ++k_dir) {
        // Mask snapshot for this lockstep iteration: exactly the rhs whose
        // independent solver would execute this inner iteration.
        blas::RhsMask step(static_cast<size_t>(nrhs), 0);
        for (int k = 0; k < nrhs; ++k)
          step[static_cast<size_t>(k)] = iterating(k) ? 1 : 0;

        // New direction per rhs: z_k = K(r), w_k = M z_k (both batched).
        z.emplace_back(b.similar());
        if (precond_) {
          (*precond_)(z.back(), r);
        } else {
          blas::block_copy(z.back(), r);
        }
        w.emplace_back(b.similar());
        op_.apply_block(w.back(), z.back());
        ++res.block_matvecs;
        for (int k = 0; k < nrhs; ++k)
          if (step[static_cast<size_t>(k)])
            ++res.rhs[static_cast<size_t>(k)].matvecs;

        // Per-rhs modified Gram-Schmidt against previous w's, mirrored on
        // z — one batched reduction per history entry instead of N.
        for (int j = 0; j < k_dir; ++j) {
          const std::vector<complexd> c = blas::block_cdot(w[j], w.back());
          ++res.block_reductions;
          std::vector<Complex<T>> ct(static_cast<size_t>(nrhs));
          for (int k = 0; k < nrhs; ++k) {
            ct[static_cast<size_t>(k)] =
                Complex<T>(static_cast<T>(-c[static_cast<size_t>(k)].re),
                           static_cast<T>(-c[static_cast<size_t>(k)].im));
            if (step[static_cast<size_t>(k)])
              ++res.rhs[static_cast<size_t>(k)].reductions;
          }
          blas::block_caxpy(ct, w[j], w.back(), &step);
          blas::block_caxpy(ct, z[j], z.back(), &step);
        }
        const std::vector<double> w2 = blas::block_norm2(w.back());
        ++res.block_reductions;
        std::vector<T> inv_norm(static_cast<size_t>(nrhs), T(1));
        for (int k = 0; k < nrhs; ++k) {
          if (!step[static_cast<size_t>(k)]) continue;
          if (w2[static_cast<size_t>(k)] == 0.0) {
            // Direction collapse: permanently stall this rhs (see header).
            active[static_cast<size_t>(k)] = 0;
            step[static_cast<size_t>(k)] = 0;
            continue;
          }
          inv_norm[static_cast<size_t>(k)] =
              static_cast<T>(1.0 / std::sqrt(w2[static_cast<size_t>(k)]));
        }
        blas::block_scale(inv_norm, w.back(), &step);
        blas::block_scale(inv_norm, z.back(), &step);

        // Residual update per rhs (batched projections).
        const std::vector<complexd> a = blas::block_cdot(w.back(), r);
        ++res.block_reductions;
        std::vector<Complex<T>> at(static_cast<size_t>(nrhs));
        std::vector<Complex<T>> mat(static_cast<size_t>(nrhs));
        for (int k = 0; k < nrhs; ++k) {
          at[static_cast<size_t>(k)] =
              Complex<T>(static_cast<T>(a[static_cast<size_t>(k)].re),
                         static_cast<T>(a[static_cast<size_t>(k)].im));
          mat[static_cast<size_t>(k)] =
              Complex<T>{} - at[static_cast<size_t>(k)];
        }
        blas::block_caxpy(at, z.back(), x, &step);
        blas::block_caxpy(mat, w.back(), r, &step);
        const std::vector<double> r2_new = blas::block_norm2(r);
        ++res.block_reductions;
        for (int k = 0; k < nrhs; ++k) {
          if (!step[static_cast<size_t>(k)]) continue;
          r2[static_cast<size_t>(k)] = r2_new[static_cast<size_t>(k)];
          auto& rk = res.rhs[static_cast<size_t>(k)];
          rk.reductions += 3;  // w norm, w.r projection, r norm
          ++rk.iterations;
          if (params_.record_history)
            rk.residual_history.push_back(
                std::sqrt(r2[static_cast<size_t>(k)] / b2[static_cast<size_t>(k)]));
        }
      }
      // Restart: recompute the true residual (batched) to shed accumulated
      // error; rhs still iterating re-evaluate convergence against it,
      // exactly like the single-rhs restart.
      blas::RhsMask restart(static_cast<size_t>(nrhs), 0);
      bool any_restart = false;
      for (int k = 0; k < nrhs; ++k) {
        if (active[static_cast<size_t>(k)] != 0 && !converged(k) &&
            res.rhs[static_cast<size_t>(k)].iterations < params_.max_iter) {
          restart[static_cast<size_t>(k)] = 1;
          any_restart = true;
        }
      }
      if (!any_restart) break;
      op_.apply_block(r, x);
      ++res.block_matvecs;
      blas::block_xpay(b, minus_one, r);
      const std::vector<double> r2_true = blas::block_norm2(r);
      ++res.block_reductions;
      for (int k = 0; k < nrhs; ++k) {
        if (restart[static_cast<size_t>(k)]) {
          r2[static_cast<size_t>(k)] = r2_true[static_cast<size_t>(k)];
          ++res.rhs[static_cast<size_t>(k)].matvecs;
        }
      }
    }

    // Final per-rhs true residuals (one batched apply; x is unchanged for
    // every rhs since the moment it converged or stalled).
    op_.apply_block(r, x);
    ++res.block_matvecs;
    blas::block_xpay(b, minus_one, r);
    const std::vector<double> r2_final = blas::block_norm2(r);
    ++res.block_reductions;
    for (int k = 0; k < nrhs; ++k) {
      auto& rk = res.rhs[static_cast<size_t>(k)];
      if (closes[static_cast<size_t>(k)]) ++rk.matvecs;
      if (b2[static_cast<size_t>(k)] == 0.0) continue;  // handled above
      rk.final_rel_residual =
          std::sqrt(r2_final[static_cast<size_t>(k)] / b2[static_cast<size_t>(k)]);
      rk.converged =
          r2_final[static_cast<size_t>(k)] <= target[static_cast<size_t>(k)];
      rk.seconds = timer.seconds();
    }
    res.seconds = timer.seconds();
    return res;
  }

 private:
  const LinearOperator<T>& op_;
  SolverParams params_;
  BlockPreconditioner<T>* precond_;
};

}  // namespace qmg
