#pragma once
// Pipelined block GCR — the latency-HIDING counterpart of the
// latency-AVOIDING s-step solver (solvers/block_ca_gmres.h): instead of
// fusing s matvecs' worth of coefficients into one sync, every iteration
// keeps exactly ONE fused sync (dist::block_pipeline_dots) and posts it on
// the persistent reduction comm worker so it overlaps with the next
// matvec — the Ghysels-style pipelining the PR-3 comm machinery was built
// for.  The overlapped matvec may itself be an overlapped distributed
// apply: its halo exchange runs on CommWorker::instance() while the
// posted combine runs on CommWorker::reduction_instance().
//
// Recurrence structure (unpreconditioned GCR with recurred A-images):
// alongside the orthonormal images w_j and their preimages z_j (M z_j =
// w_j, the standard GCR history) the solver carries u_j = M w_j.  With
// d = M r maintained by the recurrence d -= a u_new, the iteration's raw
// direction pair (z_raw, v) = (r, d) is available BEFORE the sync — so
// the sync's inputs (c_j = <w_j, v>, projections, |v|^2, |r|^2) and the
// next matvec's input (v itself, producing u_raw = M v) are independent,
// and the two run concurrently:
//
//   post   { c_j, <w_j,r>, <v,r>, |v|^2, |r|^2 }   on the reduction worker
//   run    u_raw = M v                              on the compute pool
//   wait; then locally:  nu^2 = |v|^2 - sum |c_j|^2   (breakdown guard)
//          w_new = (v - sum c_j w_j) / nu   (and z_new, u_new likewise)
//          a = (<v,r> - sum conj(c_j) <w_j,r>) / nu
//          x += a z_new;  r -= a w_new;  d -= a u_new
//          |r_new|^2 = |r|^2 - |a|^2      (one-step recurrence from the
//                                          sync's exact |r|^2)
//
// The posted combine computes with the comm-worker launch policy (Serial —
// the pool is busy with the matvec and ThreadPool::run is single-caller);
// the deterministic chunked reductions make that bit-identical to any
// other backend, and the synchronous reference execution (pipeline off)
// calls the identical function inline with the identical policy — so
// pipelined and synchronous solves are bit-identical by construction
// (tested across backends, thread counts, and distributed adapters).
//
// Cost per iteration: 1 matvec + 1 sync (vs standard block GCR's 3 + j
// syncs), with min(combine, matvec) of each sync's wall time hidden —
// metered in CommStats::allreduce_hidden_seconds.  The price is the
// recurrence's extra rounding (u-recurred A-images, recurred residual
// norm); the restart's true-residual recompute bounds the drift exactly
// like standard GCR's, and final convergence is reported against a true
// residual.
//
// Masking follows block_gcr.h: zero rhs converge immediately with x = 0, a
// converged rhs freezes, and a direction collapse (nu^2 <= 0 or
// non-finite — the recurrence analog of |w| = 0) stalls that rhs
// permanently while the batch continues.

#include <algorithm>
#include <cmath>
#include <vector>

#include "comm/comm_worker.h"
#include "comm/dist_blas.h"
#include "fields/blas.h"
#include "solvers/solver.h"
#include "util/timer.h"

namespace qmg {

template <typename T>
class PipelinedBlockGcrSolver {
 public:
  using BlockField = BlockSpinor<T>;

  /// `pipeline` false runs the synchronous reference: the identical
  /// arithmetic with the combine inline instead of posted (bit-identical
  /// results, no overlap).  `comm`, when given, meters every sync.
  PipelinedBlockGcrSolver(const LinearOperator<T>& op, SolverParams params,
                          bool pipeline = true, CommStats* comm = nullptr)
      : op_(op), params_(params), pipeline_(pipeline), comm_(comm) {}

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

    const std::vector<double> b2 =
        dist::block_norm2(b, comm_, comm_worker_policy());
    std::vector<double> r2 = dist::block_norm2(r, comm_, comm_worker_policy());
    res.block_reductions += 2;
    std::vector<double> target(static_cast<size_t>(nrhs), 0.0);
    blas::RhsMask active(static_cast<size_t>(nrhs), 1);
    for (int k = 0; k < nrhs; ++k) {
      target[static_cast<size_t>(k)] =
          params_.tol * params_.tol * b2[static_cast<size_t>(k)];
      if (b2[static_cast<size_t>(k)] == 0.0) {
        active[static_cast<size_t>(k)] = 0;
        res.rhs[static_cast<size_t>(k)].converged = true;
        for (long i = 0; i < x.rhs_size(); ++i) x.at(i, k) = Complex<T>{};
      } else {
        res.rhs[static_cast<size_t>(k)].matvecs = 1;
      }
    }

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

    auto d = b.similar();      // d = M r, maintained by recurrence
    auto u_raw = b.similar();  // M v, the overlapped matvec's output
    std::vector<BlockField> w;  // orthonormal images
    std::vector<BlockField> z;  // preimages (search directions)
    std::vector<BlockField> u;  // recurred A-images u_j = M w_j
    bool have_d = false;
    while (any_iterating()) {
      if (!have_d) {
        op_.apply_block(d, r);
        ++res.block_matvecs;
        for (int k = 0; k < nrhs; ++k)
          if (iterating(k)) ++res.rhs[static_cast<size_t>(k)].matvecs;
        have_d = true;
      }
      w.clear();
      z.clear();
      u.clear();
      for (int k_dir = 0; k_dir < k_max && any_iterating(); ++k_dir) {
        blas::RhsMask step(static_cast<size_t>(nrhs), 0);
        for (int k = 0; k < nrhs; ++k)
          step[static_cast<size_t>(k)] = iterating(k) ? 1 : 0;

        std::vector<const BlockField*> hist(w.size());
        for (size_t j = 0; j < w.size(); ++j) hist[j] = &w[j];

        // The single fused sync, overlapped with the next matvec.  The
        // combine reads {w_j, d, r} and the matvec reads d / writes u_raw
        // — disjoint writes, so the only ordering needed is the worker
        // wait() below (the CI TSan job guards the protocol).
        dist::BlockPipelineDots dots;
        if (pipeline_) {
          CommWorker& worker = CommWorker::reduction_instance();
          worker.submit([&] {
            dots = dist::block_pipeline_dots(hist, d, r, comm_,
                                             comm_worker_policy());
          });
          Timer t_mv;
          try {
            op_.apply_block(u_raw, d);
          } catch (...) {
            worker.wait();  // the job holds references into this frame
            throw;
          }
          const double matvec_seconds = t_mv.seconds();
          worker.wait();
          // The hidden share is taken from the very interval the combine
          // charged to allreduce_seconds, so hidden <= total holds per sync.
          if (comm_)
            comm_->allreduce_hidden_seconds +=
                std::min(dots.seconds, matvec_seconds);
        } else {
          dots = dist::block_pipeline_dots(hist, d, r, comm_,
                                           comm_worker_policy());
          op_.apply_block(u_raw, d);
        }
        ++res.block_matvecs;
        ++res.block_reductions;

        // Local recurrences per active rhs.
        const int h = dots.nhist;
        std::vector<T> inv_nu(static_cast<size_t>(nrhs), T(1));
        std::vector<Complex<T>> a(static_cast<size_t>(nrhs), Complex<T>{});
        std::vector<Complex<T>> ma(static_cast<size_t>(nrhs), Complex<T>{});
        for (int k = 0; k < nrhs; ++k) {
          if (!step[static_cast<size_t>(k)]) continue;
          double nu2 = dots.v2[static_cast<size_t>(k)];
          for (int j = 0; j < h; ++j) {
            const complexd cj = dots.c[static_cast<size_t>(j) * nrhs + k];
            nu2 -= cj.re * cj.re + cj.im * cj.im;
          }
          if (!(nu2 > 0.0) || !std::isfinite(nu2)) {
            // Direction collapse (recurrence analog of |w| = 0): stall
            // this rhs permanently.
            active[static_cast<size_t>(k)] = 0;
            step[static_cast<size_t>(k)] = 0;
            continue;
          }
          const double nu = std::sqrt(nu2);
          inv_nu[static_cast<size_t>(k)] = static_cast<T>(1.0 / nu);
          complexd num = dots.pv[static_cast<size_t>(k)];
          for (int j = 0; j < h; ++j) {
            const complexd cj = dots.c[static_cast<size_t>(j) * nrhs + k];
            const complexd pj = dots.pw[static_cast<size_t>(j) * nrhs + k];
            // num -= conj(c_j) * p_j
            num.re -= cj.re * pj.re + cj.im * pj.im;
            num.im -= cj.re * pj.im - cj.im * pj.re;
          }
          a[static_cast<size_t>(k)] = Complex<T>(
              static_cast<T>(num.re / nu), static_cast<T>(num.im / nu));
          ma[static_cast<size_t>(k)] =
              Complex<T>{} - a[static_cast<size_t>(k)];
        }

        // Batched orthonormalization of (v, z_raw, u_raw) = (d, r, u_raw)
        // against the history — local AXPYs, no syncs.
        w.emplace_back(b.similar());
        z.emplace_back(b.similar());
        u.emplace_back(b.similar());
        // Unmasked copies (block_gcr idiom): non-stepping columns get the
        // raw finite data rather than uninitialized storage — they are
        // never read for a frozen rhs, but the fused history dots stream
        // every column and must stay NaN-free.
        blas::block_copy(w.back(), d);
        blas::block_copy(z.back(), r);
        blas::block_copy(u.back(), u_raw);
        for (int j = 0; j < h; ++j) {
          std::vector<Complex<T>> mc(static_cast<size_t>(nrhs), Complex<T>{});
          for (int k = 0; k < nrhs; ++k) {
            if (!step[static_cast<size_t>(k)]) continue;
            const complexd cj = dots.c[static_cast<size_t>(j) * nrhs + k];
            mc[static_cast<size_t>(k)] =
                Complex<T>(static_cast<T>(-cj.re), static_cast<T>(-cj.im));
          }
          blas::block_caxpy(mc, w[static_cast<size_t>(j)], w.back(), &step);
          blas::block_caxpy(mc, z[static_cast<size_t>(j)], z.back(), &step);
          blas::block_caxpy(mc, u[static_cast<size_t>(j)], u.back(), &step);
        }
        blas::block_scale(inv_nu, w.back(), &step);
        blas::block_scale(inv_nu, z.back(), &step);
        blas::block_scale(inv_nu, u.back(), &step);

        // Solution/residual/d updates and the recurred residual norm
        // (|r_new|^2 = |r|^2 - |a|^2, from the sync's exact |r|^2).
        blas::block_caxpy(a, z.back(), x, &step);
        blas::block_caxpy(ma, w.back(), r, &step);
        blas::block_caxpy(ma, u.back(), d, &step);
        for (int k = 0; k < nrhs; ++k) {
          if (!step[static_cast<size_t>(k)]) continue;
          const Complex<T>& ak = a[static_cast<size_t>(k)];
          const double a2 = static_cast<double>(ak.re) * ak.re +
                            static_cast<double>(ak.im) * ak.im;
          r2[static_cast<size_t>(k)] =
              std::max(0.0, dots.r2[static_cast<size_t>(k)] - a2);
          auto& rk = res.rhs[static_cast<size_t>(k)];
          ++rk.matvecs;
          ++rk.reductions;  // the one fused sync
          ++rk.iterations;
          if (params_.record_history)
            rk.residual_history.push_back(std::sqrt(
                r2[static_cast<size_t>(k)] / b2[static_cast<size_t>(k)]));
        }
      }
      // Restart: true-residual recompute sheds recurrence drift (both in r
      // and in d, which is recomputed at the top of the loop).
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
      const std::vector<double> r2_true =
          dist::block_norm2(r, comm_, comm_worker_policy());
      ++res.block_reductions;
      for (int k = 0; k < nrhs; ++k) {
        if (restart[static_cast<size_t>(k)]) {
          r2[static_cast<size_t>(k)] = r2_true[static_cast<size_t>(k)];
          ++res.rhs[static_cast<size_t>(k)].matvecs;
          ++res.rhs[static_cast<size_t>(k)].reductions;
        }
      }
      have_d = false;
    }

    // Final per-rhs true residuals (block_gcr contract).
    op_.apply_block(r, x);
    ++res.block_matvecs;
    blas::block_xpay(b, minus_one, r);
    const std::vector<double> r2_final =
        dist::block_norm2(r, comm_, comm_worker_policy());
    ++res.block_reductions;
    for (int k = 0; k < nrhs; ++k) {
      auto& rk = res.rhs[static_cast<size_t>(k)];
      rk.seconds = timer.seconds();
      if (b2[static_cast<size_t>(k)] == 0.0) continue;  // handled above
      rk.final_rel_residual = std::sqrt(r2_final[static_cast<size_t>(k)] /
                                        b2[static_cast<size_t>(k)]);
      rk.converged =
          r2_final[static_cast<size_t>(k)] <= target[static_cast<size_t>(k)];
    }
    res.seconds = timer.seconds();
    return res;
  }

 private:
  const LinearOperator<T>& op_;
  SolverParams params_;
  bool pipeline_;
  CommStats* comm_;
};

}  // namespace qmg
