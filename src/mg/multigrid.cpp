#include "mg/multigrid.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fields/blas.h"
#include "parallel/autotune.h"
#include "solvers/block_ca_gmres.h"
#include "solvers/block_gcr.h"
#include "solvers/block_mr.h"
#include "solvers/block_pipelined_gcr.h"
#include "util/logger.h"

namespace qmg {

template <typename T>
Multigrid<T>::Multigrid(const WilsonCloverOp<T>& fine_op, MgConfig config)
    : fine_op_(fine_op), config_(std::move(config)) {
  if (config_.levels.empty())
    throw std::invalid_argument("multigrid needs at least one coarsening");
  if (config_.coarsest_ca_s < 0)
    throw std::invalid_argument(
        "MgConfig: coarsest_ca_s must be >= 0 (0 = autotune), got " +
        std::to_string(config_.coarsest_ca_s));
  rebuild(/*reuse=*/false);
  // Record the probe baseline of this full setup — the reference every
  // later refresh is judged against.  Skipped when the refresh policy is
  // disabled (no update_gauge will ever read it).
  if (config_.refresh_threshold > 0) baseline_contraction_ = probe_quality();
}

template <typename T>
void Multigrid<T>::rebuild(bool reuse) {
  // A rebuild keeps only the aggregation maps (gauge-independent) and —
  // when reusing — the candidate vectors; everything derived from the
  // gauge field is reconstructed from the fine operator down.
  transfers_.clear();
  coarse_ops_.clear();
  schur_coarse_.clear();
  schur_fine_.reset();
  dist_coarse_.clear();
  ops_.clear();
  ops_.push_back(&fine_op_);
  setup_timings_ = SetupTimings{};
  candidates_.resize(config_.levels.size());

  GeometryPtr geom = fine_op_.geometry();
  const bool build_maps = maps_.empty();
  for (size_t l = 0; l < config_.levels.size(); ++l) {
    const MgLevelConfig& lvl = config_.levels[l];
    if (build_maps)
      maps_.push_back(std::make_shared<const BlockMap>(geom, lvl.block));
    const auto& map = maps_[l];

    // 1-2) Candidate null vectors.  Full build: relaxation on the
    // homogeneous system from a random start.  Refresh: the previous
    // configuration's candidates are already near-null up to the gauge
    // drift, so a short relaxation re-adapts them (the amortization the
    // hierarchy lifecycle exists for).
    //
    // Every level relaxes, refreshes and refines its candidates in blocks
    // through the batched kernels (mg/nullspace.h).  A coarse level (l >= 1)
    // takes all nvec at once: its apply_block at nrhs 12 costs about 0.4x of
    // apply() per rhs.  The fine level takes one native lane pack of T
    // (4 floats on the baseline ISA, 8 on AVX2), where its Wilson-clover
    // apply_block already costs 0.37-0.40x of apply() per rhs; wider blocks
    // run no faster per rhs but hold more fine-grid fields, and a partial
    // pack runs near scalar speed (ARCHITECTURE.md, "Batched setup").  Per
    // candidate every group size is bit-identical at a pinned kernel config.
    const int group =
        l == 0 ? rhs_lane_width<T>(default_policy(), lvl.nvec) : lvl.nvec;
    std::vector<Field> null_vecs;
    const bool have_prev =
        reuse && static_cast<int>(candidates_[l].size()) == lvl.nvec &&
        !candidates_[l].empty() && candidates_[l].front().geometry() == geom;
    {
      Timer phase;
      if (have_prev) {
        null_vecs = candidates_[l];
        relax_null_vectors(*ops_[l], null_vecs, config_.refresh_null_iters,
                           lvl.smoother_omega, group);
      } else {
        NullSpaceParams ns_params;
        ns_params.nvec = lvl.nvec;
        ns_params.iters = lvl.null_iters;
        ns_params.omega = lvl.smoother_omega;
        ns_params.seed = config_.seed + 10000 * (l + 1);
        null_vecs = generate_null_vectors(*ops_[l], ns_params, group);
      }
      const double dt = phase.seconds();
      setup_timings_.null_gen_seconds += dt;
      profiler_.add("setup/null_gen", dt);
    }

    // 3) Aggregate and block-orthonormalize into the transfer operator.
    const int fine_ns = l == 0 ? 4 : CoarseDirac<T>::kNSpin;
    const int fine_nc = l == 0 ? 3 : coarse_ops_[l - 1]->ncolor();
    auto transfer =
        std::make_unique<Transfer<T>>(map, fine_ns, fine_nc, lvl.nvec);

    // 4) Galerkin coarse operator, with adaptive refinement: build, refine
    // the candidate vectors against the current two-grid method, rebuild
    // (section 3.4's "repeat until we obtain enough candidate vectors to
    // capture the near-null space").  A refresh runs the shorter
    // refresh_adaptive schedule.
    std::unique_ptr<CoarseDirac<T>> coarse;
    auto galerkin = [&]() {
      transfer->set_null_vectors(null_vecs);
      if (l == 0) {
        const WilsonStencilView<T> view(fine_op_);
        coarse = std::make_unique<CoarseDirac<T>>(
            build_coarse_operator(view, *transfer));
      } else {
        const CoarseStencilView<T> view(*coarse_ops_[l - 1]);
        coarse = std::make_unique<CoarseDirac<T>>(
            build_coarse_operator(view, *transfer));
      }
      coarse->compute_diag_inverse();
    };
    {
      Timer phase;
      galerkin();
      const double dt = phase.seconds();
      setup_timings_.galerkin_seconds += dt;
      profiler_.add("setup/galerkin", dt);
    }
    const int passes =
        reuse ? config_.refresh_adaptive_passes : lvl.adaptive_passes;
    const int refine_iters =
        reuse ? config_.refresh_adaptive_iters : lvl.adaptive_iters;
    for (int pass = 0; pass < passes; ++pass) {
      Timer phase;
      refine_null_vectors(*ops_[l], *transfer, *coarse, null_vecs,
                          refine_iters, std::max(lvl.post_smooth, 2),
                          lvl.smoother_omega, group);
      galerkin();
      const double dt = phase.seconds();
      setup_timings_.adaptive_seconds += dt;
      profiler_.add("setup/adaptive", dt);
    }

    // Keep the refined candidates as the next refresh's starting guess.
    candidates_[l] = null_vecs;

    geom = map->coarse();
    transfers_.push_back(std::move(transfer));
    coarse_ops_.push_back(std::move(coarse));
    ops_.push_back(coarse_ops_.back().get());

    logf(LogLevel::Verbose,
         "qmg: %s level %zu -> %zu: coarse volume %ld, Nhat_c %d\n",
         have_prev ? "refreshed" : "built", l, l + 1, geom->volume(),
         config_.levels[l].nvec);
  }

  // Red-black preconditioning on all levels (section 7.1): the Schur
  // complements used by the even-odd smoother and the coarsest-grid solve.
  const bool any_eo = config_.coarsest_eo ||
                      std::any_of(config_.levels.begin(),
                                  config_.levels.end(),
                                  [](const MgLevelConfig& l) {
                                    return l.eo_smooth;
                                  });
  if (any_eo) {
    if (config_.levels.front().eo_smooth)
      schur_fine_ = std::make_unique<SchurWilsonOp<T>>(fine_op_);
    for (const auto& coarse : coarse_ops_)
      schur_coarse_.push_back(std::make_unique<SchurCoarseOp<T>>(*coarse));
  }

  // Mixed-precision coarse storage (strategy (c)): truncate every coarse
  // level's stencil once setup — which needs native blocks for recursion
  // and adaptive refinement — is complete.  All cycle paths (K-cycle GCR,
  // Schur smoothing, batched applies) read the compressed storage through
  // the dispatching kernels and keep accumulating in T; the Schur operators
  // hold references into the same CoarseDirac objects, so they follow
  // automatically.
  if (config_.coarse_storage != CoarseStorage::Native)
    for (auto& coarse : coarse_ops_)
      coarse->compress_storage(config_.coarse_storage);
}

template <typename T>
double Multigrid<T>::probe_quality() const {
  // Asymptotic cycle contraction on a FIXED rhs: the seed ties the probe
  // vector to the hierarchy, not to the call site, so successive probes of
  // one hierarchy are comparable and the escalation decision is
  // deterministic.  The stationary iteration runs a few cycles and reports
  // the LAST residual contraction — the first cycles strip the high modes
  // any smoother handles, so the final rate is carried by the near-null
  // modes the interpolator must capture, which is precisely what a warm
  // refresh on a drifted configuration loses.  (A single-cycle probe reads
  // ~the smoother's rate and barely moves while solve iteration counts
  // climb.)  The rhs is a block of one.
  constexpr int kProbeCycles = 3;
  BlockField b = fine_op_.create_block(1);
  {
    Field seeded = fine_op_.create_vector();
    seeded.gaussian(config_.seed ^ 0x9E3779B97F4A7C15ull);
    b.insert_rhs(seeded, 0);
  }
  double prev2 = blas::block_norm2(b)[0];
  if (prev2 == 0) return 0;
  BlockField x = b.similar();
  BlockField e = b.similar();
  BlockField r = b.similar();
  blas::block_copy(r, b);
  const std::vector<T> one{T(1)}, minus_one{T(-1)};
  double rate = 0;
  for (int k = 0; k < kProbeCycles; ++k) {
    cycle_block(0, e, r);
    blas::block_axpy(one, e, x);
    fine_op_.apply_block(r, x);
    blas::block_xpay(b, minus_one, r);
    const double r2 = blas::block_norm2(r)[0];
    rate = std::sqrt(r2 / prev2);
    prev2 = r2;
    if (r2 == 0) break;
  }
  return rate;
}

template <typename T>
MgUpdateReport Multigrid<T>::update_gauge(const GaugeField<T>& gauge) {
  if (&gauge != &fine_op_.gauge())
    throw std::invalid_argument(
        "Multigrid::update_gauge: the hierarchy follows the gauge field its "
        "fine operator references (swapped in place by the owner); updating "
        "against a different GaugeField object would desynchronize operator "
        "and hierarchy");
  MgUpdateReport rep;
  rep.baseline_contraction = baseline_contraction_;
  rebuild(/*reuse=*/true);
  rep.timings = setup_timings_;
  if (config_.refresh_threshold > 0) {
    Timer probe_timer;
    rep.probe_contraction = probe_quality();
    rep.probe_seconds = probe_timer.seconds();
    const bool relative_regression =
        baseline_contraction_ > 0 &&
        rep.probe_contraction >
            config_.refresh_threshold * baseline_contraction_;
    // Absolute backstop: the relative test goes blind once the rebased
    // baseline drifts close to 1 (refresh_threshold x baseline exceeds any
    // achievable contraction), yet a near-1 probe means the refreshed cycle
    // is not converging on anything.
    const bool absolute_stagnation =
        config_.refresh_probe_cap < 1.0 &&
        rep.probe_contraction > config_.refresh_probe_cap;
    if (relative_regression || absolute_stagnation) {
      // The cheap refresh no longer captures the near-null space — the
      // configuration drifted too far from the one the candidates were
      // generated on.  Regenerate from scratch and rebase the baseline on
      // the new full setup.  rep keeps the TRIGGERING probe (and the
      // baseline it was judged against) so callers can see why.
      rep.escalated = true;
      rebuild(/*reuse=*/false);
      rep.timings += setup_timings_;
      setup_timings_ = rep.timings;
      Timer rebase_timer;
      baseline_contraction_ = probe_quality();
      rep.probe_seconds += rebase_timer.seconds();
      logf(LogLevel::Verbose,
           "qmg: refresh escalated to full regeneration (%s: probe %.3g, "
           "threshold %.3g x baseline %.3g, cap %.3g; fresh hierarchy "
           "probes %.3g)\n",
           relative_regression ? "relative regression" : "absolute stagnation",
           rep.probe_contraction, config_.refresh_threshold,
           rep.baseline_contraction, config_.refresh_probe_cap,
           baseline_contraction_);
    } else {
      // Accepted refresh: rebase the baseline on what the hierarchy
      // actually delivers NOW.  A physical stream drifts in intrinsic
      // difficulty (the near-null space moves with the configuration), so a
      // baseline pinned to the first build would eventually escalate on
      // every update no matter how good the refresh is.  Measuring
      // regression against the last ACCEPTED quality tolerates that
      // gradual drift and still catches a collapse — a decorrelated
      // configuration jumps the ratio in one step.
      baseline_contraction_ = rep.probe_contraction;
    }
  }
  return rep;
}

template <typename T>
void Multigrid<T>::install_level_storage(int level,
                                         const std::vector<Field>& ortho_vecs,
                                         HalfCoarseLinks stencil,
                                         std::vector<Complex<float>> diag_inv) {
  if (level < 0 || level >= num_levels() - 1)
    throw std::invalid_argument(
        "Multigrid::install_level_storage: level " + std::to_string(level) +
        " out of range [0, " + std::to_string(num_levels() - 1) + ")");
  transfers_[static_cast<size_t>(level)]->set_null_vectors(ortho_vecs);
  candidates_[static_cast<size_t>(level)] = ortho_vecs;
  coarse_ops_[static_cast<size_t>(level)]->install_half_storage(
      std::move(stencil), std::move(diag_inv));
  // Any distributed split holds copies of the replaced stencil; drop it
  // (re-enable after the restore completes).
  dist_coarse_.clear();
}

template <typename T>
void Multigrid<T>::smooth_block(int level, BlockField& x, const BlockField& b,
                                int iters) const {
  if (iters <= 0) return;
  const MgLevelConfig& lvl = config_.levels[level];
  SolverParams params;
  params.tol = 0;  // fixed iteration count (smoother mode)
  params.max_iter = iters;
  params.omega = lvl.smoother_omega;

  // Masked block MR (solvers/block_mr.h): the whole batch smooths through
  // one batched solver — per-rhs iterate state lives in the block fields,
  // per-rhs masking freezes converged/broken-down systems.  Even-odd
  // smoothing (the paper's choice on every level) runs block MR on the
  // Schur system from the current even-site iterate, then reconstructs the
  // odd sites exactly: a stronger smoother per matvec, since the Schur
  // system is better conditioned.  The Schur operator applications route
  // through the distributed adapter when this level's coarse operator is
  // distributed.
  auto eo_smooth = [&](const auto& schur, const LinearOperator<T>& op) {
    BlockField b_hat = schur.create_block(b.nrhs());
    schur.prepare_block(b_hat, b);
    BlockField x_e = b_hat.similar();
    extract_parity_block(x_e, x, /*parity=*/0);
    BlockMrSolver<T>(op, params).solve(x_e, b_hat);
    schur.reconstruct_block(x, x_e, b);
  };
  if (lvl.eo_smooth && level == 0 && schur_fine_) {
    eo_smooth(*schur_fine_, *schur_fine_);
  } else if (lvl.eo_smooth && level > 0 &&
             static_cast<size_t>(level) <= schur_coarse_.size()) {
    eo_smooth(*schur_coarse_[level - 1], schur_block_op(level));
  } else {
    BlockMrSolver<T>(block_op(level), params).solve(x, b);
  }
}

template <typename T>
void Multigrid<T>::cycle_block(int level, BlockField& x,
                               const BlockField& b) const {
  const ScopedTimer level_timer(profiler_, "level" + std::to_string(level));
  // Every operator application of the batched cycle goes through block_op /
  // schur_block_op: the replicated operator normally, the distributed
  // adapter (batched halos, optional overlap) when
  // enable_distributed_coarse covered this level — bit-identical either
  // way at a pinned kernel config.
  const LinearOperator<T>& op = block_op(level);
  const int nrhs = b.nrhs();
  blas::block_zero(x);

  // Coarsest grid: batched solve to loose tolerance with per-rhs
  // convergence masking, on the Schur system when configured.  This is the
  // latency-bound regime the distributed dispatch exists for — each Schur
  // matvec nests two batched halo exchanges amortized over all nrhs, and
  // config_.coarsest_solver picks how the remaining global reductions are
  // scheduled (GCR reference / s-step CA / pipelined; see CoarsestSolver).
  if (level == num_levels() - 1) {
    if (config_.coarsest_eo && level > 0 &&
        static_cast<size_t>(level) <= schur_coarse_.size()) {
      const auto& schur = *schur_coarse_[level - 1];
      BlockField b_hat = schur.create_block(nrhs);
      schur.prepare_block(b_hat, b);
      BlockField x_e = b_hat.similar();
      solve_coarsest(schur_block_op(level), x_e, b_hat);
      schur.reconstruct_block(x, x_e, b);
    } else {
      solve_coarsest(op, x, b);
    }
    return;
  }

  const MgLevelConfig& lvl = config_.levels[level];

  // Pre-smoothing.
  smooth_block(level, x, b, lvl.pre_smooth);

  // Coarse-grid correction on the batched residual.
  BlockField r = b.similar();
  if (lvl.pre_smooth > 0) {
    op.apply_block(r, x);
    blas::block_xpay(b, std::vector<T>(static_cast<size_t>(nrhs), T(-1)), r);
  } else {
    blas::block_copy(r, b);
  }
  BlockField r_c = transfers_[level]->create_coarse_block(nrhs);
  transfers_[level]->restrict_to_coarse(r_c, r);
  BlockField e_c = r_c.similar();

  if (config_.cycle == CycleType::KCycle) {
    // Block K-cycle: masked block GCR on the coarse system, preconditioned
    // by the next level's batched cycle — this is where the coarse solves
    // feed the multi-rhs coarse apply with real batches.
    SolverParams params;
    params.tol = lvl.cycle_tol;
    params.max_iter = lvl.cycle_maxiter;
    params.restart = lvl.cycle_krylov;
    NextLevelCycle precond(*this, level + 1);
    BlockGcrSolver<T>(block_op(level + 1), params, &precond).solve(e_c, r_c);
  } else {
    // Block V-cycle: single recursive batched application.
    cycle_block(level + 1, e_c, r_c);
  }

  // Prolongate and add the correction (batched).
  BlockField correction = b.similar();
  transfers_[level]->prolongate(correction, e_c);
  blas::block_axpy(std::vector<T>(static_cast<size_t>(nrhs), T(1)),
                   correction, x);

  // Post-smoothing.
  smooth_block(level, x, b, lvl.post_smooth);
}

template <typename T>
BlockSolverResult Multigrid<T>::solve_coarsest(const LinearOperator<T>& op,
                                               BlockField& x,
                                               const BlockField& b) const {
  SolverParams params;
  params.tol = config_.coarsest_tol;
  params.max_iter = config_.coarsest_maxiter;
  params.restart = config_.coarsest_krylov;
  switch (config_.coarsest_solver) {
    case CoarsestSolver::CaGmres: {
      const int s = coarsest_ca_depth(op, b);
      return BlockCaGmresSolver<T>(op, params, s, &coarsest_comm_)
          .solve(x, b);
    }
    case CoarsestSolver::PipelinedGcr:
      return PipelinedBlockGcrSolver<T>(op, params, /*pipeline=*/true,
                                        &coarsest_comm_)
          .solve(x, b);
    case CoarsestSolver::BlockGcr:
      break;
  }
  // Reference block GCR meters its syncs too, through the result: its
  // reductions are plain blas calls, so the count (the quantity the
  // ablation compares) is charged here from block_reductions, with the
  // worst-case payload of its syncs (a block_cdot: 2 doubles per rhs).
  BlockSolverResult res = BlockGcrSolver<T>(op, params).solve(x, b);
  for (long i = 0; i < res.block_reductions; ++i)
    coarsest_comm_.count_allreduce(2L * b.nrhs());
  return res;
}

template <typename T>
int Multigrid<T>::coarsest_ca_depth(const LinearOperator<T>& op,
                                    const BlockField& b) const {
  if (config_.coarsest_ca_s > 0) return config_.coarsest_ca_s;
  const int nrhs = b.nrhs();
  if (static_cast<size_t>(nrhs) >= tuned_ca_s_.size())
    tuned_ca_s_.resize(static_cast<size_t>(nrhs) + 1, 0);
  int& cached = tuned_ca_s_[static_cast<size_t>(nrhs)];
  if (cached > 0) return cached;
  // First coarsest solve at this batch width: time the {2, 4, 8} sweep on
  // the real (x, b) pair — each candidate solves the same system from the
  // same zero guess into a scratch copy, so tuning never perturbs the
  // cycle's iterate — and persist the winner through the TuneCache.
  const CoarseDirac<T>& bottom = *coarse_ops_.back();
  const std::string key =
      ca_tune_key(b.rhs_size(), nrhs, bottom.precision_tag());
  SolverParams params;
  params.tol = config_.coarsest_tol;
  params.max_iter = config_.coarsest_maxiter;
  params.restart = config_.coarsest_krylov;
  cached = TuneCache::instance().tune_param(key, {2, 4, 8}, [&](int s) {
    BlockField x_try = b.similar();
    blas::block_zero(x_try);
    Timer t;
    BlockCaGmresSolver<T>(op, params, s).solve(x_try, b);
    return t.seconds();
  });
  logf(LogLevel::Verbose, "qmg: coarsest CA s tuned to %d (nrhs=%d)\n",
       cached, nrhs);
  return cached;
}

template <typename T>
int Multigrid<T>::enable_distributed_coarse(int nranks, HaloMode mode,
                                            WirePrecision wire) {
  dist_coarse_.clear();
  dist_coarse_.resize(static_cast<size_t>(num_levels()));
  if (nranks <= 1) return 0;
  int distributed = 0;
  for (int level = 1; level < num_levels(); ++level) {
    const CoarseDirac<T>& cop = *coarse_ops_[level - 1];
    DecompositionPtr dec;
    try {
      dec = make_decomposition(cop.geometry(), nranks);
    } catch (const std::exception& e) {
      // Grid not factorable at this rank count (odd extents, unit local
      // dims): the level stays replicated and the cycle remains correct.
      logf(LogLevel::Verbose,
           "qmg: level %d stays replicated (%s)\n", level, e.what());
      continue;
    }
    auto& entry = dist_coarse_[static_cast<size_t>(level)];
    entry.op = std::make_unique<DistributedCoarseOp<T>>(cop, dec);
    entry.full = std::make_unique<DistributedBlockCoarseOp<T>>(
        cop, *entry.op, mode, wire);
    if (static_cast<size_t>(level) <= schur_coarse_.size() &&
        schur_coarse_[level - 1])
      entry.schur = std::make_unique<DistributedSchurCoarseOp<T>>(
          *schur_coarse_[level - 1], *entry.op, mode, wire);
    ++distributed;
    logf(LogLevel::Verbose,
         "qmg: level %d distributed over %d ranks (local volume %ld)\n",
         level, nranks, dec->local_volume());
  }
  return distributed;
}

template <typename T>
void Multigrid<T>::disable_distributed_coarse() {
  dist_coarse_.clear();
}

template <typename T>
int Multigrid<T>::distributed_coarse_levels() const {
  int n = 0;
  for (const auto& entry : dist_coarse_)
    if (entry.op) ++n;
  return n;
}

template <typename T>
const DistributedCoarseOp<T>* Multigrid<T>::distributed_coarse_op(
    int level) const {
  if (level < 0 || static_cast<size_t>(level) >= dist_coarse_.size())
    return nullptr;
  return dist_coarse_[static_cast<size_t>(level)].op.get();
}

template <typename T>
CommStats Multigrid<T>::distributed_comm_stats() const {
  // Each adapter meters its own exchanges exactly once (the Schur
  // adapter's nested hops write only its counters), so the merge is a
  // plain disjoint sum — no exchange can land in two adapters.
  CommStats total;
  for (const auto& entry : dist_coarse_) {
    if (entry.full) total += entry.full->comm_stats();
    if (entry.schur) total += entry.schur->comm_stats();
  }
  return total;
}

template <typename T>
void Multigrid<T>::reset_distributed_comm_stats() {
  for (auto& entry : dist_coarse_) {
    if (entry.full) entry.full->reset_comm_stats();
    if (entry.schur) entry.schur->reset_comm_stats();
  }
}

template class Multigrid<double>;
template class Multigrid<float>;

}  // namespace qmg
