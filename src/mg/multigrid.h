#pragma once
// The adaptive geometric multigrid hierarchy and K-cycle preconditioner
// (paper sections 3.4 and 7.1):
//
//   * setup: per level, generate null vectors, block-orthonormalize into a
//     Transfer, Galerkin-coarsen, recurse;
//   * solve: flexible GCR on the fine grid, preconditioned by a K-cycle —
//     MR pre/post smoothing on each level, and on intermediate levels a
//     GCR(k) solve of the coarse-grid system that is itself preconditioned
//     by the next level's cycle.  The coarsest grid is solved with GCR.

#include <memory>
#include <vector>

#include "comm/dist_coarse.h"
#include "dirac/wilson.h"
#include "fields/blas.h"
#include "mg/coarse_op.h"
#include "mg/galerkin.h"
#include "mg/nullspace.h"
#include "mg/setup_timings.h"
#include "mg/transfer.h"
#include "solvers/solver.h"
#include "util/timer.h"

namespace qmg {

enum class CycleType { KCycle, VCycle };

/// Coarsest-grid solver strategy for the batched cycle (cycle_block).  The
/// coarsest solve is the latency-bound stage the paper's section-9 analysis
/// targets: its grid is too small to hide a global reduction behind stencil
/// work, so the three strategies trade synchronization count against
/// arithmetic:
///   * BlockGcr      — the reference masked block GCR (3 + j syncs/matvec);
///   * CaGmres       — s-step block CA-GMRES (solvers/block_ca_gmres.h):
///                     2 fused syncs per s+1 matvecs;
///   * PipelinedGcr  — pipelined block GCR (solvers/block_pipelined_gcr.h):
///                     1 fused sync/matvec, overlapped with the next matvec
///                     on the reduction comm worker.
/// All three respect the per-rhs masking contract and report true-residual
/// convergence, so the cycle they feed is identical in meaning; CA-GMRES
/// additionally falls back to BlockGcr on basis breakdown.  Every cycle is
/// a batched one, so single-rhs solves (blocks of one) and the quality
/// probe honour the choice too; with coarsest_ca_s = 0 the probe's s-step
/// depth is the TuneCache pick for nrhs 1.  The strategies pay where the
/// sync cost is amortizable over nrhs, on the distributed path.
enum class CoarsestSolver { BlockGcr, CaGmres, PipelinedGcr };

/// Parameters for one coarsening step (fine side of the transfer).
struct MgLevelConfig {
  Coord block{2, 2, 2, 2};  // aggregate extents (Table 2 "blocking")
  int nvec = 16;            // null vectors / coarse colors (24 or 32 in paper)
  int null_iters = 100;     // relaxation sweeps per null vector
  int pre_smooth = 0;       // MR pre-smoothing applications
  int post_smooth = 4;      // MR post-smoothing applications (paper: 4)
  double smoother_omega = 0.85;
  // Smooth on the even-odd (Schur) system of this level's operator instead
  // of the full system (paper section 7.1: red-black "on all levels").  The
  // odd sites are then reconstructed exactly from the smoothed even sites.
  bool eo_smooth = true;
  // Adaptive setup refinement (paper section 3.4, steps 1-2 "repeat until we
  // obtain enough candidate vectors"): after the hierarchy of this level is
  // first built, each null vector v is driven through v <- (1 - B M) v where
  // B is the current two-grid cycle.  Components the coarse space already
  // captures are annihilated, leaving v rich in the error modes the method
  // cannot yet handle; the transfer and coarse operator are then rebuilt.
  int adaptive_passes = 1;   // number of refine-and-rebuild passes
  int adaptive_iters = 4;    // (1 - B M) applications per vector per pass
  // K-cycle coarse solve at the next level: GCR(krylov) to tol or maxiter.
  int cycle_krylov = 10;   // Krylov subspace size (paper: 10)
  int cycle_maxiter = 8;
  double cycle_tol = 0.25;
};

struct MgConfig {
  std::vector<MgLevelConfig> levels;  // one entry per coarsening
  CycleType cycle = CycleType::KCycle;
  double coarsest_tol = 0.25;  // relative tolerance of the bottom solve
  int coarsest_maxiter = 100;
  int coarsest_krylov = 10;
  bool coarsest_eo = true;  // solve the coarsest grid's Schur system
  // Which solver runs the batched coarsest-grid solve (see CoarsestSolver).
  CoarsestSolver coarsest_solver = CoarsestSolver::BlockGcr;
  // s-step depth for CoarsestSolver::CaGmres; 0 = autotune over {2, 4, 8}
  // per (coarsest geometry, nrhs) via the persistent TuneCache, measured on
  // the first coarsest solve of that shape.  Negative values are rejected
  // when the hierarchy is built.
  int coarsest_ca_s = 4;
  std::uint64_t seed = 7;
  // Storage format of every coarse level's links/diag (paper section 4,
  // strategy (c)): Single/Half16 cut the bandwidth-bound coarse apply's
  // stencil traffic ~2x/~4x while the kernels keep accumulating in the
  // hierarchy precision T.  Setup (null vectors, Galerkin, adaptive
  // refinement) always runs at full precision; the hierarchy is compressed
  // once it is complete.  The quantization error lands inside the K-cycle
  // preconditioner, where the restarted GCR's true-residual recomputation
  // (solvers/gcr.h, the reliable-update step) and the flexible outer solve
  // bound its effect on iteration counts (tested).
  CoarseStorage coarse_storage = CoarseStorage::Native;
  // Hierarchy lifecycle (update_gauge): a refresh reuses the previous
  // configuration's candidate vectors as the starting guess — on a
  // correlated configuration they are near-null up to the drift, so
  // refresh_null_iters relaxation sweeps replace the full null_iters from a
  // random start, and refresh_adaptive_passes/iters replace the full
  // adaptive schedule.  (20 sweeps holds solve iteration counts at the
  // from-scratch level across a correlated stream — 10 lets small per-step
  // losses COMPOUND over successive refreshes, see bench_ensemble.)  After
  // the refresh a cheap quality probe (the asymptotic cycle contraction on
  // a fixed seeded rhs) compares against the rate of the last accepted
  // update; if it regressed past refresh_threshold x that baseline, the
  // refresh escalates to full regeneration.  refresh_threshold <= 0
  // disables the probe entirely (no baseline measured at setup, refreshes
  // never escalate).  refresh_probe_cap is the ABSOLUTE backstop on that
  // relative test: on a stream whose intrinsic difficulty drifts upward,
  // the rebased baseline can approach 1, where no multiplicative threshold
  // fires any more — but a refreshed hierarchy whose cycle barely contracts
  // is useless regardless of how the baseline got there, so a probe above
  // the cap escalates unconditionally.  Values >= 1 disable the backstop
  // (a contraction of 1 means the cycle made no progress at all).
  int refresh_null_iters = 20;
  int refresh_adaptive_passes = 1;
  int refresh_adaptive_iters = 1;
  double refresh_threshold = 1.5;
  double refresh_probe_cap = 0.95;
};

/// What one Multigrid::update_gauge did: which schedule ran, whether the
/// quality probe forced escalation, the probe/baseline contraction rates,
/// and the per-phase timings (summed over refresh + escalation when both
/// ran).
struct MgUpdateReport {
  bool escalated = false;      // probe regressed; full regeneration ran
  double probe_contraction = 0;     // |r|/|b| after one cycle, post-update
  double baseline_contraction = 0;  // same rate at the last full setup
  double probe_seconds = 0;
  SetupTimings timings;
};

/// The multigrid hierarchy over a Wilson-Clover fine operator, in a single
/// working precision T (the paper runs this part in single precision inside
/// a double-precision outer GCR; see MixedPrecisionBlockMgPreconditioner).
template <typename T>
class Multigrid {
 public:
  using Field = ColorSpinorField<T>;
  using BlockField = BlockSpinor<T>;

  /// Builds the full hierarchy (null vectors, transfers, coarse operators).
  Multigrid(const WilsonCloverOp<T>& fine_op, MgConfig config);

  int num_levels() const { return static_cast<int>(ops_.size()); }
  const LinearOperator<T>& op(int level) const { return *ops_[level]; }
  const Transfer<T>& transfer(int level) const { return *transfers_[level]; }
  const CoarseDirac<T>& coarse_op(int level) const {
    return *coarse_ops_[level];
  }
  /// Mutable access, e.g. to pin a kernel config (set_kernel_config) so
  /// cycles of every rhs count share one decomposition.
  CoarseDirac<T>& coarse_op_mutable(int level) { return *coarse_ops_[level]; }
  const MgConfig& config() const { return config_; }
  double setup_seconds() const { return setup_timings_.total_seconds(); }
  /// Per-phase breakdown of the last setup or refresh (null-gen / Galerkin
  /// / adaptive); also accumulated into the Profiler under "setup/*".
  const SetupTimings& setup_timings() const { return setup_timings_; }

  /// The gauge field under the fine operator changed IN PLACE (hierarchy
  /// lifecycle): re-adapt the hierarchy to it.  The previous configuration's
  /// candidate null vectors seed a short relaxation refresh
  /// (config().refresh_null_iters sweeps instead of a full regeneration),
  /// Galerkin and a short adaptive pass rebuild every coarse operator, and
  /// the quality probe escalates to full regeneration when the refreshed
  /// hierarchy's cycle contraction regressed past refresh_threshold x the
  /// last full setup's baseline.  `gauge` must be the very field the fine
  /// operator references — the operator holds it by reference, so the swap
  /// happens in the caller's storage; passing anything else would
  /// desynchronize operator and hierarchy, and throws.  Any distributed
  /// coarse splits are dropped (re-enable after the update).
  MgUpdateReport update_gauge(const GaugeField<T>& gauge);

  /// The cheap hierarchy-quality probe: residual contraction |r|/|b| of
  /// cycle_block(0) on a fixed rhs (a block of one) seeded from
  /// config().seed.  Lower is better; a hierarchy whose coarse space no
  /// longer captures the near-null modes contracts less per cycle, which is
  /// exactly the K-cycle iteration-count regression the refresh policy
  /// watches for.
  double probe_quality() const;
  /// Probe contraction recorded at the last FULL setup (0 when the probe is
  /// disabled via refresh_threshold <= 0).
  double baseline_contraction() const { return baseline_contraction_; }
  /// Adopt a baseline measured elsewhere (HierarchyCache restore: the
  /// snapshot carries the baseline of the hierarchy it captured).
  void set_baseline_contraction(double c) { baseline_contraction_ = c; }

  /// HierarchyCache restore protocol: install a snapshot's per-level state
  /// — orthonormalized prolongator columns, Half16 coarse stencil, float
  /// diagonal inverse — into the EXISTING transfer and coarse operator of
  /// `level` (Schur operators reference them and follow automatically).
  /// The restored level runs Half16 storage regardless of
  /// config().coarse_storage: the snapshot is quantized, and dequantizing
  /// back to native would only launder the quantization it already paid.
  /// Drops any distributed coarse splits.
  void install_level_storage(int level, const std::vector<Field>& ortho_vecs,
                             HalfCoarseLinks stencil,
                             std::vector<Complex<float>> diag_inv);

  /// One multigrid cycle at `level` (paper section 9's batched form): x is
  /// overwritten with an approximate solution of op(level) x = b for every
  /// rhs of the block.  All rhs advance through one K-cycle level at a
  /// time, so every stage — residual computation, transfer, masked
  /// block-MR smoothing (solvers/block_mr.h), coarse K-cycle GCR and the
  /// coarsest-grid solve — is one batched kernel; no stage streams rhs.  A
  /// single rhs is a block of one, whose kernels run the single-rhs bodies.
  /// Per-rhs results are bit-identical to cycling each rhs as a block of
  /// one when the coarse kernel configs are pinned (set_kernel_config).
  /// When enable_distributed_coarse is active, every coarse-level operator
  /// application additionally routes through the distributed adapters
  /// (batched halos, optional overlap) with unchanged per-rhs bits.
  void cycle_block(int level, BlockField& x, const BlockField& b) const;

  /// Push the coarse levels of the batched K-cycle onto a virtual rank
  /// grid (paper section 6.5 applied where it matters most — the
  /// latency-bound coarsest grids): every coarse level whose geometry
  /// factors over `nranks` gets a DistributedCoarseOp split of its stencil
  /// plus the solver-facing full-operator and Schur adapters, and
  /// cycle_block dispatches that level's operator applications — K-cycle
  /// GCR matvecs, residuals, even-odd smoothing, the coarsest-grid solve —
  /// through them, with one batched (optionally overlapped) halo exchange
  /// per apply.  Transfers and the prepare/reconstruct solve-setup stages
  /// stay replicated (they run once per cycle stage, not per iteration).
  /// With pinned coarse kernel configs the distributed cycle is
  /// bit-identical to the replicated one (tested).  Levels that cannot be
  /// factored (non-power-of-two nranks remainder, unit local extents) are
  /// skipped and stay replicated.  Returns the number of levels now
  /// running distributed.
  int enable_distributed_coarse(int nranks,
                                HaloMode mode = HaloMode::Overlapped,
                                WirePrecision wire = WirePrecision::Native);
  /// Back to fully replicated cycles (drops the distributed operators).
  void disable_distributed_coarse();
  /// Number of levels currently dispatching through distributed operators.
  int distributed_coarse_levels() const;
  /// The distributed split of a coarse level's operator (null when that
  /// level is not distributed).
  const DistributedCoarseOp<T>* distributed_coarse_op(int level) const;
  /// The solver-facing adapters of a distributed level (null when not
  /// distributed) — the objects whose comm_stats() the per-level merge
  /// reads; exposed for the accounting tests and the K-cycle bench.
  const DistributedBlockCoarseOp<T>* distributed_block_op(int level) const {
    if (level < 0 || static_cast<size_t>(level) >= dist_coarse_.size())
      return nullptr;
    return dist_coarse_[static_cast<size_t>(level)].full.get();
  }
  const DistributedSchurCoarseOp<T>* distributed_schur_op(int level) const {
    if (level < 0 || static_cast<size_t>(level) >= dist_coarse_.size())
      return nullptr;
    return dist_coarse_[static_cast<size_t>(level)].schur.get();
  }

  /// Communication of every distributed coarse apply since the last reset,
  /// merged across levels and adapters.  Each halo exchange is metered
  /// exactly once, into the adapter that ran it — the full-operator and
  /// Schur adapters of a level have disjoint counters, and a nested Schur
  /// apply's two exchanges land only in the Schur adapter — so this sum
  /// never double-counts (tested).
  CommStats distributed_comm_stats() const;
  void reset_distributed_comm_stats();

  /// Synchronization meter of the batched coarsest-grid solves since the
  /// last reset: every dist:: reduction the coarsest solver runs — fused
  /// Gram matrices, pipelined dot batches, norm checks — counts here with
  /// its payload and latency (CommStats::count_allreduce), independent of
  /// which CoarsestSolver strategy is active.  Reconciles against the
  /// solvers' BlockSolverResult::block_reductions (tested).
  const CommStats& coarsest_comm_stats() const { return coarsest_comm_; }
  void reset_coarsest_comm_stats() { coarsest_comm_ = CommStats{}; }

  /// Per-level profiling of time spent inside cycles (feeds Fig. 4).
  const Profiler& profiler() const { return profiler_; }
  void reset_profile() { profiler_.clear(); }

  /// The fine operator's even-odd Schur complement (null when the level-0
  /// configuration does not use red-black smoothing).
  const SchurWilsonOp<T>* schur_fine() const { return schur_fine_.get(); }

 private:
  const WilsonCloverOp<T>& fine_op_;
  MgConfig config_;
  std::vector<const LinearOperator<T>*> ops_;
  std::vector<std::unique_ptr<Transfer<T>>> transfers_;
  std::vector<std::unique_ptr<CoarseDirac<T>>> coarse_ops_;
  std::unique_ptr<SchurWilsonOp<T>> schur_fine_;
  std::vector<std::unique_ptr<SchurCoarseOp<T>>> schur_coarse_;
  /// Aggregation maps, built once: blockings depend only on the geometry,
  /// never on the gauge field, so rebuilds reuse them — which keeps every
  /// coarse GeometryPtr stable across the hierarchy's lifetime (cached
  /// candidate vectors and snapshots stay shape-compatible by pointer).
  std::vector<std::shared_ptr<const BlockMap>> maps_;
  /// Per-level candidate null vectors as refined by the last build — the
  /// reuse starting guess of the next update_gauge refresh.
  std::vector<std::vector<Field>> candidates_;
  SetupTimings setup_timings_;
  double baseline_contraction_ = 0;
  mutable Profiler profiler_;
  // Allreduce meter of the coarsest-grid solves (see coarsest_comm_stats).
  mutable CommStats coarsest_comm_;
  // Autotuned s per nrhs (coarsest_ca_s == 0), resolved lazily on the first
  // coarsest solve of that width and persisted through the TuneCache.
  mutable std::vector<int> tuned_ca_s_;

  /// The distributed split of one coarse level: the rank-partitioned
  /// stencil plus the two solver-facing adapters cycle_block dispatches
  /// through.  Indexed by level (entry 0 — the fine grid — stays empty).
  struct DistCoarseLevel {
    std::unique_ptr<DistributedCoarseOp<T>> op;
    std::unique_ptr<DistributedBlockCoarseOp<T>> full;
    std::unique_ptr<DistributedSchurCoarseOp<T>> schur;
  };
  std::vector<DistCoarseLevel> dist_coarse_;

  /// The operator cycle_block applies at `level`: the distributed
  /// full-operator adapter when that level is distributed, the replicated
  /// operator otherwise.
  const LinearOperator<T>& block_op(int level) const {
    if (level > 0 && static_cast<size_t>(level) < dist_coarse_.size() &&
        dist_coarse_[static_cast<size_t>(level)].full)
      return *dist_coarse_[static_cast<size_t>(level)].full;
    return *ops_[static_cast<size_t>(level)];
  }
  /// Same dispatch for the level's even-odd Schur complement (level >= 1).
  const LinearOperator<T>& schur_block_op(int level) const {
    if (static_cast<size_t>(level) < dist_coarse_.size() &&
        dist_coarse_[static_cast<size_t>(level)].schur)
      return *dist_coarse_[static_cast<size_t>(level)].schur;
    return *schur_coarse_[static_cast<size_t>(level - 1)];
  }

  /// The batched coarsest-grid solve of op x = b, dispatching on
  /// config_.coarsest_solver (GCR / CA-GMRES / pipelined GCR), with every
  /// sync metered into coarsest_comm_.  `op` is the full or Schur system
  /// operator cycle_block selected — distributed adapter or replicated.
  BlockSolverResult solve_coarsest(const LinearOperator<T>& op, BlockField& x,
                                   const BlockField& b) const;

  /// s-step depth for the CA coarsest solve at this rhs count: the config
  /// value, or — when coarsest_ca_s == 0 — the TuneCache-backed winner of a
  /// timed {2, 4, 8} sweep on the first coarsest solve of this shape.
  int coarsest_ca_depth(const LinearOperator<T>& op, const BlockField& b) const;

  /// MR smoothing of a whole block at `level` (solvers/block_mr.h): all rhs
  /// advance through one masked block-MR — on the level's Schur system
  /// when configured, through the distributed Schur adapter when the level
  /// is distributed — with per-rhs masking keeping every rhs bit-identical
  /// to smoothing it alone.
  void smooth_block(int level, BlockField& x, const BlockField& b,
                    int iters) const;

  /// Build or refresh the whole hierarchy below the fine operator.  With
  /// `reuse` the per-level candidates_ seed a short relaxation refresh
  /// (falling back to full generation where no compatible candidates
  /// exist); without it, full from-scratch generation.  Either way every
  /// transfer/coarse operator/Schur complement is recreated and
  /// setup_timings_ is rewritten with the per-phase breakdown.
  void rebuild(bool reuse);

  // The K-cycle's coarse GCR is preconditioned by the next level's cycle.
  class NextLevelCycle : public BlockPreconditioner<T> {
   public:
    NextLevelCycle(const Multigrid& mg, int level)
        : mg_(mg), level_(level) {}
    void operator()(BlockField& out, const BlockField& in) override {
      mg_.cycle_block(level_, out, in);
    }

   private:
    const Multigrid& mg_;
    int level_;
  };
};

/// The batched multigrid cycle packaged as a BlockPreconditioner for a
/// same-precision outer block solver.
template <typename T>
class MgBlockPreconditioner : public BlockPreconditioner<T> {
 public:
  using BlockField = typename BlockPreconditioner<T>::BlockField;
  explicit MgBlockPreconditioner(const Multigrid<T>& mg) : mg_(mg) {}
  void operator()(BlockField& out, const BlockField& in) override {
    mg_.cycle_block(0, out, in);
  }

 private:
  const Multigrid<T>& mg_;
};

/// Precision-bridging block preconditioner: the outer double-precision
/// block GCR sees a single-precision batched multigrid cycle (the paper's
/// precision layout: double outermost GCR, single everywhere inside,
/// section 7.1).  The float staging blocks are reused across applications
/// (one per outer iteration of a block solve) and rebuilt only when the rhs
/// count changes.
class MixedPrecisionBlockMgPreconditioner : public BlockPreconditioner<double> {
 public:
  explicit MixedPrecisionBlockMgPreconditioner(const Multigrid<float>& mg)
      : mg_(mg) {}
  void operator()(BlockSpinor<double>& out,
                  const BlockSpinor<double>& in) override {
    if (in_f_.nrhs() != in.nrhs()) {
      in_f_ = BlockSpinor<float>(in.geometry(), in.nspin(), in.ncolor(),
                                 in.nrhs(), in.subset());
      out_f_ = in_f_.similar();
    }
    convert_block_into(in_f_, in);
    blas::block_zero(out_f_);
    mg_.cycle_block(0, out_f_, in_f_);
    convert_block_into(out, out_f_);
  }

 private:
  const Multigrid<float>& mg_;
  BlockSpinor<float> in_f_, out_f_;
};

/// Even-odd bridging preconditioner: preconditions the fine-grid *Schur
/// complement* block system with the multigrid cycle on the *full* system.
/// Block elimination of M x = (r_e, 0) gives S x_e = r_e exactly, so
/// embedding each even-parity residual into a full-lattice vector (zero on
/// odd sites), running one MG cycle, and extracting the even component
/// preconditions S.  This is how red-black preconditioning on the outer
/// Krylov solver composes with multigrid (paper section 7.1).
class SchurMixedBlockMgPreconditioner : public BlockPreconditioner<double> {
 public:
  explicit SchurMixedBlockMgPreconditioner(const Multigrid<float>& mg)
      : mg_(mg) {}
  void operator()(BlockSpinor<double>& out_e,
                  const BlockSpinor<double>& in_e) override {
    BlockSpinor<float> full(in_e.geometry(), in_e.nspin(), in_e.ncolor(),
                            in_e.nrhs());
    const auto in_f = convert_block<float>(in_e);
    insert_parity_block(full, in_f, /*parity=*/0);
    auto x_full = full.similar();
    mg_.cycle_block(0, x_full, full);
    auto x_e = in_f.similar();
    extract_parity_block(x_e, x_full, /*parity=*/0);
    convert_block_into(out_e, x_e);
  }

 private:
  const Multigrid<float>& mg_;
};

}  // namespace qmg
