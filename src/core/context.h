#pragma once
// High-level solver context: the public entry point a downstream
// application (e.g. a Chroma-like analysis code) uses.  Owns the gauge and
// clover fields, the double- and single-precision operators, and optionally
// a multigrid hierarchy; provides one-call MG and BiCGStab solves with the
// paper's precision layout:
//
//   MG:       double outer GCR <- single-precision K-cycle preconditioner
//   BiCGStab: double reliable updates <- half/single inner BiCGStab

#include <memory>

#include "comm/dist_spinor.h"
#include "core/solve_api.h"
#include "dirac/clover.h"
#include "dirac/wilson.h"
#include "gauge/ensemble.h"
#include "mg/hierarchy_cache.h"
#include "mg/multigrid.h"
#include "parallel/dispatch.h"
#include "solvers/mixed.h"

namespace qmg {

struct ContextOptions {
  Coord dims{8, 8, 8, 16};
  double mass = -0.05;
  double csw = 1.0;
  double anisotropy = 1.0;
  double roughness = 0.55;  // synthetic ensemble disorder
  std::uint64_t seed = 7;
  Reconstruct reconstruct = Reconstruct::Full18;  // fine-op gauge compression
  // Execution-layer defaults, applied process-wide at context construction
  // (parallel/dispatch.h): which backend untuned kernels launch on, and the
  // pool size (0 = hardware concurrency).  Individually tuned kernels may
  // override the backend per shape via the TuneCache.
  Backend backend = Backend::Threaded;
  int threads = 0;
  // Lane width for the process default policy (LaunchPolicy::simd_width):
  // 0 = auto — the batched (rhs-lane) kernels run a full native register of
  // their precision under Threaded and Simd (float twice the double lanes;
  // rhs_lane_width), single-rhs BLAS runs the double-lane cap under Simd
  // and scalar under Threaded.  Set explicitly (1/2/4/8) to pin the width
  // of every width-aware kernel, e.g. 1 for scalar batched kernels.
  int simd_width = 0;
  // Launch-policy persistence: when non-empty, the TuneCache (kernel
  // configs + launch backends + rhs-blockings) is loaded from this file at
  // context construction and saved back at destruction, so production runs
  // skip the first-call tuning sweep.
  std::string tune_cache_file;
  // Max hierarchy snapshots the context caches across update_gauge calls
  // (mg/hierarchy_cache.h); 0 disables the cache — every revisited
  // configuration then pays a fresh refresh.
  std::size_t hierarchy_cache_capacity = 4;
};

/// What one QmgContext::update_gauge did: how the hierarchy followed the
/// new configuration (cache restore / refresh / escalated full rebuild) and
/// what it cost.
struct GaugeUpdateReport {
  std::string config_id;
  /// A hierarchy existed and now matches the new configuration.  False
  /// only before setup_multigrid — operators are always updated.
  bool hierarchy_updated = false;
  /// The hierarchy was reinstalled from a cached snapshot of this
  /// config_id; no refresh ran (timings and probe fields stay zero, the
  /// snapshot's baseline_contraction is adopted).
  bool restored_from_cache = false;
  /// The refresh's quality probe regressed past the threshold and a full
  /// regeneration ran (see Multigrid::update_gauge).
  bool escalated = false;
  double probe_contraction = 0;
  double baseline_contraction = 0;
  /// Per-phase hierarchy cost of this update (zero on a cache restore).
  SetupTimings timings;
  /// Cost of the quality probe(s), on top of `timings`.
  double probe_seconds = 0;
  double seconds = 0;  // total wall time: operators + clover + hierarchy
};

class QmgContext {
 public:
  /// Validates `options` up front (threads, simd_width, dims) and
  /// throws std::invalid_argument with a descriptive message instead of
  /// letting a bad value fail deep inside a kernel.
  explicit QmgContext(const ContextOptions& options);
  ~QmgContext();

  /// Build (or rebuild) the MG hierarchy; must be called before any
  /// SolveMethod::Mg solve.  Also snapshots the fresh hierarchy into the
  /// cache under the current config_id().
  void setup_multigrid(const MgConfig& config);
  bool has_multigrid() const { return mg_ != nullptr; }

  /// Swap in a new gauge configuration (the streaming-ensemble step).  The
  /// links are copied element-wise into the context's own gauge storage —
  /// every operator reference and GeometryPtr stays valid — the clover
  /// term and single-precision copies are rebuilt, both Wilson operators
  /// refresh their derived gauge state, and the hierarchy (when one
  /// exists) follows: reinstalled from the cache when `config_id` was seen
  /// before, otherwise adapted by Multigrid::update_gauge (refresh, or
  /// escalated full rebuild) and snapshotted into the cache.  The
  /// context's anisotropy is an OPERATOR parameter and is kept; `gauge`
  /// must match the context geometry (throws std::invalid_argument).
  [[nodiscard]] GaugeUpdateReport update_gauge(const std::string& config_id,
                                               const GaugeField<double>& gauge);

  /// Id of the configuration the context currently holds ("seed-<seed>"
  /// for the synthetic one built at construction).
  const std::string& config_id() const { return config_id_; }
  const HierarchyCache& hierarchy_cache() const { return hierarchy_cache_; }

  /// THE solve entry point (single rhs): solve M x = b as described by
  /// `spec` (core/solve_api.h) — method, tolerance, iteration cap,
  /// even-odd preconditioning, distributed-execution knobs — with x
  /// overwritten from a zero guess.  SolveMethod::Mg runs the paper's
  /// configuration (double outer GCR over the single-precision K-cycle,
  /// on the Schur system when spec.eo) as the batched solve of the
  /// multi-rhs overload on a block of one; SolveMethod::BiCgStab runs the
  /// mixed-precision baseline.  The report owns all statistics,
  /// communication included.  Both overloads throw std::invalid_argument
  /// unless every x and b is a full-lattice fine-grid field on the
  /// context's lattice (create_vector()).
  [[nodiscard]] SolveReport solve(ColorSpinorField<double>& x,
                                  const ColorSpinorField<double>& b,
                                  const SolveSpec& spec = SolveSpec{});

  /// THE solve entry point (multi-rhs): solve M x[k] = b[k] for all k at
  /// once.  SolveMethod::Mg feeds the whole batch to the masked block GCR
  /// — outer applies, MG cycles, transfers and coarse solves all advance
  /// every rhs per batched (site x rhs) kernel launch (paper section 9),
  /// and per-rhs convergence masking keeps each rhs bit-identical to a
  /// solo solve regardless of batch composition.  With spec.nranks > 0
  /// the outer fine applies run the domain-decomposed two-phase dslash
  /// (one batched halo exchange per apply, overlapped when spec.halo says
  /// so) and every factorable coarse level dispatches through its
  /// DistributedCoarseOp split for the solve's duration (paper sections
  /// 6.5 + 9); the report's `comm` then holds all traffic with the
  /// coarse-level share broken out in `coarse_comm`.  SolveMethod::BiCgStab
  /// streams the rhs one at a time (no batched BiCGStab kernel exists).
  [[nodiscard]] SolveReport solve(
      std::vector<ColorSpinorField<double>>& x,
      const std::vector<ColorSpinorField<double>>& b,
      const SolveSpec& spec = SolveSpec{});

  /// Persist / restore the process-wide TuneCache (kernel configs, launch
  /// backends and rhs-blockings).  Returns false on I/O or format errors —
  /// silently dropping that is how a production run ends up re-tuning
  /// every kernel, hence [[nodiscard]].
  [[nodiscard]] bool save_tune_cache(const std::string& path) const;
  [[nodiscard]] bool load_tune_cache(const std::string& path);

  /// Relative solver error |x - x*| / |x*| against a much tighter "exact"
  /// solve — the double-solve error estimate of section 7.1 (ref. [17]).
  double solver_error(const ColorSpinorField<double>& x,
                      const ColorSpinorField<double>& b);

  const WilsonCloverOp<double>& op() const { return *op_d_; }
  const WilsonCloverOp<float>& op_single() const { return *op_f_; }
  const SchurWilsonOp<double>& schur_op() const { return *schur_d_; }
  const SchurWilsonOp<float>& schur_op_single() const { return *schur_f_; }
  const Multigrid<float>& multigrid() const { return *mg_; }
  Multigrid<float>& multigrid() { return *mg_; }
  const GeometryPtr& geometry() const { return geom_; }
  const GaugeField<double>& gauge() const { return gauge_d_; }
  const CloverField<double>& clover() const { return clover_d_; }
  const ContextOptions& options() const { return options_; }
  double mg_setup_seconds() const { return mg_ ? mg_->setup_seconds() : 0; }

  ColorSpinorField<double> create_vector() const {
    return op_d_->create_vector();
  }

 private:
  /// The batched MG solve behind both solve() overloads.
  SolveReport solve_block(BlockSpinor<double>& x_block,
                          const BlockSpinor<double>& b_block,
                          const SolveSpec& spec);
  void check_solve_field(const ColorSpinorField<double>& f,
                         const char* name) const;

  ContextOptions options_;
  GeometryPtr geom_;
  GaugeField<double> gauge_d_;
  GaugeField<float> gauge_f_;
  CloverField<double> clover_d_;
  CloverField<float> clover_f_;
  std::unique_ptr<WilsonCloverOp<double>> op_d_;
  std::unique_ptr<WilsonCloverOp<float>> op_f_;
  std::unique_ptr<SchurWilsonOp<double>> schur_d_;
  std::unique_ptr<SchurWilsonOp<float>> schur_f_;
  std::unique_ptr<Multigrid<float>> mg_;
  std::string config_id_;
  HierarchyCache hierarchy_cache_;
};

}  // namespace qmg
