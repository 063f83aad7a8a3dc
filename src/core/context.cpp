#include "core/context.h"

#include <algorithm>

#include "comm/dist_wilson.h"
#include "fields/blas.h"
#include "parallel/autotune.h"
#include "solvers/block_gcr.h"
#include "util/logger.h"
#include "util/timer.h"

namespace qmg {

namespace {

/// Validate the options up front so a bad value fails at construction with
/// a descriptive std::invalid_argument instead of deep inside a kernel
/// (e.g. a negative pool size hanging the thread pool, or a simd_width the
/// lane packs never compiled for silently falling back).
const ContextOptions& validate_options(const ContextOptions& options) {
  long volume = 1;
  for (int mu = 0; mu < kNDim; ++mu) {
    if (options.dims[mu] <= 0)
      throw std::invalid_argument(
          "ContextOptions: dims[" + std::to_string(mu) +
          "] must be positive, got " + std::to_string(options.dims[mu]));
    volume *= options.dims[mu];
  }
  if (volume % 2 != 0)
    throw std::invalid_argument(
        "ContextOptions: lattice volume must be even for even-odd "
        "checkerboarding, got " + std::to_string(volume) + " sites");
  if (options.threads < 0)
    throw std::invalid_argument(
        "ContextOptions: threads must be >= 0 (0 = hardware concurrency), "
        "got " + std::to_string(options.threads));
  if (options.simd_width != 0 && options.simd_width != 1 &&
      options.simd_width != 2 && options.simd_width != 4 &&
      options.simd_width != 8)
    throw std::invalid_argument(
        "ContextOptions: simd_width must be one of {0 (auto), 1, 2, 4, 8}, "
        "got " + std::to_string(options.simd_width));
  return options;
}

/// Apply the context's execution-layer defaults before any field or
/// operator member is constructed (they already launch through dispatch).
const ContextOptions& apply_dispatch_options(const ContextOptions& options) {
  ThreadPool::instance().resize(options.threads);
  LaunchPolicy policy = default_policy();
  policy.backend = options.backend;
  policy.simd_width = options.simd_width;
  set_default_policy(policy);
  return options;
}

}  // namespace

QmgContext::QmgContext(const ContextOptions& options)
    : options_(apply_dispatch_options(validate_options(options))),
      geom_(make_geometry(options.dims)),
      gauge_d_(disordered_gauge<double>(geom_, options.roughness,
                                        options.seed)),
      gauge_f_(GaugeField<float>(geom_)),
      clover_d_(build_clover_with_inverse(gauge_d_, options.csw,
                                          options.mass)),
      clover_f_(CloverField<float>(geom_)),
      config_id_("seed-" + std::to_string(options.seed)),
      hierarchy_cache_(options.hierarchy_cache_capacity) {
  gauge_d_.set_anisotropy(options.anisotropy);
  gauge_f_ = convert_gauge<float>(gauge_d_);
  clover_f_ = convert_clover<float>(clover_d_);
  const WilsonParams<double> params_d{options.mass, options.csw,
                                      options.anisotropy};
  const WilsonParams<float> params_f{static_cast<float>(options.mass),
                                     static_cast<float>(options.csw),
                                     static_cast<float>(options.anisotropy)};
  op_d_ = std::make_unique<WilsonCloverOp<double>>(gauge_d_, params_d,
                                                   &clover_d_);
  op_f_ = std::make_unique<WilsonCloverOp<float>>(
      gauge_f_, params_f, &clover_f_, options.reconstruct);
  schur_d_ = std::make_unique<SchurWilsonOp<double>>(*op_d_);
  schur_f_ = std::make_unique<SchurWilsonOp<float>>(*op_f_);
  // Launch-policy persistence: restore previously tuned kernel configs and
  // launch policies so this run skips the first-call tuning sweep.  A
  // missing or unreadable file is non-fatal (a fresh cache re-tunes), but
  // say so — a production run silently re-tuning every kernel is exactly
  // the failure the persistence exists to prevent.
  if (!options_.tune_cache_file.empty()) {
    if (!load_tune_cache(options_.tune_cache_file))
      log_verbose("QmgContext: tune cache '%s' not loaded (missing or "
                  "invalid); kernels will re-tune\n",
                  options_.tune_cache_file.c_str());
  }
}

QmgContext::~QmgContext() {
  if (!options_.tune_cache_file.empty()) {
    if (!save_tune_cache(options_.tune_cache_file))
      log_summary("QmgContext: failed to save tune cache '%s'\n",
                  options_.tune_cache_file.c_str());
  }
}

bool QmgContext::save_tune_cache(const std::string& path) const {
  return TuneCache::instance().save(path);
}

bool QmgContext::load_tune_cache(const std::string& path) {
  return TuneCache::instance().load(path);
}

void QmgContext::setup_multigrid(const MgConfig& config) {
  // The hierarchy lives in single precision (paper section 7.1: "with the
  // exception of double precision on the outermost GCR solver, all other
  // computation was in single precision").
  mg_ = std::make_unique<Multigrid<float>>(*op_f_, config);
  // A from-scratch hierarchy is the most expensive artifact the context
  // owns; snapshot it so a stream that revisits this configuration gets it
  // back for the cost of a dequantize.
  hierarchy_cache_.store(config_id_, *mg_);
}

GaugeUpdateReport QmgContext::update_gauge(const std::string& config_id,
                                           const GaugeField<double>& gauge) {
  const Timer timer;
  const auto& in_geom = *gauge.geometry();
  for (int mu = 0; mu < kNDim; ++mu)
    if (in_geom.dim(mu) != geom_->dim(mu))
      throw std::invalid_argument(
          "update_gauge: configuration dims[" + std::to_string(mu) + "] = " +
          std::to_string(in_geom.dim(mu)) + " does not match the context's " +
          std::to_string(geom_->dim(mu)));
  // Element-wise copy, not assignment: every operator holds gauge_d_ /
  // gauge_f_ by reference and the whole stack shares geom_, so the objects
  // (and their GeometryPtr) must stay put while the links change under
  // them.  The anisotropy is part of the operator parameters, not the
  // configuration, and is deliberately left alone.
  for (int mu = 0; mu < kNDim; ++mu)
    for (long s = 0; s < geom_->volume(); ++s)
      gauge_d_.link(mu, s) = gauge.link(mu, s);
  clover_d_ = build_clover_with_inverse(gauge_d_, options_.csw, options_.mass);
  gauge_f_ = convert_gauge<float>(gauge_d_);
  gauge_f_.set_anisotropy(options_.anisotropy);
  clover_f_ = convert_clover<float>(clover_d_);
  op_d_->refresh_gauge();
  op_f_->refresh_gauge();
  config_id_ = config_id;

  GaugeUpdateReport rep;
  rep.config_id = config_id;
  if (mg_) {
    rep.hierarchy_updated = true;
    if (hierarchy_cache_.restore(config_id, *mg_)) {
      rep.restored_from_cache = true;
      rep.baseline_contraction = mg_->baseline_contraction();
    } else {
      const MgUpdateReport mrep = mg_->update_gauge(gauge_f_);
      rep.escalated = mrep.escalated;
      rep.probe_contraction = mrep.probe_contraction;
      rep.baseline_contraction = mrep.baseline_contraction;
      rep.timings = mrep.timings;
      rep.probe_seconds = mrep.probe_seconds;
      hierarchy_cache_.store(config_id, *mg_);
    }
  }
  rep.seconds = timer.seconds();
  return rep;
}

namespace {

/// Restores the hierarchy to replicated cycles even when the solve throws.
struct ScopedDistributedCoarse {
  ScopedDistributedCoarse(Multigrid<float>& mg, int nranks, HaloMode mode)
      : mg_(mg) {
    levels = mg_.enable_distributed_coarse(nranks, mode);
  }
  ~ScopedDistributedCoarse() { mg_.disable_distributed_coarse(); }
  Multigrid<float>& mg_;
  int levels = 0;
};

/// The spec's iteration cap, or the method's historical default.
int effective_max_iter(const SolveSpec& spec) {
  if (spec.max_iter > 0) return spec.max_iter;
  return spec.method == SolveMethod::BiCgStab ? 100000 : 1000;
}

SolverParams params_for(const SolveSpec& spec) {
  SolverParams params;
  params.tol = spec.tol;
  params.max_iter = effective_max_iter(spec);
  params.restart = 10;  // Krylov subspace size of the paper's outer GCR
  params.record_history = spec.record_history;
  if (spec.method == SolveMethod::BiCgStab) params.reliable_delta = 1e-2;
  return params;
}

SolveReport report_shell(const SolveSpec& spec, int nrhs) {
  SolveReport rep;
  rep.method = spec.method;
  rep.nrhs = nrhs;
  rep.distributed = spec.nranks > 0;
  return rep;
}

}  // namespace

void QmgContext::check_solve_field(const ColorSpinorField<double>& f,
                                   const char* name) const {
  const bool same_lattice = f.geometry()->dims() == geom_->dims();
  if (!same_lattice || f.subset() != Subset::Full || f.nspin() != 4 ||
      f.ncolor() != 3)
    throw std::invalid_argument(
        std::string("solve: ") + name +
        " must be a full-lattice field with 4 spins and 3 colours on the "
        "context's lattice (create_vector()), got a " +
        to_string(f.subset()) + " field with " + std::to_string(f.nspin()) +
        " spins and " + std::to_string(f.ncolor()) + " colours" +
        (same_lattice ? "" : " on another lattice"));
}

SolveReport QmgContext::solve(ColorSpinorField<double>& x,
                              const ColorSpinorField<double>& b,
                              const SolveSpec& spec) {
  check_solve_field(x, "x");
  check_solve_field(b, "b");
  if (spec.method == SolveMethod::Mg) {
    // A single rhs is a block of one, which has exactly a field's layout:
    // b is copied into one block and the solution straight out into x.
    BlockSpinor<double> b_block(geom_, 4, 3, 1);
    std::copy(b.data(), b.data() + b.size(), b_block.data());
    BlockSpinor<double> x_block = b_block.similar();
    SolveReport rep = solve_block(x_block, b_block, spec);
    std::copy(x_block.data(), x_block.data() + x_block.size(), x.data());
    return rep;
  }
  if (spec.nranks > 0)
    throw std::invalid_argument(
        "solve: distributed execution requires SolveMethod::Mg");
  const SolverParams params = params_for(spec);
  SolveReport rep = report_shell(spec, 1);
  blas::zero(x);
  if (spec.eo) {
    auto b_hat = schur_d_->create_vector();
    schur_d_->prepare(b_hat, b);
    auto x_e = schur_d_->create_vector();
    MixedPrecisionBiCgStab solver(*schur_d_, *schur_f_, params,
                                  spec.bicg_inner);
    rep.rhs.push_back(solver.solve(x_e, b_hat));
    schur_d_->reconstruct(x, x_e, b);
  } else {
    MixedPrecisionBiCgStab solver(*op_d_, *op_f_, params, spec.bicg_inner);
    rep.rhs.push_back(solver.solve(x, b));
  }
  rep.seconds = rep.rhs.front().seconds;
  return rep;
}

SolveReport QmgContext::solve(std::vector<ColorSpinorField<double>>& x,
                              const std::vector<ColorSpinorField<double>>& b,
                              const SolveSpec& spec) {
  if (x.size() != b.size() || b.empty())
    throw std::invalid_argument("solve: x/b size mismatch or empty");
  for (size_t k = 0; k < b.size(); ++k) {
    check_solve_field(x[k], "x");
    check_solve_field(b[k], "b");
  }
  const int nrhs = static_cast<int>(b.size());

  if (spec.method == SolveMethod::BiCgStab) {
    // No batched BiCGStab kernel exists: stream the rhs (documented).
    SolveReport rep = report_shell(spec, nrhs);
    for (int k = 0; k < nrhs; ++k) {
      const SolveReport r =
          solve(x[static_cast<size_t>(k)], b[static_cast<size_t>(k)], spec);
      rep.rhs.push_back(r.result());
      rep.seconds += r.seconds;
    }
    return rep;
  }

  const BlockSpinor<double> b_block = pack_block(b);
  BlockSpinor<double> x_block = b_block.similar();
  SolveReport rep = solve_block(x_block, b_block, spec);
  unpack_block(x, x_block);
  return rep;
}

SolveReport QmgContext::solve_block(BlockSpinor<double>& x_block,
                                    const BlockSpinor<double>& b_block,
                                    const SolveSpec& spec) {
  if (!mg_) throw std::runtime_error("setup_multigrid() not called");
  SolveReport rep = report_shell(spec, b_block.nrhs());
  rep.mg_setup = mg_->setup_timings();
  const SolverParams params = params_for(spec);
  BlockSolverResult res;

  if (spec.nranks > 0) {
    const auto dec = make_decomposition(geom_, spec.nranks);
    const DistributedWilsonOp<double> dist(gauge_d_, op_d_->params(),
                                           &clover_d_, dec);
    const DistributedBlockWilsonOp<double> dist_op(
        dist, spec.halo, spec.halo_wire);
    // The full latency-bound regime (paper sections 6.5 + 9): besides the
    // outer fine-operator applies above, every factorable coarse level of
    // the K-cycle dispatches through its own DistributedCoarseOp — batched
    // halos amortizing per-message latency over all nrhs, overlapped when
    // spec.halo says so — and reverts to replicated when the solve
    // returns.  Iterates stay bit-identical to the replicated
    // eo=false solve because every distributed apply is bit-identical to
    // the replicated one.  (The outer solve runs the full system; spec.eo
    // is ignored here, matching the legacy entry point.)
    ScopedDistributedCoarse coarse_dist(*mg_, spec.nranks, spec.halo);
    MixedPrecisionBlockMgPreconditioner precond(*mg_);
    res = BlockGcrSolver<double>(dist_op, params, &precond)
              .solve(x_block, b_block);
    // The report owns the stats, merged exactly once per solve: the fine
    // operator's counters and the per-level coarse counters are disjoint
    // (each exchange was metered by the one adapter that ran it), and the
    // coarse share is additionally broken out on its own.
    rep.coarse_comm = mg_->distributed_comm_stats();
    rep.comm = dist_op.comm_stats();
    rep.comm += rep.coarse_comm;
  } else if (spec.eo) {
    BlockSpinor<double> b_hat = schur_d_->create_block(b_block.nrhs());
    schur_d_->prepare_block(b_hat, b_block);
    BlockSpinor<double> x_e = b_hat.similar();
    SchurMixedBlockMgPreconditioner precond(*mg_);
    res = BlockGcrSolver<double>(*schur_d_, params, &precond)
              .solve(x_e, b_hat);
    schur_d_->reconstruct_block(x_block, x_e, b_block);
  } else {
    MixedPrecisionBlockMgPreconditioner precond(*mg_);
    res = BlockGcrSolver<double>(*op_d_, params, &precond)
              .solve(x_block, b_block);
  }
  rep.rhs = std::move(res.rhs);
  rep.block_matvecs = res.block_matvecs;
  rep.block_reductions = res.block_reductions;
  rep.seconds = res.seconds;
  return rep;
}

double QmgContext::solver_error(const ColorSpinorField<double>& x,
                                const ColorSpinorField<double>& b) {
  // "Exact" reference via a much tighter solve (double-solve strategy).
  auto x_ref = create_vector();
  SolverParams params;
  params.tol = 1e-12;
  params.max_iter = 200000;
  params.reliable_delta = 1e-2;
  BiCgStabSolver<double> solver(*op_d_, params);
  solver.solve(x_ref, b);
  auto diff = x_ref;
  blas::axpy(-1.0, x, diff);
  return std::sqrt(blas::norm2(diff) / blas::norm2(x_ref));
}

}  // namespace qmg
