#pragma once
// The coarse-grid operator (paper Eq. 3):
//
//   Mhat_{x,x'} = X_x delta_{x,x'}
//               + sum_mu [ Yfwd_mu(x) delta_{x+mu,x'} + Ybwd_mu(x) delta_{x-mu,x'} ]
//
// where X and the eight Y link matrices are dense (2*Nhat_c)^2 complex
// blocks produced by the Galerkin product P^dag M P.  The tensor-product
// structure between spin and color of the fine grid is lost (section 3.4),
// which is why the coarse operator is both denser per site and far less
// parallel per flop — the motivating problem of the paper.
//
// The apply() kernel is parameterized by the fine-grained parallelization
// strategy of section 6 and, by default, autotuned.

#include <optional>
#include <string>
#include <vector>

#include "fields/halflinks.h"
#include "lattice/geometry.h"
#include "mg/coarse_stencil.h"
#include "parallel/dispatch.h"
#include "parallel/strategy.h"
#include "solvers/linear_operator.h"

namespace qmg {

template <typename T>
class CoarseDirac : public LinearOperator<T> {
 public:
  using Field = typename LinearOperator<T>::Field;

  static constexpr int kNSpin = 2;
  /// 8 hop links (2*mu + dir, dir 0 = forward) + diagonal per site.
  static constexpr int kNLinks = detail::kCoarseLinks;

  CoarseDirac(GeometryPtr geom, int ncolor);

  const GeometryPtr& geometry() const { return geom_; }
  int ncolor() const { return nc_; }
  /// Dense block dimension N = Nhat_s * Nhat_c = 2 * ncolor.
  int block_dim() const { return n_; }

  /// The stencil in its active storage format (mg/coarse_stencil.h); every
  /// kernel reads it through its visit()/visit_inverse() row views, and
  /// DistributedCoarseOp splits it over the ranks.
  const CoarseStencilStorage<T>& stencil() const { return stencil_; }

  // Raw NATIVE storage (row-major N x N Complex<T> blocks), written by the
  // Galerkin builder and read by CoarseStencilView / convert_coarse.
  // Released by compress_storage(); callers that need it must check
  // has_native_storage().
  Complex<T>* link_data(long site, int link) {
    return stencil_.link_data(site, link);
  }
  const Complex<T>* link_data(long site, int link) const {
    return stencil_.link_data(site, link);
  }
  Complex<T>* diag_data(long site) { return stencil_.diag_data(site); }
  const Complex<T>* diag_data(long site) const {
    return stencil_.diag_data(site);
  }

  /// Truncate the links/diagonal (and diagonal inverse, when present) into
  /// `storage` and release the native arrays — the memory AND bandwidth
  /// reduction of strategy (c).  Single with T=float is a no-op (native
  /// already IS single).  Call after Galerkin construction and
  /// compute_diag_inverse(): recursion (CoarseStencilView) and
  /// convert_coarse need native data.  Every kernel reads the resulting
  /// format and keeps accumulating in T.
  void compress_storage(CoarseStorage storage) { stencil_.compress(storage); }
  CoarseStorage storage() const { return stencil_.format(); }
  bool has_native_storage() const { return stencil_.has_native(); }

  /// Quantized copy of the ACTIVE stencil (8 links + diagonal per site) —
  /// the HierarchyCache snapshot payload.  Works from any storage format:
  /// Half16 copies the already-quantized blocks (no second quantization
  /// pass), Native/Single quantize on the way out.
  HalfCoarseLinks snapshot_half_links() const {
    return stencil_.snapshot_half_links();
  }
  /// Single-precision copy of the diagonal inverse (float regardless of
  /// source format: the inverse is conditioning-sensitive, so snapshots
  /// never push it through Q15).  Requires compute_diag_inverse().
  std::vector<Complex<float>> snapshot_diag_inverse() const {
    return stencil_.snapshot_diag_inverse();
  }
  /// Install a snapshot as the ACTIVE storage: Half16 stencil + float
  /// diagonal inverse, releasing every other array (the HierarchyCache
  /// restore path — unlike compress_storage this REPLACES whatever format
  /// was active, including an already-released native one, because the
  /// snapshot carries the full stencil).  Schur complements referencing
  /// this operator follow automatically, exactly as for compress_storage.
  void install_half_storage(HalfCoarseLinks stencil,
                            std::vector<Complex<float>> diag_inv) {
    stencil_.install_half(std::move(stencil), std::move(diag_inv));
  }

  /// Short (accumulation, storage) tag for tune-cache keys and bench
  /// labels: "d"/"f" for native double/float, plus "f"/"h" for compressed
  /// storage — e.g. "df" = double accumulation over float links.  A float
  /// kernel must never replay a config tuned for double (different
  /// bytes/flops balance), so this feeds coarse_tune_key/mrhs_tune_key.
  std::string precision_tag() const { return stencil_.precision_tag(); }

  /// Precompute per-site X^{-1} (needed by Schur preconditioning and by the
  /// coarsest-level diagonal smoothing).  The LU factorization always runs
  /// in T regardless of the storage format (the inverse is
  /// conditioning-sensitive); the result is stored in the active format's
  /// precision (T for Native, float otherwise).  Prefer computing it BEFORE
  /// compress_storage (what Multigrid and build_coarse_operator do): on a
  /// compressed operator the LU can only see the truncated (for Half16,
  /// quantized) blocks, and the inverse amplifies that error by the
  /// block's condition number.
  void compute_diag_inverse() { stencil_.compute_diag_inverse(); }
  bool has_diag_inverse() const { return stencil_.has_diag_inverse(); }

  using BlockField = typename LinearOperator<T>::BlockField;

  /// Stack budget for the per-item gather buffers of the batched kernels;
  /// covers every paper configuration (Nhat_c <= 64).
  static constexpr int kMaxBlockDim = detail::kCoarseMaxBlockDim;

  // LinearOperator interface.
  void apply(Field& out, const Field& in) const override;
  void apply_dagger(Field& out, const Field& in) const override;
  Field create_vector() const override;
  double flops_per_apply() const override;

  /// Batched apply on the 2D (site x rhs) index space: each site's nine
  /// stencil blocks are loaded once per site tile and streamed over the
  /// rhs axis.  Autotuned (kernel decomposition, backend and rhs-blocking
  /// jointly) per (volume, N, nrhs) shape unless a fixed config was set
  /// with set_kernel_config.  Per-rhs bit-identical to apply() at the same
  /// kernel config.  A block of one (nrhs = 1) runs apply() itself on the
  /// block's storage: the single-rhs row body under the single-rhs tune
  /// key, so it replays apply()'s tuned config.
  void apply_block(BlockField& out, const BlockField& in) const override;

  /// Batched apply with explicit kernel config and launch policy (the
  /// policy's rhs_block selects how many rhs one dispatch item covers).
  void apply_block_with_config(BlockField& out, const BlockField& in,
                               const CoarseKernelConfig& config,
                               const LaunchPolicy& policy) const;

  /// Batched apply with a LOW-PRECISION RHS PAYLOAD: the rhs block is
  /// staged into float storage once per apply and the kernel reads float
  /// vectors (TX = float) while still accumulating in T — on top of the
  /// compressed stencil this also halves the 10*N*nrhs vector-byte term of
  /// bytes_per_apply for T=double.  Output stays in T.  Implemented in
  /// mg/mrhs.cpp.
  void apply_block_staged(BlockField& out, const BlockField& in,
                          const CoarseKernelConfig& config,
                          const LaunchPolicy& policy = default_policy()) const;

  /// Batched parity hopping / diagonal kernels (feed the batched Schur
  /// complement on every level).
  void apply_hopping_parity_block(BlockField& out, const BlockField& in,
                                  int out_parity) const;
  void apply_diag_block(BlockField& out, const BlockField& in,
                        int parity = -1) const;
  void apply_diag_inverse_block(BlockField& out, const BlockField& in,
                                int parity = -1) const;

  /// Apply with an explicit kernel configuration and execution backend
  /// (bypasses the autotuner); used by the strategy-equivalence tests and
  /// the Fig. 2 bench.  The strategy selects the dispatch index space:
  /// GridOnly launches one item per site, ColorSpin and finer launch one
  /// item per (site, output row); the dir/dot splits shape the per-row
  /// partial sums (mg/coarse_row.h).  Throws std::invalid_argument unless
  /// both fields are full-subset fields of this operator's shape.
  void apply_with_config(Field& out, const Field& in,
                         const CoarseKernelConfig& config,
                         const LaunchPolicy& policy = default_policy()) const;

  /// Hopping term restricted to parities: out (on out_parity sites, cb
  /// indexed) = sum of link matrices times in (opposite parity).
  void apply_hopping_parity(Field& out, const Field& in,
                            int out_parity) const;

  /// Diagonal / inverse-diagonal on a parity field (cb indexed) or full.
  void apply_diag(Field& out, const Field& in, int parity = -1) const;
  void apply_diag_inverse(Field& out, const Field& in, int parity = -1) const;

  /// Kernel policy: fixed config, or autotuned when enabled (default).
  void set_kernel_config(const CoarseKernelConfig& config) {
    config_ = config;
    autotune_ = false;
  }
  void enable_autotune() { autotune_ = true; }
  const CoarseKernelConfig& kernel_config() const { return config_; }

  /// Stencil (links + diagonal) bytes one apply reads per site in the
  /// ACTIVE storage format — the term the precision truncation shrinks.
  /// For Half16 this matches HalfCoarseLinks::bytes_per_site (audited
  /// against the actual allocation by the precision tests).
  double stencil_bytes_per_site() const {
    return stencil_.stencil_bytes_per_site();
  }

  /// Memory traffic of one apply in bytes (for roofline modeling):
  /// 9 stencil blocks (in storage precision) + 9 input vectors + 1 output
  /// vector (in working precision T) per site.
  double bytes_per_apply() const {
    const double site_bytes =
        stencil_bytes_per_site() + 10.0 * n_ * 2 * sizeof(T);
    return site_bytes * static_cast<double>(geom_->volume());
  }

 private:
  /// apply_with_config / apply bodies over a field or a block of one.
  template <typename F>
  void apply_rows(F& out, const F& in, const CoarseKernelConfig& config,
                  const LaunchPolicy& policy) const;
  template <typename F>
  void apply_tuned(F& out, const F& in) const;

  GeometryPtr geom_;
  int nc_;
  int n_;
  CoarseStencilStorage<T> stencil_;
  CoarseKernelConfig config_;
  bool autotune_ = true;
  mutable std::optional<Field> dagger_tmp_;
};

/// Even-odd Schur complement of a coarse operator:
///   S = X_ee - Y_eo X_oo^{-1} Y_oe,
/// enabling red-black preconditioning "on all levels" (paper section 7.1).
template <typename T>
class SchurCoarseOp : public LinearOperator<T> {
 public:
  using Field = typename LinearOperator<T>::Field;

  using BlockField = typename LinearOperator<T>::BlockField;

  explicit SchurCoarseOp(const CoarseDirac<T>& op);

  void apply(Field& out, const Field& in) const override;
  void apply_dagger(Field& out, const Field& in) const override;
  Field create_vector() const override;
  double flops_per_apply() const override;

  void prepare(Field& b_hat, const Field& b) const;
  void reconstruct(Field& x_full, const Field& x_even, const Field& b) const;

  /// Batched Schur apply / prepare / reconstruct (per-rhs bit-identical to
  /// the single-rhs versions; all stages run on the 2D index space).
  void apply_block(BlockField& out, const BlockField& in) const override;
  void prepare_block(BlockField& b_hat, const BlockField& b) const;
  void reconstruct_block(BlockField& x_full, const BlockField& x_even,
                         const BlockField& b) const;

  const CoarseDirac<T>& coarse_op() const { return op_; }

 private:
  const CoarseDirac<T>& op_;
  mutable Field tmp_odd_, tmp_odd2_, tmp_even_;
  mutable std::optional<Field> dagger_tmp_;
};

/// Precision conversion of the whole operator (for mixed-precision cycles).
template <typename To, typename From>
CoarseDirac<To> convert_coarse(const CoarseDirac<From>& in);

}  // namespace qmg
