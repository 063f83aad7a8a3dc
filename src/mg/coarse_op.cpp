#include "mg/coarse_op.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "dirac/gamma.h"
#include "fields/blas.h"
#include "gpusim/kernels.h"
#include "mg/coarse_row.h"
#include "mg/coarse_stencil.h"
#include "parallel/autotune.h"
#include "util/timer.h"

namespace qmg {

template <typename T>
CoarseDirac<T>::CoarseDirac(GeometryPtr geom, int ncolor)
    : geom_(std::move(geom)),
      nc_(ncolor),
      n_(2 * ncolor),
      stencil_(geom_->volume(), n_) {}

template <typename T>
typename CoarseDirac<T>::Field CoarseDirac<T>::create_vector() const {
  return Field(geom_, kNSpin, nc_);
}

template <typename T>
double CoarseDirac<T>::flops_per_apply() const {
  // 9 dense NxN complex mat-vecs per site: 8 flops per cmul-add.
  return 9.0 * 8.0 * n_ * n_ * static_cast<double>(geom_->volume());
}

template <typename T>
template <typename F>
void CoarseDirac<T>::apply_rows(F& out, const F& in,
                                const CoarseKernelConfig& config,
                                const LaunchPolicy& policy) const {
  const long v = geom_->volume();
  auto fits = [&](const F& f) {
    return f.subset() == Subset::Full && f.site_dof() == n_ &&
           f.nsites() == v;
  };
  if (!fits(out) || !fits(in))
    throw std::invalid_argument(
        "coarse apply: fields must be full-subset with N = " +
        std::to_string(n_) + " per site over " + std::to_string(v) +
        " sites");
  const auto nbrs = detail::stencil_neighbors(
      *geom_, [&](long s) { return in.site_data(s); });
  stencil_.visit([&](const auto& st) {
    if (config.strategy >= Strategy::ColorSpin) {
      // One dispatch item per (site, output row): the y thread dimension of
      // Listing 3.  Each item redoes the site indexing, exactly like the
      // fine-grained GPU threads (the Amdahl overhead of section 6.5).
      parallel_for(v * n_, policy, [&](long idx) {
        const long site = idx / n_;
        const int r = static_cast<int>(idx % n_);
        detail::coarse_apply_rows(st, nbrs, site, r, r + 1,
                                  out.site_data(site), config);
      });
    } else {
      // Baseline: one dispatch item per site, rows serial within the item.
      parallel_for(v, policy, [&](long site) {
        detail::coarse_apply_rows(st, nbrs, site, 0, n_, out.site_data(site),
                                  config);
      });
    }
  });
  if (policy.backend == Backend::SimtModel)
    SimtStats::instance().record_work(
        coarse_op_work(v, n_, config, stencil_.sim_precision()));
}

template <typename T>
void CoarseDirac<T>::apply_with_config(Field& out, const Field& in,
                                       const CoarseKernelConfig& config,
                                       const LaunchPolicy& policy) const {
  apply_rows(out, in, config, policy);
}

template <typename T>
template <typename F>
void CoarseDirac<T>::apply_tuned(F& out, const F& in) const {
  if (!autotune_) {
    apply_rows(out, in, config_, default_policy());
    return;
  }
  // Autotune on first use for this (volume, N, precision) shape (section
  // 6.5): a joint sweep over kernel decompositions AND execution backends,
  // cached together under the shape key.  The precision tag keeps a float-
  // or compressed-storage kernel from replaying a config tuned for double
  // (their bytes/flop balance differs).
  auto& cache = TuneCache::instance();
  const std::string key =
      coarse_tune_key(geom_->volume(), n_, precision_tag());
  const auto [best, policy] = cache.tune_joint(
      key, n_, [&](const CoarseKernelConfig& cand, const LaunchPolicy& lp) {
        Timer timer;
        apply_rows(out, in, cand, lp);
        return timer.seconds();
      });
  apply_rows(out, in, best, policy);
}

template <typename T>
void CoarseDirac<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  apply_tuned(out, in);
}

template <typename T>
void CoarseDirac<T>::apply_block(BlockField& out, const BlockField& in) const {
  for (int k = 0; k < in.nrhs(); ++k) this->count_apply();
  if (in.nrhs() == 1 && out.nrhs() == 1) {
    apply_tuned(out, in);
    return;
  }
  if (!autotune_) {
    apply_block_with_config(out, in, config_, default_policy());
    return;
  }
  // Joint autotune over kernel decomposition x (backend, grain, rhs_block)
  // for this (volume, N, nrhs, precision) shape — the rhs-blocking is a
  // first-class tuning dimension of the batched kernel, and the precision
  // tag keeps compressed-storage kernels from replaying configs tuned for
  // a different bytes/flop balance.
  auto& cache = TuneCache::instance();
  const std::string key =
      mrhs_tune_key(geom_->volume(), n_, in.nrhs(), precision_tag());
  const auto [best, policy] = cache.tune_joint_2d(
      key, n_, in.nrhs(),
      [&](const CoarseKernelConfig& cand, const LaunchPolicy& lp) {
        Timer timer;
        apply_block_with_config(out, in, cand, lp);
        return timer.seconds();
      });
  apply_block_with_config(out, in, best, policy);
}

template <typename T>
void CoarseDirac<T>::apply_dagger(Field& out, const Field& in) const {
  // Coarse gamma5-Hermiticity: Mhat^dag = Gamma5 Mhat Gamma5 with
  // Gamma5 = diag(+1_{Nc}, -1_{Nc}) in coarse spin (inherited from the
  // chirality-preserving aggregation).
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

// The parity-hopping and diagonal stages launch one item per site (single
// rhs) or per (site, rhs) (blocks) over checkerboard indices and run the
// shared bodies of mg/coarse_stencil.h.  Known trade-off: under Half16 the
// batched forms dequantize each stencil row once per rhs rather than once
// per site tile (the main batched apply does amortize it); batched-Schur-
// heavy configurations that care should use Single storage.

namespace {

/// Hop-stage resolver: neighbours of a full-lattice site, read from a
/// parity field (single rhs or block) at their checkerboard index.
template <typename F>
auto parity_neighbors(const LatticeGeometry& geom, const F& in) {
  return detail::stencil_neighbors(geom, [g = &geom, f = &in](long s) {
    return f->site_data(g->cb_index(s));
  });
}

template <typename T, typename St>
void diag_kernel(const St& st, ColorSpinorField<T>& out,
                 const ColorSpinorField<T>& in, int parity,
                 const LatticeGeometry& geom) {
  parallel_for(in.nsites(), [&](long i) {
    const long site = parity >= 0 ? geom.full_index(parity, i) : i;
    detail::coarse_diag_rows(st, site, in.site_data(i), 0, 1,
                             out.site_data(i));
  });
}

template <typename T, typename St>
void block_diag_kernel(const St& st, BlockSpinor<T>& out,
                       const BlockSpinor<T>& in, int parity,
                       const LatticeGeometry& geom) {
  const long nrhs = in.nrhs();
  parallel_for_2d(in.nsites(), nrhs, default_policy(), [&](long i, long k) {
    const long site = parity >= 0 ? geom.full_index(parity, i) : i;
    detail::coarse_diag_rows(st, site, in.site_data(i), k, nrhs,
                             out.site_data(i));
  });
}

/// The hop stage reads `in` at checkerboard indices of the opposite parity
/// and writes `out` on `out_parity`: both must be parity fields of the
/// operator's lattice with N values per site.
template <typename F>
void check_hop_fields(const F& out, const F& in, int out_parity, int n,
                      long half_volume) {
  const Subset out_sub = out_parity ? Subset::Odd : Subset::Even;
  const Subset in_sub = out_parity ? Subset::Even : Subset::Odd;
  if (out.subset() != out_sub || in.subset() != in_sub ||
      out.site_dof() != n || in.site_dof() != n ||
      out.nsites() != half_volume || in.nsites() != half_volume)
    throw std::invalid_argument(
        "coarse apply_hopping_parity: needs opposite-parity fields of the "
        "operator's lattice with N values per site");
}

template <typename T>
void check_diag_block(const BlockSpinor<T>& out, const BlockSpinor<T>& in,
                      int n) {
  if (out.nrhs() != in.nrhs() || n > CoarseDirac<T>::kMaxBlockDim)
    throw std::invalid_argument("coarse diag block kernel: bad shape");
}

}  // namespace

template <typename T>
void CoarseDirac<T>::apply_hopping_parity(Field& out, const Field& in,
                                          int out_parity) const {
  check_hop_fields(out, in, out_parity, n_, geom_->half_volume());
  const auto nbrs = parity_neighbors(*geom_, in);
  stencil_.visit([&](const auto& st) {
    parallel_for(geom_->half_volume(), [&](long cb) {
      detail::coarse_hop_rows(st, nbrs, geom_->full_index(out_parity, cb), 0,
                              1, out.site_data(cb));
    });
  });
}

template <typename T>
void CoarseDirac<T>::apply_hopping_parity_block(BlockField& out,
                                                const BlockField& in,
                                                int out_parity) const {
  check_hop_fields(out, in, out_parity, n_, geom_->half_volume());
  if (out.nrhs() != in.nrhs())
    throw std::invalid_argument("hopping_parity_block: rhs count mismatch");
  if (n_ > kMaxBlockDim)
    throw std::invalid_argument("coarse block kernel: N exceeds buffer cap");
  const long nrhs = in.nrhs();
  const auto nbrs = parity_neighbors(*geom_, in);
  stencil_.visit([&](const auto& st) {
    parallel_for_2d(geom_->half_volume(), nrhs, default_policy(),
                    [&](long cb, long k) {
      detail::coarse_hop_rows(st, nbrs, geom_->full_index(out_parity, cb), k,
                              nrhs, out.site_data(cb));
    });
  });
}

template <typename T>
void CoarseDirac<T>::apply_diag(Field& out, const Field& in,
                                int parity) const {
  stencil_.visit(
      [&](const auto& st) { diag_kernel(st, out, in, parity, *geom_); });
}

template <typename T>
void CoarseDirac<T>::apply_diag_inverse(Field& out, const Field& in,
                                        int parity) const {
  stencil_.visit_inverse(
      [&](const auto& st) { diag_kernel(st, out, in, parity, *geom_); });
}

template <typename T>
void CoarseDirac<T>::apply_diag_block(BlockField& out, const BlockField& in,
                                      int parity) const {
  check_diag_block(out, in, n_);
  stencil_.visit(
      [&](const auto& st) { block_diag_kernel(st, out, in, parity, *geom_); });
}

template <typename T>
void CoarseDirac<T>::apply_diag_inverse_block(BlockField& out,
                                              const BlockField& in,
                                              int parity) const {
  check_diag_block(out, in, n_);
  stencil_.visit_inverse(
      [&](const auto& st) { block_diag_kernel(st, out, in, parity, *geom_); });
}

// --- SchurCoarseOp ----------------------------------------------------------

template <typename T>
SchurCoarseOp<T>::SchurCoarseOp(const CoarseDirac<T>& op)
    : op_(op),
      tmp_odd_(op.geometry(), CoarseDirac<T>::kNSpin, op.ncolor(),
               Subset::Odd),
      tmp_odd2_(op.geometry(), CoarseDirac<T>::kNSpin, op.ncolor(),
                Subset::Odd),
      tmp_even_(op.geometry(), CoarseDirac<T>::kNSpin, op.ncolor(),
                Subset::Even) {
  assert(op.has_diag_inverse());
}

template <typename T>
typename SchurCoarseOp<T>::Field SchurCoarseOp<T>::create_vector() const {
  return Field(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(),
               Subset::Even);
}

template <typename T>
double SchurCoarseOp<T>::flops_per_apply() const {
  return op_.flops_per_apply();
}

template <typename T>
void SchurCoarseOp<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  op_.count_apply();  // one Schur apply costs one coarse-operator apply
  // S = X_ee + Y_eo X_oo^{-1} Y_oe sign convention: Mhat = X + Y_hop, so
  // S in = X_ee in - Y_eo X_oo^{-1} Y_oe in ... with Mhat = X + H the Schur
  // complement is X_ee - H_eo X_oo^{-1} H_oe.
  op_.apply_hopping_parity(tmp_odd_, in, /*out_parity=*/1);
  op_.apply_diag_inverse(tmp_odd2_, tmp_odd_, /*parity=*/1);
  op_.apply_hopping_parity(tmp_even_, tmp_odd2_, /*out_parity=*/0);
  op_.apply_diag(out, in, /*parity=*/0);
  for (long k = 0; k < out.size(); ++k) out.data()[k] -= tmp_even_.data()[k];
}

template <typename T>
void SchurCoarseOp<T>::apply_block(BlockField& out, const BlockField& in) const {
  const int nrhs = in.nrhs();
  for (int k = 0; k < nrhs; ++k) {
    this->count_apply();
    op_.count_apply();
  }
  BlockField odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                 Subset::Odd);
  BlockField odd2(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                  Subset::Odd);
  BlockField even(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                  Subset::Even);
  op_.apply_hopping_parity_block(odd, in, /*out_parity=*/1);
  op_.apply_diag_inverse_block(odd2, odd, /*parity=*/1);
  op_.apply_hopping_parity_block(even, odd2, /*out_parity=*/0);
  op_.apply_diag_block(out, in, /*parity=*/0);
  // out -= even through the parallel block BLAS: adding -1 * x is exactly
  // subtracting x in IEEE arithmetic, so the bits match the scalar loop.
  blas::block_axpy(std::vector<T>(nrhs, T(-1)), even, out);
}

template <typename T>
void SchurCoarseOp<T>::prepare_block(BlockField& b_hat,
                                     const BlockField& b) const {
  const int nrhs = b.nrhs();
  BlockField b_odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                   Subset::Odd);
  extract_parity_block(b_odd, b, 1);
  BlockField odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                 Subset::Odd);
  BlockField even(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                  Subset::Even);
  op_.apply_diag_inverse_block(odd, b_odd, /*parity=*/1);
  op_.apply_hopping_parity_block(even, odd, /*out_parity=*/0);
  extract_parity_block(b_hat, b, 0);
  blas::block_axpy(std::vector<T>(nrhs, T(-1)), even, b_hat);
}

template <typename T>
void SchurCoarseOp<T>::reconstruct_block(BlockField& x_full,
                                         const BlockField& x_even,
                                         const BlockField& b) const {
  const int nrhs = b.nrhs();
  // x_o = X_oo^{-1} (b_o - H_oe x_e).
  BlockField odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                 Subset::Odd);
  op_.apply_hopping_parity_block(odd, x_even, /*out_parity=*/1);
  BlockField b_odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                   Subset::Odd);
  extract_parity_block(b_odd, b, 1);
  blas::block_axpy(std::vector<T>(nrhs, T(-1)), odd, b_odd);
  BlockField odd2(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(), nrhs,
                  Subset::Odd);
  op_.apply_diag_inverse_block(odd2, b_odd, /*parity=*/1);
  insert_parity_block(x_full, x_even, 0);
  insert_parity_block(x_full, odd2, 1);
}

template <typename T>
void SchurCoarseOp<T>::apply_dagger(Field& out, const Field& in) const {
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

template <typename T>
void SchurCoarseOp<T>::prepare(Field& b_hat, const Field& b) const {
  assert(b.subset() == Subset::Full);
  Field b_odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(),
              Subset::Odd);
  extract_parity(b_odd, b, 1);
  op_.apply_diag_inverse(tmp_odd_, b_odd, /*parity=*/1);
  op_.apply_hopping_parity(tmp_even_, tmp_odd_, /*out_parity=*/0);
  extract_parity(b_hat, b, 0);
  // Mhat x = X x + H x = b  =>  Schur rhs: b_e - H_eo X_oo^{-1} b_o.
  for (long k = 0; k < b_hat.size(); ++k)
    b_hat.data()[k] -= tmp_even_.data()[k];
}

template <typename T>
void SchurCoarseOp<T>::reconstruct(Field& x_full, const Field& x_even,
                                   const Field& b) const {
  assert(b.subset() == Subset::Full && x_full.subset() == Subset::Full);
  // x_o = X_oo^{-1} (b_o - H_oe x_e).
  op_.apply_hopping_parity(tmp_odd_, x_even, /*out_parity=*/1);
  Field b_odd(op_.geometry(), CoarseDirac<T>::kNSpin, op_.ncolor(),
              Subset::Odd);
  extract_parity(b_odd, b, 1);
  for (long k = 0; k < b_odd.size(); ++k)
    b_odd.data()[k] -= tmp_odd_.data()[k];
  op_.apply_diag_inverse(tmp_odd2_, b_odd, /*parity=*/1);
  insert_parity(x_full, x_even, 0);
  insert_parity(x_full, tmp_odd2_, 1);
}

// --- conversion -------------------------------------------------------------

template <typename To, typename From>
CoarseDirac<To> convert_coarse(const CoarseDirac<From>& in) {
  if (!in.has_native_storage())
    throw std::logic_error(
        "convert_coarse: source operator's native storage was released "
        "(compress_storage); convert before compressing");
  CoarseDirac<To> out(in.geometry(), in.ncolor());
  const int n = in.block_dim();
  const long v = in.geometry()->volume();
  for (long site = 0; site < v; ++site) {
    for (int link = 0; link < CoarseDirac<From>::kNLinks; ++link) {
      const Complex<From>* src = in.link_data(site, link);
      Complex<To>* dst = out.link_data(site, link);
      for (int k = 0; k < n * n; ++k)
        dst[k] = Complex<To>(static_cast<To>(src[k].re),
                             static_cast<To>(src[k].im));
    }
    const Complex<From>* src = in.diag_data(site);
    Complex<To>* dst = out.diag_data(site);
    for (int k = 0; k < n * n; ++k)
      dst[k] = Complex<To>(static_cast<To>(src[k].re),
                           static_cast<To>(src[k].im));
  }
  if (in.has_diag_inverse()) out.compute_diag_inverse();
  return out;
}

template class CoarseDirac<double>;
template class CoarseDirac<float>;
template class SchurCoarseOp<double>;
template class SchurCoarseOp<float>;
template CoarseDirac<float> convert_coarse<float, double>(
    const CoarseDirac<double>&);
template CoarseDirac<double> convert_coarse<double, float>(
    const CoarseDirac<float>&);

}  // namespace qmg
