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

using detail::DenseStencil;
using detail::HalfStencil;
using detail::sim_precision;

template <typename T>
CoarseDirac<T>::CoarseDirac(GeometryPtr geom, int ncolor)
    : geom_(std::move(geom)), nc_(ncolor), n_(2 * ncolor) {
  const size_t per_site = static_cast<size_t>(n_) * n_;
  links_.assign(static_cast<size_t>(geom_->volume()) * kNLinks * per_site,
                Complex<T>{});
  diag_.assign(static_cast<size_t>(geom_->volume()) * per_site, Complex<T>{});
}

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
void CoarseDirac<T>::compress_storage(CoarseStorage storage) {
  if (storage == storage_) return;
  if (storage == CoarseStorage::Native)
    throw std::invalid_argument(
        "compress_storage: native storage cannot be restored once released");
  if (!has_native_storage())
    throw std::logic_error(
        "compress_storage: native storage already released");
  if (storage == CoarseStorage::Single && sizeof(T) == sizeof(float))
    return;  // a float operator's native storage already IS single
  if (storage == CoarseStorage::Half16 && n_ > kMaxBlockDim)
    throw std::invalid_argument(
        "compress_storage: Half16 dequantizes rows into kMaxBlockDim "
        "scratch; N exceeds it");
  const long v = geom_->volume();
  if (storage == CoarseStorage::Single) {
    links_lo_.resize(links_.size());
    for (size_t k = 0; k < links_.size(); ++k)
      links_lo_[k] = Complex<float>(links_[k]);
    diag_lo_.resize(diag_.size());
    for (size_t k = 0; k < diag_.size(); ++k)
      diag_lo_[k] = Complex<float>(diag_[k]);
  } else {
    half_ = HalfCoarseLinks(v, n_);
    for (long site = 0; site < v; ++site) {
      for (int l = 0; l < kNLinks; ++l)
        half_.store_block(site, l, link_data(site, l));
      half_.store_block(site, HalfCoarseLinks::kDiagBlock, diag_data(site));
    }
  }
  if (!diag_inv_.empty()) {
    diag_inv_lo_.resize(diag_inv_.size());
    for (size_t k = 0; k < diag_inv_.size(); ++k)
      diag_inv_lo_[k] = Complex<float>(diag_inv_[k]);
    diag_inv_.clear();
    diag_inv_.shrink_to_fit();
  }
  links_.clear();
  links_.shrink_to_fit();
  diag_.clear();
  diag_.shrink_to_fit();
  storage_ = storage;
}

template <typename T>
HalfCoarseLinks CoarseDirac<T>::snapshot_half_links() const {
  if (storage_ == CoarseStorage::Half16) return half_;
  const long v = geom_->volume();
  HalfCoarseLinks out(v, n_);
  for (long site = 0; site < v; ++site) {
    if (storage_ == CoarseStorage::Native) {
      for (int l = 0; l < kNLinks; ++l)
        out.store_block(site, l, link_data(site, l));
      out.store_block(site, HalfCoarseLinks::kDiagBlock, diag_data(site));
    } else {
      for (int l = 0; l < kNLinks; ++l)
        out.store_block(site, l, link_lo_data(site, l));
      out.store_block(site, HalfCoarseLinks::kDiagBlock, diag_lo_data(site));
    }
  }
  return out;
}

template <typename T>
std::vector<Complex<float>> CoarseDirac<T>::snapshot_diag_inverse() const {
  if (!has_diag_inverse())
    throw std::logic_error(
        "CoarseDirac::snapshot_diag_inverse: compute_diag_inverse() was "
        "never called on this operator");
  if (!diag_inv_lo_.empty()) return diag_inv_lo_;
  std::vector<Complex<float>> out(diag_inv_.size());
  for (size_t k = 0; k < diag_inv_.size(); ++k)
    out[k] = Complex<float>(diag_inv_[k]);
  return out;
}

template <typename T>
void CoarseDirac<T>::install_half_storage(HalfCoarseLinks stencil,
                                          std::vector<Complex<float>> diag_inv) {
  if (stencil.nsites() != geom_->volume() || stencil.block_dim() != n_)
    throw std::invalid_argument(
        "CoarseDirac::install_half_storage: stencil shape mismatch (got " +
        std::to_string(stencil.nsites()) + " sites x N=" +
        std::to_string(stencil.block_dim()) + ", operator has " +
        std::to_string(geom_->volume()) + " x N=" + std::to_string(n_) + ")");
  const size_t want =
      static_cast<size_t>(geom_->volume()) * static_cast<size_t>(n_) * n_;
  if (diag_inv.size() != want)
    throw std::invalid_argument(
        "CoarseDirac::install_half_storage: diag-inverse size mismatch "
        "(got " + std::to_string(diag_inv.size()) + ", want " +
        std::to_string(want) + ")");
  if (n_ > kMaxBlockDim)
    throw std::invalid_argument(
        "CoarseDirac::install_half_storage: Half16 dequantizes rows into "
        "kMaxBlockDim scratch; N exceeds it");
  half_ = std::move(stencil);
  diag_inv_lo_ = std::move(diag_inv);
  links_.clear();
  links_.shrink_to_fit();
  diag_.clear();
  diag_.shrink_to_fit();
  diag_inv_.clear();
  diag_inv_.shrink_to_fit();
  links_lo_.clear();
  links_lo_.shrink_to_fit();
  diag_lo_.clear();
  diag_lo_.shrink_to_fit();
  storage_ = CoarseStorage::Half16;
}

template <typename T>
template <typename Stencil>
void CoarseDirac<T>::apply_with_config_st(Field& out, const Field& in,
                                          const CoarseKernelConfig& config,
                                          const LaunchPolicy& policy,
                                          const Stencil& st) const {
  assert(in.subset() == Subset::Full);
  using TM = typename Stencil::value_type;
  const long v = geom_->volume();
  const int n = n_;
  // Per-item input-site pointers (Listing 2's indexing arithmetic).
  auto site_xin = [&](long site, const Complex<T>** xin) {
    xin[0] = in.site_data(site);
    for (int mu = 0; mu < kNDim; ++mu) {
      xin[1 + 2 * mu] = in.site_data(geom_->neighbor_fwd(site, mu));
      xin[2 + 2 * mu] = in.site_data(geom_->neighbor_bwd(site, mu));
    }
  };
  auto row_value = [&](long site, int r, const Complex<T>* const xin[9],
                       Complex<TM>* scratch) {
    const Complex<TM>* rows[9];
    for (int m = 0; m < 9; ++m)
      rows[m] =
          st.stencil_row(site, m, r, scratch + m * Stencil::kScratchRow);
    return coarse_row_span<T, TM, T>(rows, xin, n, config);
  };
  if (config.strategy >= Strategy::ColorSpin) {
    // One dispatch item per (site, output row): the y thread dimension of
    // Listing 3.  Each item redoes the site indexing, exactly like the
    // fine-grained GPU threads (the Amdahl overhead of section 6.5).
    parallel_for(v * n, policy, [&](long idx) {
      const long site = idx / n;
      const int r = static_cast<int>(idx % n);
      const Complex<T>* xin[9];
      site_xin(site, xin);
      Complex<TM> scratch[9 * Stencil::kScratchRow];
      out.site_data(site)[r] = row_value(site, r, xin, scratch);
    });
  } else {
    // Baseline: one dispatch item per site, rows serial within the item.
    parallel_for(v, policy, [&](long site) {
      const Complex<T>* xin[9];
      site_xin(site, xin);
      Complex<T>* dst = out.site_data(site);
      Complex<TM> scratch[9 * Stencil::kScratchRow];
      for (int r = 0; r < n; ++r) dst[r] = row_value(site, r, xin, scratch);
    });
  }
  if (policy.backend == Backend::SimtModel)
    SimtStats::instance().record_work(
        coarse_op_work(v, n_, config, sim_precision<T>(storage_)));
}

template <typename T>
void CoarseDirac<T>::apply_with_config(
    Field& out, const Field& in, const CoarseKernelConfig& config,
    const LaunchPolicy& policy) const {
  switch (storage_) {
    case CoarseStorage::Single:
      apply_with_config_st(
          out, in, config, policy,
          DenseStencil<float>{links_lo_.data(), diag_lo_.data(), n_});
      break;
    case CoarseStorage::Half16:
      apply_with_config_st(out, in, config, policy, HalfStencil{&half_, n_});
      break;
    default:
      apply_with_config_st(out, in, config, policy,
                           DenseStencil<T>{links_.data(), diag_.data(), n_});
  }
}

template <typename T>
void CoarseDirac<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  if (!autotune_) {
    apply_with_config(out, in, config_);
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
        apply_with_config(out, in, cand, lp);
        return timer.seconds();
      });
  apply_with_config(out, in, best, policy);
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

// Known trade-off: the batched hopping/diag kernels dispatch one item per
// (site, rhs) — matching the native-storage suite's bit-identity contract —
// so under Half16 each stencil row is dequantized once per rhs rather than
// once per site tile (the main batched apply, apply_block_with_config_st,
// does amortize it).  Batched-Schur-heavy configurations that care should
// use Single storage; Half16's payoff is the full coarse apply.
template <typename T>
template <typename Stencil>
void CoarseDirac<T>::apply_hopping_parity_block_st(BlockField& out,
                                                   const BlockField& in,
                                                   int out_parity,
                                                   const Stencil& st) const {
  using TM = typename Stencil::value_type;
  const long hv = geom_->half_volume();
  const int n = n_;
  parallel_for_2d(hv, in.nrhs(), default_policy(), [&](long cb, long kk) {
    const int k = static_cast<int>(kk);
    const long site = geom_->full_index(out_parity, cb);
    long nbr_cb[8];
    Complex<T> xbuf[8 * kMaxBlockDim];
    for (int mu = 0; mu < kNDim; ++mu) {
      nbr_cb[2 * mu] = geom_->cb_index(geom_->neighbor_fwd(site, mu));
      in.gather_site_rhs(nbr_cb[2 * mu], k, xbuf + (2 * mu) * n);
      nbr_cb[2 * mu + 1] = geom_->cb_index(geom_->neighbor_bwd(site, mu));
      in.gather_site_rhs(nbr_cb[2 * mu + 1], k, xbuf + (2 * mu + 1) * n);
    }
    Complex<T> dst[kMaxBlockDim];
    Complex<TM> scratch[Stencil::kScratchRow];
    for (int r = 0; r < n; ++r) {
      Complex<T> acc{};
      for (int m = 0; m < 8; ++m) {
        const Complex<TM>* row = st.link_row(site, m, r, scratch);
        const Complex<T>* x = xbuf + m * n;
        for (int c = 0; c < n; ++c) acc += Complex<T>(row[c]) * x[c];
      }
      dst[r] = acc;
    }
    out.scatter_site_rhs(cb, k, dst);
  });
}

template <typename T>
void CoarseDirac<T>::apply_hopping_parity_block(BlockField& out,
                                                const BlockField& in,
                                                int out_parity) const {
  if (out.nrhs() != in.nrhs())
    throw std::invalid_argument("hopping_parity_block: rhs count mismatch");
  if (n_ > kMaxBlockDim)
    throw std::invalid_argument("coarse block kernel: N exceeds buffer cap");
  switch (storage_) {
    case CoarseStorage::Single:
      apply_hopping_parity_block_st(
          out, in, out_parity,
          DenseStencil<float>{links_lo_.data(), diag_lo_.data(), n_});
      break;
    case CoarseStorage::Half16:
      apply_hopping_parity_block_st(out, in, out_parity,
                                    HalfStencil{&half_, n_});
      break;
    default:
      apply_hopping_parity_block_st(
          out, in, out_parity,
          DenseStencil<T>{links_.data(), diag_.data(), n_});
  }
}

namespace {

/// Shared batched dense diagonal kernel: out = D in per (site, rhs), with
/// row r of D(site) supplied by `row_of(site, r, scratch)` (diagonal or
/// inverse-diagonal rows in any storage format); accumulation in T.
template <typename T, typename TM, typename RowOf>
void block_diag_kernel(BlockSpinor<T>& out, const BlockSpinor<T>& in, int n,
                       int parity, const LatticeGeometry& geom,
                       RowOf&& row_of) {
  parallel_for_2d(in.nsites(), in.nrhs(), default_policy(),
                  [&](long i, long kk) {
    const int k = static_cast<int>(kk);
    const long site = parity >= 0 ? geom.full_index(parity, i) : i;
    Complex<T> src[CoarseDirac<T>::kMaxBlockDim];
    Complex<T> dst[CoarseDirac<T>::kMaxBlockDim];
    Complex<TM> scratch[CoarseDirac<T>::kMaxBlockDim];
    in.gather_site_rhs(i, k, src);
    for (int r = 0; r < n; ++r) {
      Complex<T> acc{};
      const Complex<TM>* row = row_of(site, r, scratch);
      for (int c = 0; c < n; ++c) acc += Complex<T>(row[c]) * src[c];
      dst[r] = acc;
    }
    out.scatter_site_rhs(i, k, dst);
  });
}

/// Single-rhs analog of block_diag_kernel.
template <typename T, typename TM, typename RowOf>
void diag_kernel(ColorSpinorField<T>& out, const ColorSpinorField<T>& in,
                 int n, int parity, const LatticeGeometry& geom,
                 RowOf&& row_of) {
  parallel_for(in.nsites(), [&](long i) {
    const long site = parity >= 0 ? geom.full_index(parity, i) : i;
    const Complex<T>* src = in.site_data(i);
    Complex<T>* dst = out.site_data(i);
    Complex<TM> scratch[CoarseDirac<T>::kMaxBlockDim];
    for (int r = 0; r < n; ++r) {
      Complex<T> acc{};
      const Complex<TM>* row = row_of(site, r, scratch);
      for (int c = 0; c < n; ++c) acc += Complex<T>(row[c]) * src[c];
      dst[r] = acc;
    }
  });
}

}  // namespace

template <typename T>
void CoarseDirac<T>::apply_diag_block(BlockField& out, const BlockField& in,
                                      int parity) const {
  if (out.nrhs() != in.nrhs() || n_ > kMaxBlockDim)
    throw std::invalid_argument("coarse apply_diag_block: bad shape");
  const int n = n_;
  switch (storage_) {
    case CoarseStorage::Single:
      block_diag_kernel<T, float>(
          out, in, n, parity, *geom_,
          [this](long site, int r, Complex<float>*) {
            return diag_lo_data(site) + static_cast<size_t>(r) * n_;
          });
      break;
    case CoarseStorage::Half16:
      block_diag_kernel<T, float>(
          out, in, n, parity, *geom_,
          [this](long site, int r, Complex<float>* scratch) {
            half_.load_row(site, HalfCoarseLinks::kDiagBlock, r, scratch);
            return static_cast<const Complex<float>*>(scratch);
          });
      break;
    default:
      block_diag_kernel<T, T>(out, in, n, parity, *geom_,
                              [this](long site, int r, Complex<T>*) {
                                return diag_data(site) +
                                       static_cast<size_t>(r) * n_;
                              });
  }
}

template <typename T>
void CoarseDirac<T>::apply_diag_inverse_block(BlockField& out,
                                              const BlockField& in,
                                              int parity) const {
  assert(has_diag_inverse());
  if (out.nrhs() != in.nrhs() || n_ > kMaxBlockDim)
    throw std::invalid_argument("coarse apply_diag_inverse_block: bad shape");
  if (storage_ == CoarseStorage::Native) {
    block_diag_kernel<T, T>(out, in, n_, parity, *geom_,
                            [this](long site, int r, Complex<T>*) {
                              return diag_inv_data(site) +
                                     static_cast<size_t>(r) * n_;
                            });
  } else {
    block_diag_kernel<T, float>(
        out, in, n_, parity, *geom_,
        [this](long site, int r, Complex<float>*) {
          return diag_inv_lo_data(site) + static_cast<size_t>(r) * n_;
        });
  }
}

template <typename T>
template <typename Stencil>
void CoarseDirac<T>::apply_hopping_parity_st(Field& out, const Field& in,
                                             int out_parity,
                                             const Stencil& st) const {
  using TM = typename Stencil::value_type;
  const long hv = geom_->half_volume();
  const int n = n_;
  parallel_for(hv, [&](long cb) {
    const long site = geom_->full_index(out_parity, cb);
    const Complex<T>* xin[8];
    for (int mu = 0; mu < kNDim; ++mu) {
      xin[2 * mu] =
          in.site_data(geom_->cb_index(geom_->neighbor_fwd(site, mu)));
      xin[2 * mu + 1] =
          in.site_data(geom_->cb_index(geom_->neighbor_bwd(site, mu)));
    }
    Complex<T>* dst = out.site_data(cb);
    Complex<TM> scratch[Stencil::kScratchRow];
    for (int r = 0; r < n; ++r) {
      Complex<T> acc{};
      for (int m = 0; m < 8; ++m) {
        const Complex<TM>* row = st.link_row(site, m, r, scratch);
        for (int c = 0; c < n; ++c) acc += Complex<T>(row[c]) * xin[m][c];
      }
      dst[r] = acc;
    }
  });
}

template <typename T>
void CoarseDirac<T>::apply_hopping_parity(Field& out, const Field& in,
                                          int out_parity) const {
  assert(out.subset() == (out_parity ? Subset::Odd : Subset::Even));
  switch (storage_) {
    case CoarseStorage::Single:
      apply_hopping_parity_st(
          out, in, out_parity,
          DenseStencil<float>{links_lo_.data(), diag_lo_.data(), n_});
      break;
    case CoarseStorage::Half16:
      apply_hopping_parity_st(out, in, out_parity, HalfStencil{&half_, n_});
      break;
    default:
      apply_hopping_parity_st(
          out, in, out_parity,
          DenseStencil<T>{links_.data(), diag_.data(), n_});
  }
}

template <typename T>
void CoarseDirac<T>::apply_diag(Field& out, const Field& in,
                                int parity) const {
  switch (storage_) {
    case CoarseStorage::Single:
      diag_kernel<T, float>(out, in, n_, parity, *geom_,
                            [this](long site, int r, Complex<float>*) {
                              return diag_lo_data(site) +
                                     static_cast<size_t>(r) * n_;
                            });
      break;
    case CoarseStorage::Half16:
      diag_kernel<T, float>(
          out, in, n_, parity, *geom_,
          [this](long site, int r, Complex<float>* scratch) {
            half_.load_row(site, HalfCoarseLinks::kDiagBlock, r, scratch);
            return static_cast<const Complex<float>*>(scratch);
          });
      break;
    default:
      diag_kernel<T, T>(out, in, n_, parity, *geom_,
                        [this](long site, int r, Complex<T>*) {
                          return diag_data(site) +
                                 static_cast<size_t>(r) * n_;
                        });
  }
}

template <typename T>
void CoarseDirac<T>::compute_diag_inverse() {
  const long v = geom_->volume();
  // The LU runs in T regardless of storage: gather the diagonal block from
  // whatever format is active, invert in working precision, emit into the
  // active format's inverse array (T for Native, float for compressed).
  // Prefer computing the inverse BEFORE compress_storage (what Multigrid
  // and build_coarse_operator do): on an already-compressed operator the
  // native diagonal is gone, so the LU can only see the truncated — for
  // Half16, quantized — blocks, and the inverse amplifies that error by
  // the block's condition number.
  const bool native = storage_ == CoarseStorage::Native;
  if (native)
    diag_inv_.assign(static_cast<size_t>(v) * n_ * n_, Complex<T>{});
  else
    diag_inv_lo_.assign(static_cast<size_t>(v) * n_ * n_, Complex<float>{});
  parallel_for(v, [&](long site) {
    SmallMatrix<T> m(n_, n_);
    if (storage_ == CoarseStorage::Half16) {
      Complex<float> rowbuf[kMaxBlockDim];
      for (int r = 0; r < n_; ++r) {
        half_.load_row(site, HalfCoarseLinks::kDiagBlock, r, rowbuf);
        for (int c = 0; c < n_; ++c) m(r, c) = Complex<T>(rowbuf[c]);
      }
    } else if (storage_ == CoarseStorage::Single) {
      const Complex<float>* d = diag_lo_data(site);
      for (int r = 0; r < n_; ++r)
        for (int c = 0; c < n_; ++c)
          m(r, c) = Complex<T>(d[static_cast<size_t>(r) * n_ + c]);
    } else {
      const Complex<T>* d = diag_data(site);
      for (int r = 0; r < n_; ++r)
        for (int c = 0; c < n_; ++c)
          m(r, c) = d[static_cast<size_t>(r) * n_ + c];
    }
    const LuFactor<T> lu(m);
    const SmallMatrix<T> inv = lu.inverse();
    if (native) {
      Complex<T>* dst = diag_inv_.data() + static_cast<size_t>(site) * n_ * n_;
      for (int r = 0; r < n_; ++r)
        for (int c = 0; c < n_; ++c)
          dst[static_cast<size_t>(r) * n_ + c] = inv(r, c);
    } else {
      Complex<float>* dst =
          diag_inv_lo_.data() + static_cast<size_t>(site) * n_ * n_;
      for (int r = 0; r < n_; ++r)
        for (int c = 0; c < n_; ++c)
          dst[static_cast<size_t>(r) * n_ + c] = Complex<float>(inv(r, c));
    }
  });
}

template <typename T>
void CoarseDirac<T>::apply_diag_inverse(Field& out, const Field& in,
                                        int parity) const {
  assert(has_diag_inverse());
  if (storage_ == CoarseStorage::Native) {
    diag_kernel<T, T>(out, in, n_, parity, *geom_,
                      [this](long site, int r, Complex<T>*) {
                        return diag_inv_data(site) +
                               static_cast<size_t>(r) * n_;
                      });
  } else {
    diag_kernel<T, float>(out, in, n_, parity, *geom_,
                          [this](long site, int r, Complex<float>*) {
                            return diag_inv_lo_data(site) +
                                   static_cast<size_t>(r) * n_;
                          });
  }
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
