#include "dirac/wilson.h"

#include <cassert>
#include <stdexcept>

#include "dirac/gamma.h"
#include "dirac/hop.h"
#include "fields/blas.h"
#include "fields/lanes.h"
#include "parallel/dispatch.h"

namespace qmg {

namespace {

/// Hopping term over a site range.  `site_of` maps output index -> full
/// lattice index; `in_index_of` maps a neighbor's full index -> site index
/// in the input field (identity for full fields, checkerboard index for
/// parity fields).  Out and In are fields or blocks of one.
template <typename Out, typename In, typename Gauge, typename SiteOf,
          typename InIndexOf, typename T>
void hopping_kernel(Out& out, const In& in, const Gauge& gauge,
                    const LatticeGeometry& geom, long n_out, SiteOf site_of,
                    InIndexOf in_index_of, T anisotropy) {
  const auto& algebra = GammaAlgebra::instance();
  parallel_for(n_out, [&](long i) {
    const long x = site_of(i);
    Complex<T> accum[12] = {};
    for (int mu = 0; mu < kNDim; ++mu) {
      const T coef = (mu == 3 ? anisotropy : T(1)) * T(0.5);
      // Forward: (1 - gamma_mu) U_mu(x) in(x+mu).
      const long xf = geom.neighbor_fwd(x, mu);
      accumulate_hop(accum, gauge.link(mu, x), in.site_data(in_index_of(xf)),
                     algebra.half_spin(mu, 0), coef);
      // Backward: (1 + gamma_mu) U_mu(x-mu)^dag in(x-mu).
      const long xb = geom.neighbor_bwd(x, mu);
      accumulate_hop(accum, adjoint(gauge.link(mu, xb)),
                     in.site_data(in_index_of(xb)),
                     algebra.half_spin(mu, 1), coef);
    }
    Complex<T>* dst = out.site_data(i);
    for (int k = 0; k < 12; ++k) dst[k] = accum[k];
  });
}

/// Clover block application: out_site += A(block) * in_site per chirality.
/// V is Complex<T> or an rhs-lane pack (see accumulate_hop) — every lane
/// runs the identical scalar expression tree.
template <typename T, typename V>
inline void clover_multiply_add(const typename CloverField<T>::Block& a,
                                const V* in, V* out) {
  for (int r = 0; r < 6; ++r) {
    V acc{};
    for (int c = 0; c < 6; ++c) acc += a(r, c) * in[c];
    out[r] += acc;
  }
}

template <typename T, typename V>
inline void block_multiply(const typename CloverField<T>::Block& a,
                           const V* in, V* out) {
  for (int r = 0; r < 6; ++r) {
    V acc{};
    for (int c = 0; c < 6; ++c) acc += a(r, c) * in[c];
    out[r] = acc;
  }
}

/// Dispatch the width path of a batched (site x rhs) kernel: runs
/// pack_site(i, k0, width_tag<W>) for every site and full lane group of W
/// consecutive rhs, then scalar_site(i, k) for the nrhs % W tail.  The
/// policy's rhs_block is clamped to a multiple of W and converted to PACK
/// GROUPS, so a dispatch item never splits a pack and Threaded partitions
/// over pack groups.
template <typename PackSite, typename ScalarSite>
void block_lanes_2d(long n_out, int nrhs, const LaunchPolicy& policy, int w,
                    PackSite&& pack_site, ScalarSite&& scalar_site) {
  simd::dispatch_width(w, [&](auto wc) {
    constexpr int W = decltype(wc)::value;
    const int ngroups = nrhs / W;
    LaunchPolicy p = align_rhs_block(policy, W);
    if (p.rhs_block > 0) p.rhs_block /= W;
    parallel_for_2d(n_out, ngroups, p, [&](long i, long g) {
      pack_site(i, static_cast<int>(g) * W, wc);
    });
    const int ktail = ngroups * W;
    if (ktail < nrhs)
      parallel_for_2d(n_out, nrhs - ktail, policy, [&](long i, long kk) {
        scalar_site(i, ktail + static_cast<int>(kk));
      });
  });
}

/// Batched hopping term over a site range and all rhs of a block spinor.
/// Each (site, rhs) pair gathers its neighbor spinors into contiguous
/// buffers and runs exactly the single-rhs hop accumulation, so per-rhs
/// results are bit-identical to hopping_kernel; consecutive rhs of a site
/// tile reuse the site's eight links from cache (the paper's section 9
/// temporal-locality gain, host-side).
template <typename T, typename Gauge, typename SiteOf, typename InIndexOf>
void block_hopping_kernel(BlockSpinor<T>& out, const BlockSpinor<T>& in,
                          const Gauge& gauge, const LatticeGeometry& geom,
                          long n_out, SiteOf site_of, InIndexOf in_index_of,
                          T anisotropy) {
  const auto& algebra = GammaAlgebra::instance();
  const LaunchPolicy policy = default_policy();
  auto scalar_site = [&](long i, int k) {
    const long x = site_of(i);
    Complex<T> accum[12] = {};
    Complex<T> nbr[12];
    for (int mu = 0; mu < kNDim; ++mu) {
      const T coef = (mu == 3 ? anisotropy : T(1)) * T(0.5);
      const long xf = geom.neighbor_fwd(x, mu);
      in.gather_site_rhs(in_index_of(xf), k, nbr);
      accumulate_hop(accum, gauge.link(mu, x), nbr, algebra.half_spin(mu, 0),
                     coef);
      const long xb = geom.neighbor_bwd(x, mu);
      in.gather_site_rhs(in_index_of(xb), k, nbr);
      accumulate_hop(accum, adjoint(gauge.link(mu, xb)), nbr,
                     algebra.half_spin(mu, 1), coef);
    }
    out.scatter_site_rhs(i, k, accum);
  };
  const int w = rhs_lane_width<T>(policy, in.nrhs());
  if (w > 1) {
    block_lanes_2d(
        n_out, in.nrhs(), policy, w,
        [&](long i, int k0, auto wc) {
          constexpr int W = decltype(wc)::value;
          const long x = site_of(i);
          simd::cpack<T, W> accum[12] = {};
          simd::cpack<T, W> nbr[12];
          for (int mu = 0; mu < kNDim; ++mu) {
            const T coef = (mu == 3 ? anisotropy : T(1)) * T(0.5);
            const long xf = geom.neighbor_fwd(x, mu);
            simd::gather_site_lanes<W>(in, in_index_of(xf), k0, nbr);
            accumulate_hop(accum, gauge.link(mu, x), nbr,
                           algebra.half_spin(mu, 0), coef);
            const long xb = geom.neighbor_bwd(x, mu);
            simd::gather_site_lanes<W>(in, in_index_of(xb), k0, nbr);
            accumulate_hop(accum, adjoint(gauge.link(mu, xb)), nbr,
                           algebra.half_spin(mu, 1), coef);
          }
          simd::scatter_site_lanes<W>(out, i, k0, accum);
        },
        scalar_site);
    return;
  }
  parallel_for_2d(n_out, in.nrhs(), policy, [&](long i, long kk) {
    scalar_site(i, static_cast<int>(kk));
  });
}

/// Batched fused dslash out = (diag - hop) in, per (site, rhs): the
/// arithmetic per element is identical to apply()'s two-pass form, so
/// results are bit-identical per rhs.
template <typename T, typename Gauge>
void block_dslash_kernel(BlockSpinor<T>& out, const BlockSpinor<T>& in,
                         const Gauge& gauge, const CloverField<T>* clover,
                         const LatticeGeometry& geom, T shift, T anisotropy) {
  const auto& algebra = GammaAlgebra::instance();
  const LaunchPolicy policy = default_policy();
  auto scalar_site = [&](long x, int k) {
    Complex<T> accum[12] = {};
    Complex<T> nbr[12];
    for (int mu = 0; mu < kNDim; ++mu) {
      const T coef = (mu == 3 ? anisotropy : T(1)) * T(0.5);
      const long xf = geom.neighbor_fwd(x, mu);
      in.gather_site_rhs(xf, k, nbr);
      accumulate_hop(accum, gauge.link(mu, x), nbr, algebra.half_spin(mu, 0),
                     coef);
      const long xb = geom.neighbor_bwd(x, mu);
      in.gather_site_rhs(xb, k, nbr);
      accumulate_hop(accum, adjoint(gauge.link(mu, xb)), nbr,
                     algebra.half_spin(mu, 1), coef);
    }
    Complex<T> src[12];
    in.gather_site_rhs(x, k, src);
    Complex<T> diag[12];
    for (int d = 0; d < 12; ++d) diag[d] = shift * src[d];
    if (clover) {
      clover_multiply_add<T>(clover->block(x, 0), src, diag);
      clover_multiply_add<T>(clover->block(x, 1), src + 6, diag + 6);
    }
    for (int d = 0; d < 12; ++d) diag[d] = diag[d] - accum[d];
    out.scatter_site_rhs(x, k, diag);
  };
  const int w = rhs_lane_width<T>(policy, in.nrhs());
  if (w > 1) {
    block_lanes_2d(
        geom.volume(), in.nrhs(), policy, w,
        [&](long x, int k0, auto wc) {
          constexpr int W = decltype(wc)::value;
          using V = simd::cpack<T, W>;
          V accum[12] = {};
          V nbr[12];
          for (int mu = 0; mu < kNDim; ++mu) {
            const T coef = (mu == 3 ? anisotropy : T(1)) * T(0.5);
            const long xf = geom.neighbor_fwd(x, mu);
            simd::gather_site_lanes<W>(in, xf, k0, nbr);
            accumulate_hop(accum, gauge.link(mu, x), nbr,
                           algebra.half_spin(mu, 0), coef);
            const long xb = geom.neighbor_bwd(x, mu);
            simd::gather_site_lanes<W>(in, xb, k0, nbr);
            accumulate_hop(accum, adjoint(gauge.link(mu, xb)), nbr,
                           algebra.half_spin(mu, 1), coef);
          }
          V src[12];
          simd::gather_site_lanes<W>(in, x, k0, src);
          V diag[12];
          for (int d = 0; d < 12; ++d) diag[d] = shift * src[d];
          if (clover) {
            clover_multiply_add<T>(clover->block(x, 0), src, diag);
            clover_multiply_add<T>(clover->block(x, 1), src + 6, diag + 6);
          }
          for (int d = 0; d < 12; ++d) diag[d] = diag[d] - accum[d];
          simd::scatter_site_lanes<W>(out, x, k0, diag);
        },
        scalar_site);
    return;
  }
  parallel_for_2d(geom.volume(), in.nrhs(), policy, [&](long x, long kk) {
    scalar_site(x, static_cast<int>(kk));
  });
}

/// The Wilson kernels stream through fixed 12-element (4 spin x 3 color)
/// site buffers, so the blocks must really be fine-grid shaped on this
/// operator's lattice — a mismatched block (e.g. a coarse-shaped one fed
/// through the generic LinearOperator interface) must throw, not overrun.
template <typename T>
void check_block_pair(const BlockSpinor<T>& out, const BlockSpinor<T>& in,
                      const GeometryPtr& geom) {
  if (out.nrhs() != in.nrhs() || out.nsites() != in.nsites() ||
      out.site_dof() != in.site_dof())
    throw std::invalid_argument("wilson block apply: out/in shape mismatch");
  if (in.site_dof() != 12 || in.geometry() != geom ||
      out.geometry() != geom)
    throw std::invalid_argument(
        "wilson block apply: block is not fine-grid shaped on this lattice");
}

}  // namespace

// --- WilsonCloverOp ---------------------------------------------------------

template <typename T>
WilsonCloverOp<T>::WilsonCloverOp(const GaugeField<T>& gauge,
                                  WilsonParams<T> params,
                                  const CloverField<T>* clover,
                                  Reconstruct reconstruct)
    : gauge_(gauge),
      params_(params),
      clover_(clover),
      reconstruct_(reconstruct) {
  if (reconstruct_ != Reconstruct::Full18)
    compressed_ =
        std::make_unique<CompressedGaugeField<T>>(gauge_, reconstruct_);
}

template <typename T>
void WilsonCloverOp<T>::refresh_gauge() {
  if (reconstruct_ != Reconstruct::Full18)
    compressed_ =
        std::make_unique<CompressedGaugeField<T>>(gauge_, reconstruct_);
}

template <typename T>
typename WilsonCloverOp<T>::Field WilsonCloverOp<T>::create_vector() const {
  return Field(gauge_.geometry(), 4, 3);
}

template <typename T>
double WilsonCloverOp<T>::flops_per_apply() const {
  const double per_site =
      kWilsonFlopsPerSite + (clover_ ? kCloverFlopsPerSite : 0.0);
  return per_site * static_cast<double>(gauge_.geometry()->volume());
}

template <typename T>
template <typename F>
void WilsonCloverOp<T>::dslash(F& out, const F& in) const {
  assert(in.subset() == Subset::Full && out.subset() == Subset::Full);
  const auto& geom = *gauge_.geometry();
  auto identity = [](long i) { return i; };
  with_links([&](const auto& links) {
    hopping_kernel(out, in, links, geom, geom.volume(), identity, identity,
                   params_.anisotropy);
  });
  // out = diag*in - hop*in.
  const T shift = T(4) + params_.mass;
  parallel_for(geom.volume(), [&](long i) {
    const Complex<T>* src = in.site_data(i);
    Complex<T>* dst = out.site_data(i);
    Complex<T> diag[12];
    for (int k = 0; k < 12; ++k) diag[k] = shift * src[k];
    if (clover_) {
      clover_multiply_add<T>(clover_->block(i, 0), src, diag);
      clover_multiply_add<T>(clover_->block(i, 1), src + 6, diag + 6);
    }
    for (int k = 0; k < 12; ++k) dst[k] = diag[k] - dst[k];
  });
}

template <typename T>
template <typename Out, typename In>
void WilsonCloverOp<T>::hopping_parity(Out& out, const In& in,
                                       int out_parity) const {
  const auto& geom = *gauge_.geometry();
  auto site_of = [&](long i) { return geom.full_index(out_parity, i); };
  auto in_index_of = [&](long f) { return geom.cb_index(f); };
  with_links([&](const auto& links) {
    hopping_kernel(out, in, links, geom, geom.half_volume(), site_of,
                   in_index_of, params_.anisotropy);
  });
}

template <typename T>
template <typename Out, typename In>
void WilsonCloverOp<T>::diag(Out& out, const In& in, int parity) const {
  const auto& geom = *gauge_.geometry();
  const T shift = T(4) + params_.mass;
  parallel_for(in.nsites(), [&](long i) {
    const Complex<T>* src = in.site_data(i);
    Complex<T>* dst = out.site_data(i);
    for (int k = 0; k < 12; ++k) dst[k] = shift * src[k];
    if (clover_) {
      const long full = parity >= 0 ? geom.full_index(parity, i) : i;
      clover_multiply_add<T>(clover_->block(full, 0), src, dst);
      clover_multiply_add<T>(clover_->block(full, 1), src + 6, dst + 6);
    }
  });
}

template <typename T>
template <typename Out, typename In>
void WilsonCloverOp<T>::diag_inverse(Out& out, const In& in,
                                     int parity) const {
  const auto& geom = *gauge_.geometry();
  const long n = in.nsites();
  if (clover_) {
    assert(clover_->has_inverse());
    parallel_for(n, [&](long i) {
      const long full = parity >= 0 ? geom.full_index(parity, i) : i;
      const Complex<T>* src = in.site_data(i);
      Complex<T>* dst = out.site_data(i);
      block_multiply<T>(clover_->inverse_block(full, 0), src, dst);
      block_multiply<T>(clover_->inverse_block(full, 1), src + 6, dst + 6);
    });
  } else {
    const T inv = T(1) / (T(4) + params_.mass);
    parallel_for(n, [&](long i) {
      const Complex<T>* src = in.site_data(i);
      Complex<T>* dst = out.site_data(i);
      for (int k = 0; k < 12; ++k) dst[k] = inv * src[k];
    });
  }
}

template <typename T>
void WilsonCloverOp<T>::apply_hopping_parity(Field& out, const Field& in,
                                             int out_parity) const {
  assert(out.subset() == (out_parity ? Subset::Odd : Subset::Even));
  assert(in.subset() == (out_parity ? Subset::Even : Subset::Odd));
  hopping_parity(out, in, out_parity);
}

template <typename T>
void WilsonCloverOp<T>::apply_diag(Field& out, const Field& in,
                                   int parity) const {
  assert(parity >= 0 ? in.subset() != Subset::Full
                     : in.subset() == Subset::Full);
  diag(out, in, parity);
}

template <typename T>
void WilsonCloverOp<T>::apply_diag_inverse(Field& out, const Field& in,
                                           int parity) const {
  diag_inverse(out, in, parity);
}

template <typename T>
void WilsonCloverOp<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  dslash(out, in);
}

template <typename T>
void WilsonCloverOp<T>::apply_dagger(Field& out, const Field& in) const {
  // gamma5-Hermiticity: M^dag = gamma5 M gamma5.
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

template <typename T>
void WilsonCloverOp<T>::apply_block(BlockField& out,
                                    const BlockField& in) const {
  check_block_pair(out, in, gauge_.geometry());
  if (in.subset() != Subset::Full)
    throw std::invalid_argument("wilson apply_block needs full-subset blocks");
  for (int k = 0; k < in.nrhs(); ++k) this->count_apply();
  if (in.nrhs() == 1) {
    dslash(out, in);
    return;
  }
  const auto& geom = *gauge_.geometry();
  const T shift = T(4) + params_.mass;
  with_links([&](const auto& links) {
    block_dslash_kernel(out, in, links, clover_, geom, shift,
                        params_.anisotropy);
  });
}

template <typename T>
void WilsonCloverOp<T>::apply_hopping_parity_block(BlockField& out,
                                                   const BlockField& in,
                                                   int out_parity) const {
  check_block_pair(out, in, gauge_.geometry());
  if (out.subset() != (out_parity ? Subset::Odd : Subset::Even) ||
      in.subset() != (out_parity ? Subset::Even : Subset::Odd))
    throw std::invalid_argument("hopping_parity_block: wrong subsets");
  if (in.nrhs() == 1) {
    hopping_parity(out, in, out_parity);
    return;
  }
  const auto& geom = *gauge_.geometry();
  auto site_of = [&](long i) { return geom.full_index(out_parity, i); };
  auto in_index_of = [&](long f) { return geom.cb_index(f); };
  with_links([&](const auto& links) {
    block_hopping_kernel(out, in, links, geom, geom.half_volume(), site_of,
                         in_index_of, params_.anisotropy);
  });
}

template <typename T>
void WilsonCloverOp<T>::apply_diag_block(BlockField& out, const BlockField& in,
                                         int parity) const {
  check_block_pair(out, in, gauge_.geometry());
  if (in.nrhs() == 1) {
    diag(out, in, parity);
    return;
  }
  const auto& geom = *gauge_.geometry();
  const T shift = T(4) + params_.mass;
  const LaunchPolicy policy = default_policy();
  auto scalar_site = [&](long i, int k) {
    Complex<T> src[12], dst[12];
    in.gather_site_rhs(i, k, src);
    for (int d = 0; d < 12; ++d) dst[d] = shift * src[d];
    if (clover_) {
      const long full = parity >= 0 ? geom.full_index(parity, i) : i;
      clover_multiply_add<T>(clover_->block(full, 0), src, dst);
      clover_multiply_add<T>(clover_->block(full, 1), src + 6, dst + 6);
    }
    out.scatter_site_rhs(i, k, dst);
  };
  const int w = rhs_lane_width<T>(policy, in.nrhs());
  if (w > 1) {
    block_lanes_2d(
        in.nsites(), in.nrhs(), policy, w,
        [&](long i, int k0, auto wc) {
          constexpr int W = decltype(wc)::value;
          using V = simd::cpack<T, W>;
          V src[12], dst[12];
          simd::gather_site_lanes<W>(in, i, k0, src);
          for (int d = 0; d < 12; ++d) dst[d] = shift * src[d];
          if (clover_) {
            const long full = parity >= 0 ? geom.full_index(parity, i) : i;
            clover_multiply_add<T>(clover_->block(full, 0), src, dst);
            clover_multiply_add<T>(clover_->block(full, 1), src + 6, dst + 6);
          }
          simd::scatter_site_lanes<W>(out, i, k0, dst);
        },
        scalar_site);
    return;
  }
  parallel_for_2d(in.nsites(), in.nrhs(), policy, [&](long i, long kk) {
    scalar_site(i, static_cast<int>(kk));
  });
}

template <typename T>
void WilsonCloverOp<T>::apply_diag_inverse_block(BlockField& out,
                                                 const BlockField& in,
                                                 int parity) const {
  check_block_pair(out, in, gauge_.geometry());
  if (in.nrhs() == 1) {
    diag_inverse(out, in, parity);
    return;
  }
  const auto& geom = *gauge_.geometry();
  const LaunchPolicy policy = default_policy();
  const int w = rhs_lane_width<T>(policy, in.nrhs());
  if (clover_) {
    assert(clover_->has_inverse());
    auto scalar_site = [&](long i, int k) {
      const long full = parity >= 0 ? geom.full_index(parity, i) : i;
      Complex<T> src[12], dst[12];
      in.gather_site_rhs(i, k, src);
      block_multiply<T>(clover_->inverse_block(full, 0), src, dst);
      block_multiply<T>(clover_->inverse_block(full, 1), src + 6, dst + 6);
      out.scatter_site_rhs(i, k, dst);
    };
    if (w > 1) {
      block_lanes_2d(
          in.nsites(), in.nrhs(), policy, w,
          [&](long i, int k0, auto wc) {
            constexpr int W = decltype(wc)::value;
            using V = simd::cpack<T, W>;
            const long full = parity >= 0 ? geom.full_index(parity, i) : i;
            V src[12], dst[12];
            simd::gather_site_lanes<W>(in, i, k0, src);
            block_multiply<T>(clover_->inverse_block(full, 0), src, dst);
            block_multiply<T>(clover_->inverse_block(full, 1), src + 6,
                              dst + 6);
            simd::scatter_site_lanes<W>(out, i, k0, dst);
          },
          scalar_site);
      return;
    }
    parallel_for_2d(in.nsites(), in.nrhs(), policy, [&](long i, long kk) {
      scalar_site(i, static_cast<int>(kk));
    });
  } else {
    const T inv = T(1) / (T(4) + params_.mass);
    auto scalar_site = [&](long i, int k) {
      Complex<T> src[12], dst[12];
      in.gather_site_rhs(i, k, src);
      for (int d = 0; d < 12; ++d) dst[d] = inv * src[d];
      out.scatter_site_rhs(i, k, dst);
    };
    if (w > 1) {
      block_lanes_2d(
          in.nsites(), in.nrhs(), policy, w,
          [&](long i, int k0, auto wc) {
            constexpr int W = decltype(wc)::value;
            using V = simd::cpack<T, W>;
            V src[12], dst[12];
            simd::gather_site_lanes<W>(in, i, k0, src);
            for (int d = 0; d < 12; ++d) dst[d] = inv * src[d];
            simd::scatter_site_lanes<W>(out, i, k0, dst);
          },
          scalar_site);
      return;
    }
    parallel_for_2d(in.nsites(), in.nrhs(), policy, [&](long i, long kk) {
      scalar_site(i, static_cast<int>(kk));
    });
  }
}

// --- SchurWilsonOp ----------------------------------------------------------

template <typename T>
SchurWilsonOp<T>::SchurWilsonOp(const WilsonCloverOp<T>& fine)
    : fine_(fine),
      tmp_odd_(fine.geometry(), 4, 3, Subset::Odd),
      tmp_odd2_(fine.geometry(), 4, 3, Subset::Odd),
      tmp_even_(fine.geometry(), 4, 3, Subset::Even) {}

template <typename T>
typename SchurWilsonOp<T>::Field SchurWilsonOp<T>::create_vector() const {
  return Field(fine_.geometry(), 4, 3, Subset::Even);
}

template <typename T>
double SchurWilsonOp<T>::flops_per_apply() const {
  // Two half-volume hopping applications + diagonal work: comparable to one
  // full-volume operator application.
  return fine_.flops_per_apply();
}

template <typename T>
template <typename F>
void SchurWilsonOp<T>::schur(F& out, const F& in) const {
  // out = A_ee in - H_eo A_oo^{-1} H_oe in.
  fine_.hopping_parity(tmp_odd_, in, /*out_parity=*/1);
  fine_.diag_inverse(tmp_odd2_, tmp_odd_, /*parity=*/1);
  fine_.hopping_parity(tmp_even_, tmp_odd2_, /*out_parity=*/0);
  fine_.diag(out, in, /*parity=*/0);
  for (long k = 0; k < out.size(); ++k) out.data()[k] -= tmp_even_.data()[k];
}

template <typename T>
void SchurWilsonOp<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  fine_.count_apply();  // one Schur apply costs one fine-operator apply
  schur(out, in);
}

template <typename T>
void SchurWilsonOp<T>::apply_block(BlockField& out, const BlockField& in) const {
  const int nrhs = in.nrhs();
  for (int k = 0; k < nrhs; ++k) {
    this->count_apply();
    fine_.count_apply();
  }
  if (nrhs == 1) {
    check_block_pair(out, in, fine_.geometry());
    if (in.subset() != Subset::Even || out.subset() != Subset::Even)
      throw std::invalid_argument("schur apply_block needs even blocks");
    schur(out, in);
    return;
  }
  // out = A_ee in - H_eo A_oo^{-1} H_oe in, all stages batched.
  BlockField odd(fine_.geometry(), 4, 3, nrhs, Subset::Odd);
  BlockField odd2(fine_.geometry(), 4, 3, nrhs, Subset::Odd);
  BlockField even(fine_.geometry(), 4, 3, nrhs, Subset::Even);
  fine_.apply_hopping_parity_block(odd, in, /*out_parity=*/1);
  fine_.apply_diag_inverse_block(odd2, odd, /*parity=*/1);
  fine_.apply_hopping_parity_block(even, odd2, /*out_parity=*/0);
  fine_.apply_diag_block(out, in, /*parity=*/0);
  // out -= even through the parallel block BLAS: adding -1 * x is exactly
  // subtracting x in IEEE arithmetic, so the bits match the scalar loop.
  blas::block_axpy(std::vector<T>(nrhs, T(-1)), even, out);
}

template <typename T>
void SchurWilsonOp<T>::prepare_block(BlockField& b_hat,
                                     const BlockField& b) const {
  const int nrhs = b.nrhs();
  BlockField b_odd(fine_.geometry(), 4, 3, nrhs, Subset::Odd);
  extract_parity_block(b_odd, b, 1);
  BlockField odd(fine_.geometry(), 4, 3, nrhs, Subset::Odd);
  BlockField even(fine_.geometry(), 4, 3, nrhs, Subset::Even);
  fine_.apply_diag_inverse_block(odd, b_odd, /*parity=*/1);
  fine_.apply_hopping_parity_block(even, odd, /*out_parity=*/0);
  extract_parity_block(b_hat, b, 0);
  blas::block_axpy(std::vector<T>(nrhs, T(1)), even, b_hat);
}

template <typename T>
void SchurWilsonOp<T>::reconstruct_block(BlockField& x_full,
                                         const BlockField& x_even,
                                         const BlockField& b) const {
  const int nrhs = b.nrhs();
  // x_o = A_oo^{-1} (b_o + H_oe x_e).
  BlockField odd(fine_.geometry(), 4, 3, nrhs, Subset::Odd);
  fine_.apply_hopping_parity_block(odd, x_even, /*out_parity=*/1);
  BlockField b_odd(fine_.geometry(), 4, 3, nrhs, Subset::Odd);
  extract_parity_block(b_odd, b, 1);
  blas::block_axpy(std::vector<T>(nrhs, T(1)), odd, b_odd);
  BlockField odd2(fine_.geometry(), 4, 3, nrhs, Subset::Odd);
  fine_.apply_diag_inverse_block(odd2, b_odd, /*parity=*/1);
  insert_parity_block(x_full, x_even, 0);
  insert_parity_block(x_full, odd2, 1);
}

template <typename T>
void SchurWilsonOp<T>::apply_dagger(Field& out, const Field& in) const {
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

template <typename T>
void SchurWilsonOp<T>::prepare(Field& b_hat, const Field& b) const {
  assert(b.subset() == Subset::Full);
  Field b_odd(fine_.geometry(), 4, 3, Subset::Odd);
  extract_parity(b_odd, b, 1);
  fine_.apply_diag_inverse(tmp_odd_, b_odd, /*parity=*/1);
  fine_.apply_hopping_parity(tmp_even_, tmp_odd_, /*out_parity=*/0);
  extract_parity(b_hat, b, 0);
  for (long k = 0; k < b_hat.size(); ++k)
    b_hat.data()[k] += tmp_even_.data()[k];
}

template <typename T>
void SchurWilsonOp<T>::reconstruct(Field& x_full, const Field& x_even,
                                   const Field& b) const {
  assert(b.subset() == Subset::Full && x_full.subset() == Subset::Full);
  // x_o = A_oo^{-1} (b_o + H_oe x_e).
  fine_.apply_hopping_parity(tmp_odd_, x_even, /*out_parity=*/1);
  Field b_odd(fine_.geometry(), 4, 3, Subset::Odd);
  extract_parity(b_odd, b, 1);
  for (long k = 0; k < b_odd.size(); ++k)
    b_odd.data()[k] += tmp_odd_.data()[k];
  fine_.apply_diag_inverse(tmp_odd2_, b_odd, /*parity=*/1);
  insert_parity(x_full, x_even, 0);
  insert_parity(x_full, tmp_odd2_, 1);
}

template class WilsonCloverOp<double>;
template class WilsonCloverOp<float>;
template class SchurWilsonOp<double>;
template class SchurWilsonOp<float>;

}  // namespace qmg
