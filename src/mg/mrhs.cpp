#include "mg/mrhs.h"

#include <stdexcept>

#include "fields/blockspinor.h"
#include "gpusim/kernels.h"
#include "mg/coarse_row.h"
#include "mg/coarse_stencil.h"
#include "parallel/dispatch.h"

namespace qmg {

// --- CoarseDirac batched kernels (declared in mg/coarse_op.h) ---------------

namespace {

/// Shared shape validation for the batched coarse applies.
template <typename T, typename TOut, typename TIn>
void check_block_shapes(const CoarseDirac<T>& op, const BlockSpinor<TOut>& out,
                        const BlockSpinor<TIn>& in) {
  if (in.subset() != Subset::Full || out.subset() != Subset::Full)
    throw std::invalid_argument("coarse apply_block needs full-subset blocks");
  const long v = op.geometry()->volume();
  if (out.nrhs() != in.nrhs() || out.site_dof() != op.block_dim() ||
      in.site_dof() != op.block_dim() || out.nsites() != v ||
      in.nsites() != v)
    throw std::invalid_argument("coarse apply_block: block shape mismatch");
}

/// The batched apply over input vectors of storage type TX: one dispatch
/// item per site x rhs tile, rows folded into the item, running the shared
/// rhs-tile body (mg/coarse_stencil.h) at the rhs lane width of T.  The
/// per-row partial-sum shape, where the kernel config changes the
/// numerics, is identical to coarse_row_span's, so results match
/// apply_with_config bit-for-bit at the same config and precision axes.
template <typename T, typename TX>
void apply_block_kernel(const CoarseDirac<T>& op, BlockSpinor<T>& out,
                        const BlockSpinor<TX>& in,
                        const CoarseKernelConfig& config,
                        const LaunchPolicy& policy) {
  const auto& geom = *op.geometry();
  const long v = geom.volume();
  const long nrhs = in.nrhs();
  const auto nbrs = detail::stencil_neighbors(
      geom, [&](long s) { return in.site_data(s); });
  op.stencil().visit([&](const auto& st) {
    detail::with_rhs_lanes<T>(policy, nrhs, [&](auto wc,
                                                 const LaunchPolicy& p) {
      constexpr int W = decltype(wc)::value;
      parallel_for_2d_tiled(v, nrhs, p, [&](long site, long k0, long k1) {
        detail::coarse_apply_rhs_tile<W, T, TX>(st, nbrs, site, k0, k1, nrhs,
                                                out.site_data(site), config);
      });
    });
  });
  if (policy.backend == Backend::SimtModel)
    SimtStats::instance().record_work(coarse_op_work(
        v * nrhs, op.block_dim(), config, op.stencil().sim_precision()));
}

}  // namespace

template <typename T>
void CoarseDirac<T>::apply_block_with_config(BlockField& out,
                                            const BlockField& in,
                                            const CoarseKernelConfig& config,
                                            const LaunchPolicy& policy) const {
  check_block_shapes(*this, out, in);
  apply_block_kernel(*this, out, in, config, policy);
}

template <typename T>
void CoarseDirac<T>::apply_block_staged(BlockField& out, const BlockField& in,
                                        const CoarseKernelConfig& config,
                                        const LaunchPolicy& policy) const {
  check_block_shapes(*this, out, in);
  // Low-precision rhs payload: one truncating copy of the block, then the
  // kernel streams float vectors (TX = float) while accumulating in T.
  // For T = float this degenerates to a copy of the plain batched apply.
  apply_block_kernel(*this, out, convert_block<float>(in), config, policy);
}

// --- MultiRhsCoarseOp -------------------------------------------------------

template <typename T>
void MultiRhsCoarseOp<T>::validate(const std::vector<Field>& out,
                                   const std::vector<Field>& in) const {
  if (out.size() != in.size())
    throw std::invalid_argument("mrhs: out/in size mismatch");
  if (in.empty()) throw std::invalid_argument("mrhs: empty rhs set");
  for (size_t k = 0; k < in.size(); ++k) {
    if (in[k].subset() != Subset::Full || out[k].subset() != Subset::Full)
      throw std::invalid_argument("mrhs: all fields must be full-subset");
    if (in[k].geometry() != op_.geometry() ||
        out[k].geometry() != op_.geometry() ||
        in[k].site_dof() != op_.block_dim() ||
        out[k].site_dof() != op_.block_dim())
      throw std::invalid_argument("mrhs: field shape does not match operator");
  }
}

template <typename T>
void MultiRhsCoarseOp<T>::apply(std::vector<Field>& out,
                                const std::vector<Field>& in,
                                const CoarseKernelConfig& config,
                                const LaunchPolicy& policy) const {
  validate(out, in);
  const BlockField in_block = pack_block(in);
  BlockField out_block = in_block.similar();
  op_.apply_block_with_config(out_block, in_block, config, policy);
  unpack_block(out, out_block);
}

template <typename T>
void MultiRhsCoarseOp<T>::apply_streamed(std::vector<Field>& out,
                                         const std::vector<Field>& in,
                                         const CoarseKernelConfig& config) const {
  validate(out, in);
  if (!op_.has_native_storage())
    throw std::logic_error(
        "mrhs apply_streamed: the streamed baseline reads native storage; "
        "the operator was compressed");
  const int nrhs = static_cast<int>(in.size());
  const auto& geom = *op_.geometry();
  const int n = op_.block_dim();
  const long v = geom.volume();

  parallel_for(v, [&](long site) {
    // Load the site's stencil blocks and neighbor indices once...
    const Complex<T>* mats[9];
    long nbr[9];
    mats[0] = op_.diag_data(site);
    nbr[0] = site;
    for (int mu = 0; mu < kNDim; ++mu) {
      mats[1 + 2 * mu] = op_.link_data(site, 2 * mu);
      nbr[1 + 2 * mu] = geom.neighbor_fwd(site, mu);
      mats[2 + 2 * mu] = op_.link_data(site, 2 * mu + 1);
      nbr[2 + 2 * mu] = geom.neighbor_bwd(site, mu);
    }
    // ...and stream every right-hand side through them.  The inner row loop
    // is exactly the single-rhs kernel, so results are bit-identical.
    for (int k = 0; k < nrhs; ++k) {
      const Complex<T>* xin[9];
      for (int m = 0; m < 9; ++m) xin[m] = in[k].site_data(nbr[m]);
      Complex<T>* dst = out[k].site_data(site);
      for (int row = 0; row < n; ++row)
        dst[row] = coarse_row(mats, xin, row, n, config);
    }
  });
}

template class MultiRhsCoarseOp<double>;
template class MultiRhsCoarseOp<float>;

// CoarseDirac is explicitly instantiated in coarse_op.cpp, where these
// member definitions are not visible; instantiate them here.
template void CoarseDirac<double>::apply_block_with_config(
    BlockSpinor<double>&, const BlockSpinor<double>&,
    const CoarseKernelConfig&, const LaunchPolicy&) const;
template void CoarseDirac<float>::apply_block_with_config(
    BlockSpinor<float>&, const BlockSpinor<float>&, const CoarseKernelConfig&,
    const LaunchPolicy&) const;
template void CoarseDirac<double>::apply_block_staged(
    BlockSpinor<double>&, const BlockSpinor<double>&,
    const CoarseKernelConfig&, const LaunchPolicy&) const;
template void CoarseDirac<float>::apply_block_staged(
    BlockSpinor<float>&, const BlockSpinor<float>&, const CoarseKernelConfig&,
    const LaunchPolicy&) const;

}  // namespace qmg
