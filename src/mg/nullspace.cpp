#include "mg/nullspace.h"

#include <algorithm>
#include <cmath>

#include "fields/blas.h"
#include "fields/blockspinor.h"
#include "solvers/block_gcr.h"
#include "solvers/block_mr.h"

namespace qmg {

namespace {

/// MR relaxation on M x = 0 for every rhs of `x` in lockstep: r = -M x;
/// each step damps the high modes of x, leaving the near-null component
/// (MrSolver cannot do this: b = 0 is its trivial-solution early-out).  A
/// rhs whose <Mr,Mr> reaches 0 is masked out of all further updates.
template <typename T>
void mr_relax_homogeneous(const LinearOperator<T>& op, BlockSpinor<T>& x,
                          int iters, T omega) {
  const int n = x.nrhs();
  BlockSpinor<T> r = x.similar();
  BlockSpinor<T> mr = x.similar();
  const std::vector<T> minus_one(static_cast<size_t>(n), T(-1));
  std::vector<Complex<T>> coef(static_cast<size_t>(n));
  blas::RhsMask active(static_cast<size_t>(n), 1);
  for (int it = 0; it < iters; ++it) {
    op.apply_block(r, x);
    blas::block_scale(minus_one, r);
    op.apply_block(mr, r);
    const std::vector<double> mr2 = blas::block_norm2(mr);
    const std::vector<complexd> a = blas::block_cdot(mr, r);
    bool any = false;
    for (size_t k = 0; k < static_cast<size_t>(n); ++k) {
      if (!active[k]) continue;
      if (mr2[k] == 0.0) {
        active[k] = 0;
        continue;
      }
      const Complex<T> alpha(static_cast<T>(a[k].re / mr2[k]),
                             static_cast<T>(a[k].im / mr2[k]));
      coef[k] = alpha * omega;
      any = true;
    }
    if (!any) break;
    blas::block_caxpy(coef, r, x, &active);
  }
}

template <typename T>
void normalize(BlockSpinor<T>& x) {
  const std::vector<double> n2 = blas::block_norm2(x);
  std::vector<T> inv(n2.size(), T(1));
  blas::RhsMask nonzero(n2.size(), 0);
  for (size_t k = 0; k < n2.size(); ++k) {
    if (!(n2[k] > 0)) continue;
    inv[k] = static_cast<T>(1.0 / std::sqrt(n2[k]));
    nonzero[k] = 1;
  }
  blas::block_scale(inv, x, &nonzero);
}

/// Run `fn` on `vecs` in blocks of `group` (at least 1) consecutive
/// candidates, the last block taking the remainder.  Each field is released
/// as soon as it is packed and re-created from its block after the last
/// group, so a candidate lives in its field or in a block, never both, and
/// the temporaries `fn` allocates are one group's.  Re-creating a group's
/// fields right after its `fn` instead interleaves long-lived fields with
/// the next group's temporaries; on qmg-bench's stream workload that heap
/// fragmentation raised peak RSS by 3-4% over the single-rhs setup, against
/// about 2% for this order.
template <typename T, typename Fn>
void for_each_group(std::vector<ColorSpinorField<T>>& vecs, int group,
                    Fn&& fn) {
  const size_t n = vecs.size();
  const size_t g = static_cast<size_t>(std::max(group, 1));
  std::vector<BlockSpinor<T>> blocks;
  blocks.reserve((n + g - 1) / g);
  for (size_t b = 0; b < n; b += g) {
    const size_t e = std::min(n, b + g);
    const ColorSpinorField<T>& f0 = vecs[b];
    BlockSpinor<T>& block =
        blocks.emplace_back(f0.geometry(), f0.nspin(), f0.ncolor(),
                            static_cast<int>(e - b), f0.subset());
    for (size_t k = b; k < e; ++k) {
      block.insert_rhs(vecs[k], static_cast<int>(k - b));
      vecs[k] = ColorSpinorField<T>();
    }
    fn(block);
  }
  size_t k = 0;
  for (BlockSpinor<T>& block : blocks) {
    for (int j = 0; j < block.nrhs(); ++j) vecs[k++] = block.extract_rhs(j);
    block = BlockSpinor<T>();
  }
}

template <typename T>
void relax_and_normalize(const LinearOperator<T>& op,
                         std::vector<ColorSpinorField<T>>& vecs, int iters,
                         T omega, int group) {
  for_each_group(vecs, group, [&](BlockSpinor<T>& x) {
    mr_relax_homogeneous(op, x, iters, omega);
    normalize(x);
  });
}

/// Loose inner solve of the refinement's two-grid cycle.
SolverParams refine_coarse_params() {
  SolverParams p;
  p.tol = 0.1;
  p.max_iter = 50;
  p.restart = 10;
  return p;
}

/// `iters` sweeps v <- normalize((1 - B M) v) of the two-grid cycle B over
/// a block of candidates; the blocks are allocated once and reused across
/// sweeps.
template <typename T>
void refine_block(const LinearOperator<T>& op, const Transfer<T>& transfer,
                  const SchurCoarseOp<T>& schur, BlockSpinor<T>& v, int iters,
                  const SolverParams& smooth) {
  const int n = v.nrhs();
  BlockSpinor<T> r = v.similar();
  BlockSpinor<T> x = v.similar();
  BlockSpinor<T> r_c = transfer.create_coarse_block(n);
  BlockSpinor<T> e_c = r_c.similar();
  BlockSpinor<T> b_hat = schur.create_block(n);
  BlockSpinor<T> e_e = b_hat.similar();
  const std::vector<T> minus_one(static_cast<size_t>(n), T(-1));
  const std::vector<T> one(static_cast<size_t>(n), T(1));
  for (int it = 0; it < iters; ++it) {
    op.apply_block(r, v);
    blas::block_scale(minus_one, r);
    transfer.restrict_to_coarse(r_c, r);
    schur.prepare_block(b_hat, r_c);
    blas::block_zero(e_e);
    BlockGcrSolver<T>(schur, refine_coarse_params()).solve(e_e, b_hat);
    schur.reconstruct_block(e_c, e_e, r_c);
    transfer.prolongate(x, e_c);
    BlockMrSolver<T>(op, smooth).solve(x, r);
    blas::block_axpy(one, x, v);
    normalize(v);
  }
}

}  // namespace

template <typename T>
std::vector<ColorSpinorField<T>> generate_null_vectors(
    const LinearOperator<T>& op, const NullSpaceParams& params, int group) {
  std::vector<ColorSpinorField<T>> vecs;
  vecs.reserve(params.nvec);
  for (int k = 0; k < params.nvec; ++k) {
    vecs.push_back(op.create_vector());
    vecs.back().gaussian(params.seed + 1000 * static_cast<std::uint64_t>(k));
  }
  relax_and_normalize(op, vecs, params.iters, static_cast<T>(params.omega),
                      group);
  return vecs;
}

template <typename T>
void relax_null_vectors(const LinearOperator<T>& op,
                        std::vector<ColorSpinorField<T>>& vecs, int iters,
                        double omega, int group) {
  if (iters <= 0) return;
  relax_and_normalize(op, vecs, iters, static_cast<T>(omega), group);
}

template <typename T>
void refine_null_vectors(const LinearOperator<T>& op,
                         const Transfer<T>& transfer,
                         const CoarseDirac<T>& coarse,
                         std::vector<ColorSpinorField<T>>& vecs, int iters,
                         int smooth_iters, double omega, int group) {
  if (vecs.empty() || iters <= 0) return;
  const SchurCoarseOp<T> schur(coarse);
  SolverParams smooth;
  smooth.tol = 0;  // fixed iteration count (smoother mode)
  smooth.max_iter = smooth_iters;
  smooth.omega = omega;
  for_each_group(vecs, group, [&](BlockSpinor<T>& v) {
    refine_block(op, transfer, schur, v, iters, smooth);
  });
}

template std::vector<ColorSpinorField<double>> generate_null_vectors<double>(
    const LinearOperator<double>&, const NullSpaceParams&, int);
template std::vector<ColorSpinorField<float>> generate_null_vectors<float>(
    const LinearOperator<float>&, const NullSpaceParams&, int);
template void relax_null_vectors<double>(const LinearOperator<double>&,
                                         std::vector<ColorSpinorField<double>>&,
                                         int, double, int);
template void relax_null_vectors<float>(const LinearOperator<float>&,
                                        std::vector<ColorSpinorField<float>>&,
                                        int, double, int);
template void refine_null_vectors<double>(
    const LinearOperator<double>&, const Transfer<double>&,
    const CoarseDirac<double>&, std::vector<ColorSpinorField<double>>&, int,
    int, double, int);
template void refine_null_vectors<float>(
    const LinearOperator<float>&, const Transfer<float>&,
    const CoarseDirac<float>&, std::vector<ColorSpinorField<float>>&, int,
    int, double, int);

}  // namespace qmg
