#pragma once
// Adaptive null-space setup (paper section 3.4, steps 1-2): iterate the
// homogeneous system M x = 0 from a random start with a smoother; what
// survives k iterations is rich in the slow-to-converge (near-null) modes of
// M.  These candidate vectors become the prolongator columns, and adaptive
// refinement then drives them through the current two-grid method.
//
// Every routine runs its candidates in blocks of `group` consecutive
// candidates (the last block takes the remainder): each block advances as
// one BlockSpinor through apply_block, the block BLAS and the masked block
// solvers, which gives setup an rhs axis of work (the multi-rhs strategy of
// paper section 9).  A group of one streams the candidates one at a time,
// each as a block of one, whose kernels run the single-rhs bodies.  A
// block's candidates live either in their fields or in the block, never
// both, so the working set beyond the candidates is one group's blocks.
// The batched kernels and solvers are bit-identical per rhs to a block of
// one at a fixed kernel config, so each candidate comes out bit-identical
// under every group size whenever the operators run pinned configs
// (set_kernel_config).  Multigrid::rebuild picks the group per level
// (mg/multigrid.cpp).

#include <cstdint>
#include <vector>

#include "fields/colorspinor.h"
#include "mg/coarse_op.h"
#include "mg/transfer.h"
#include "solvers/linear_operator.h"

namespace qmg {

struct NullSpaceParams {
  int nvec = 24;        // candidate vectors (24 or 32 in the paper's runs)
  int iters = 100;      // relaxation iterations on M x = 0 per vector
  double omega = 0.85;  // MR relaxation factor
  std::uint64_t seed = 7;
};

/// Generate `params.nvec` near-null vectors of `op` by MR relaxation on the
/// homogeneous system.  Vectors are normalized but not block-orthonormalized
/// (the Transfer does that).  Each block of candidates relaxes as one
/// masked block-MR: a candidate whose <Mr,Mr> reaches 0 is frozen there.
template <typename T>
std::vector<ColorSpinorField<T>> generate_null_vectors(
    const LinearOperator<T>& op, const NullSpaceParams& params,
    int group = 1);

/// Refresh existing candidate vectors in place: `iters` MR relaxation
/// sweeps on M x = 0 starting from each CURRENT vector instead of a random
/// start.  This is the reuse half of the hierarchy lifecycle — on a gauge
/// configuration correlated with the one the vectors were generated on,
/// they are already near-null up to the configuration drift, so a handful
/// of sweeps re-adapts them at a fraction of the from-scratch cost.
/// Vectors are re-normalized.  `group` as for generate_null_vectors.
template <typename T>
void relax_null_vectors(const LinearOperator<T>& op,
                        std::vector<ColorSpinorField<T>>& vecs, int iters,
                        double omega, int group = 1);

/// One adaptive-setup pass: v <- normalize((1 - B M) v), `iters` times per
/// candidate, where M = `op` and B is the two-grid cycle over `transfer`
/// and `coarse`: restrict, a loose GCR on the even-odd Schur system of
/// `coarse`, prolongate, then `smooth_iters` MR post-smoothing sweeps with
/// relaxation factor `omega` on `op`.  Components the coarse space already
/// captures are annihilated, leaving v rich in the error modes the method
/// cannot yet treat.  Each sweep is one block two-grid cycle per block of
/// candidates (block GCR and block MR, per-rhs masked, so a zero candidate
/// stays zero).
template <typename T>
void refine_null_vectors(const LinearOperator<T>& op,
                         const Transfer<T>& transfer,
                         const CoarseDirac<T>& coarse,
                         std::vector<ColorSpinorField<T>>& vecs, int iters,
                         int smooth_iters, double omega, int group = 1);

}  // namespace qmg
