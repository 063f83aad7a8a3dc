#pragma once
// The coarse-operator row kernel: one output color-spin row computed with
// the fine-grained decomposition of paper section 6 (direction split, dot
// split, ILP).  The stencil bodies of mg/coarse_stencil.h call it for the
// single-process and the domain-decomposed operator alike, so both produce
// bit-identical results for the same kernel configuration.
//
// Precision is a first-class template axis (paper section 4, strategy (c)):
// the kernels are parameterized on the accumulation type Tacc, the stencil
// (matrix) storage type TM and the input-vector storage type TX.  Every
// storage element is promoted to Tacc before the multiply, so `TM = float,
// Tacc = double` reads half the stencil bytes of the all-double kernel
// while reproducing its accumulation order exactly — for Tacc == TM == TX
// the promotions are no-ops and the kernel is bit-identical to the
// historical single-precision-axis implementation.

#include <algorithm>

#include "linalg/complex.h"
#include "linalg/simd.h"
#include "parallel/strategy.h"

namespace qmg {

/// Row dot product over pre-resolved row pointers, decomposed exactly like
/// the GPU thread mapping: the 9 stencil rows are strided over `dir_split`
/// chunks (z threads), each chunk's dot products are partitioned into
/// `dot_split` contiguous ranges (warp-split threads, Listing 4) with `ilp`
/// independent accumulators (Listing 5); dot partials are combined with a
/// cascading pairwise reduction (the shfl_down tree) and chunk partials
/// with a sequential "shared-memory" reduction.  rows[m] points at row r of
/// stencil matrix m (callers resolve `mats[m] + row * n` — or a dequantized
/// scratch row for 16-bit storage — up front).
template <typename Tacc, typename TM, typename TX>
inline Complex<Tacc> coarse_row_span(const Complex<TM>* const rows[9],
                                     const Complex<TX>* const xin[9], int n,
                                     const CoarseKernelConfig& cfg) {
  const int dir_split =
      cfg.strategy >= Strategy::StencilDir ? cfg.dir_split : 1;
  const int dot_split =
      cfg.strategy >= Strategy::DotProduct ? std::min(cfg.dot_split, 8) : 1;
  const int ilp = std::min(cfg.ilp, 4);  // accumulator register budget

  Complex<Tacc> dir_partial[9];
  for (int chunk = 0; chunk < dir_split; ++chunk) {
    // Warp-split partials for this direction chunk (power-of-two padded for
    // the cascade; dot_split <= 8 in practice).
    Complex<Tacc> dot_partial[8] = {};
    for (int m = chunk; m < 9; m += dir_split) {
      const Complex<TM>* row_data = rows[m];
      const Complex<TX>* x = xin[m];
      for (int ds = 0; ds < dot_split; ++ds) {
        const int begin = static_cast<int>((static_cast<long>(n) * ds) /
                                           dot_split);
        const int end = static_cast<int>((static_cast<long>(n) * (ds + 1)) /
                                         dot_split);
        // ILP: independent accumulators over the strip (Listing 5).
        Complex<Tacc> acc[4] = {};
        int i = begin;
        for (; i + ilp <= end; i += ilp)
          for (int j = 0; j < ilp; ++j)
            acc[j] += Complex<Tacc>(row_data[i + j]) * Complex<Tacc>(x[i + j]);
        for (; i < end; ++i)
          acc[0] += Complex<Tacc>(row_data[i]) * Complex<Tacc>(x[i]);
        Complex<Tacc> strip{};
        for (int j = 0; j < ilp; ++j) strip += acc[j];
        dot_partial[ds] += strip;
      }
    }
    // Cascading reduction over the warp-split partials (Listing 4); start
    // from the next power of two so non-power-of-two splits also fold in.
    int span = 1;
    while (span < dot_split) span <<= 1;
    for (int offset = span / 2; offset >= 1; offset /= 2)
      for (int i = 0; i < offset && i + offset < 8; ++i)
        dot_partial[i] += dot_partial[i + offset];
    dir_partial[chunk] = dot_partial[0];
  }
  // Shared-memory reduction over direction chunks (section 6.3, step 4).
  Complex<Tacc> total{};
  for (int chunk = 0; chunk < dir_split; ++chunk)
    total += dir_partial[chunk];
  return total;
}

/// Uniform-precision row kernel over block-base pointers (the historical
/// signature): resolves the row pointers and runs coarse_row_span with
/// Tacc = TM = TX = T.  Bit-identical to the pre-split implementation.
template <typename T>
inline Complex<T> coarse_row(const Complex<T>* const mats[9],
                             const Complex<T>* const xin[9], int row, int n,
                             const CoarseKernelConfig& cfg) {
  const Complex<T>* rows[9];
  for (int m = 0; m < 9; ++m)
    rows[m] = mats[m] + static_cast<size_t>(row) * n;
  return coarse_row_span<T, T, T>(rows, xin, n, cfg);
}

/// Widest rhs tile coarse_row_mrhs_span processes per call (register/stack
/// budget); callers sub-tile wider batches.
inline constexpr int kCoarseRowMaxTile = 16;

/// Multi-right-hand-side variant of coarse_row_span (paper section 9):
/// computes `tile` <= kCoarseRowMaxTile systems at once with the rhs axis
/// innermost.  xin[m] points at the first rhs of neighbor m's site vector
/// in an rhs-contiguous BlockSpinor; element (c, k) lives at
/// xin[m][c*stride+k], so the inner rhs loop is unit stride (the
/// coalesced/vectorizable axis) and every stencil matrix element is read
/// ONCE for all rhs of the tile.  For each rhs the accumulation sequence —
/// direction chunks, warp-split partials, ILP strips, cascade — is exactly
/// coarse_row_span's, so per-rhs results are bit-identical to the
/// single-rhs kernel at the same precision axes.
template <typename Tacc, typename TM, typename TX>
inline void coarse_row_mrhs_span(const Complex<TM>* const rows[9],
                                 const Complex<TX>* const xin[9], long stride,
                                 int n, const CoarseKernelConfig& cfg,
                                 int tile, Complex<Tacc>* out) {
  const int dir_split =
      cfg.strategy >= Strategy::StencilDir ? cfg.dir_split : 1;
  const int dot_split =
      cfg.strategy >= Strategy::DotProduct ? std::min(cfg.dot_split, 8) : 1;
  const int ilp = std::min(cfg.ilp, 4);  // accumulator register budget

  Complex<Tacc> dir_partial[9][kCoarseRowMaxTile];
  for (int chunk = 0; chunk < dir_split; ++chunk) {
    Complex<Tacc> dot_partial[8][kCoarseRowMaxTile] = {};
    for (int m = chunk; m < 9; m += dir_split) {
      const Complex<TM>* row_data = rows[m];
      const Complex<TX>* x = xin[m];
      for (int ds = 0; ds < dot_split; ++ds) {
        const int begin = static_cast<int>((static_cast<long>(n) * ds) /
                                           dot_split);
        const int end = static_cast<int>((static_cast<long>(n) * (ds + 1)) /
                                         dot_split);
        Complex<Tacc> acc[4][kCoarseRowMaxTile] = {};
        int i = begin;
        for (; i + ilp <= end; i += ilp)
          for (int j = 0; j < ilp; ++j) {
            const Complex<Tacc> a(row_data[i + j]);
            const Complex<TX>* xk = x + static_cast<long>(i + j) * stride;
            for (int k = 0; k < tile; ++k)
              acc[j][k] += a * Complex<Tacc>(xk[k]);
          }
        for (; i < end; ++i) {
          const Complex<Tacc> a(row_data[i]);
          const Complex<TX>* xk = x + static_cast<long>(i) * stride;
          for (int k = 0; k < tile; ++k)
            acc[0][k] += a * Complex<Tacc>(xk[k]);
        }
        Complex<Tacc> strip[kCoarseRowMaxTile] = {};
        for (int j = 0; j < ilp; ++j)
          for (int k = 0; k < tile; ++k) strip[k] += acc[j][k];
        for (int k = 0; k < tile; ++k) dot_partial[ds][k] += strip[k];
      }
    }
    int span = 1;
    while (span < dot_split) span <<= 1;
    for (int offset = span / 2; offset >= 1; offset /= 2)
      for (int i = 0; i < offset && i + offset < 8; ++i)
        for (int k = 0; k < tile; ++k)
          dot_partial[i][k] += dot_partial[i + offset][k];
    for (int k = 0; k < tile; ++k) dir_partial[chunk][k] = dot_partial[0][k];
  }
  for (int k = 0; k < tile; ++k) {
    Complex<Tacc> total{};
    for (int chunk = 0; chunk < dir_split; ++chunk)
      total += dir_partial[chunk][k];
    out[k] = total;
  }
}

/// SIMD-lane variant of coarse_row_mrhs_span: GROUPS W-lane packs of
/// consecutive rhs instead of a scalar tile (GROUPS*W <= kCoarseRowMaxTile
/// lanes total).  Lane k evaluates exactly the scalar per-rhs tree — loads
/// promote each storage element to Tacc before the multiply
/// (cpack::load_from mirrors Complex<Tacc>(xk[k])), the stencil element is
/// broadcast across lanes, and the dir/dot/ILP/cascade accumulation
/// sequence is unchanged — so per-rhs results are bit-identical to
/// coarse_row_mrhs_span at the same precision axes.  The group axis lives
/// INSIDE the column loop for the same reason the span kernel carries a
/// tile: the kernel is bandwidth-bound on the stencil rows, so each row
/// element must be read once for the whole rhs tile, not once per pack.
/// The group count is a TEMPLATE parameter, not a runtime argument: with a
/// compile-time trip every lane loop unrolls into straight-line pack code,
/// which measured ~1.2-1.6x over the runtime-trip form (the split/ilp
/// config stays runtime, so the win is purely the lane-loop trips; callers
/// dispatch via coarse_row_mrhs_pack_groups below).  Works unchanged for
/// both scratch-row layouts (dense zero-copy rows and Half16 dequantized
/// scratch): rows[m] is a resolved Complex<TM> row either way.
template <typename Tacc, typename TM, typename TX, int W, int GROUPS>
inline void coarse_row_mrhs_pack(const Complex<TM>* const rows[9],
                                 const Complex<TX>* const xin[9], long stride,
                                 int n, const CoarseKernelConfig& cfg,
                                 Complex<Tacc>* out) {
  using V = simd::cpack<Tacc, W>;
  // GROUPS * W lanes never exceed the span kernel's tile, so the stack
  // accumulator budget is the same kCoarseRowMaxTile lanes regardless of W.
  static_assert(GROUPS >= 1 && GROUPS * W <= kCoarseRowMaxTile,
                "lane tile exceeds the row kernel's accumulator budget");
  const int dir_split =
      cfg.strategy >= Strategy::StencilDir ? cfg.dir_split : 1;
  const int dot_split =
      cfg.strategy >= Strategy::DotProduct ? std::min(cfg.dot_split, 8) : 1;
  const int ilp = std::min(cfg.ilp, 4);  // accumulator register budget

  V dir_partial[9][GROUPS];
  for (int chunk = 0; chunk < dir_split; ++chunk) {
    V dot_partial[8][GROUPS] = {};
    for (int m = chunk; m < 9; m += dir_split) {
      const Complex<TM>* row_data = rows[m];
      const Complex<TX>* x = xin[m];
      for (int ds = 0; ds < dot_split; ++ds) {
        const int begin = static_cast<int>((static_cast<long>(n) * ds) /
                                           dot_split);
        const int end = static_cast<int>((static_cast<long>(n) * (ds + 1)) /
                                         dot_split);
        V acc[4][GROUPS] = {};
        int i = begin;
        for (; i + ilp <= end; i += ilp)
          for (int j = 0; j < ilp; ++j) {
            const Complex<Tacc> a(row_data[i + j]);
            const Complex<TX>* xk = x + static_cast<long>(i + j) * stride;
            for (int g = 0; g < GROUPS; ++g)
              acc[j][g] += a * V::load_from(xk + g * W);
          }
        for (; i < end; ++i) {
          const Complex<Tacc> a(row_data[i]);
          const Complex<TX>* xk = x + static_cast<long>(i) * stride;
          for (int g = 0; g < GROUPS; ++g)
            acc[0][g] += a * V::load_from(xk + g * W);
        }
        V strip[GROUPS] = {};
        for (int j = 0; j < ilp; ++j)
          for (int g = 0; g < GROUPS; ++g) strip[g] += acc[j][g];
        for (int g = 0; g < GROUPS; ++g) dot_partial[ds][g] += strip[g];
      }
    }
    int span = 1;
    while (span < dot_split) span <<= 1;
    for (int offset = span / 2; offset >= 1; offset /= 2)
      for (int i = 0; i < offset && i + offset < 8; ++i)
        for (int g = 0; g < GROUPS; ++g)
          dot_partial[i][g] += dot_partial[i + offset][g];
    for (int g = 0; g < GROUPS; ++g)
      dir_partial[chunk][g] = dot_partial[0][g];
  }
  for (int g = 0; g < GROUPS; ++g) {
    V total{};
    for (int chunk = 0; chunk < dir_split; ++chunk)
      total += dir_partial[chunk][g];
    total.store(out + g * W);
  }
}

/// Runtime -> compile-time group-count dispatch for the pack kernel: an
/// if-chain from the largest group count that fits the row tile down to 1
/// (at most kCoarseRowMaxTile / W compares, trivial next to one row's
/// arithmetic).  groups outside [1, kCoarseRowMaxTile / W] is a caller bug
/// and falls through to a no-op.
template <typename Tacc, typename TM, typename TX, int W,
          int G = kCoarseRowMaxTile / W>
inline void coarse_row_mrhs_pack_groups(const Complex<TM>* const rows[9],
                                        const Complex<TX>* const xin[9],
                                        long stride, int n,
                                        const CoarseKernelConfig& cfg,
                                        int groups, Complex<Tacc>* out) {
  static_assert(G >= 1, "group dispatch needs at least one candidate");
  if (groups == G) {
    coarse_row_mrhs_pack<Tacc, TM, TX, W, G>(rows, xin, stride, n, cfg, out);
    return;
  }
  if constexpr (G > 1)
    coarse_row_mrhs_pack_groups<Tacc, TM, TX, W, G - 1>(rows, xin, stride, n,
                                                        cfg, groups, out);
}

}  // namespace qmg
