#pragma once
// Wilson and Wilson-Clover Dirac operators (paper Eq. 2):
//
//   M = (4 + m + A_x) delta_{x,x'}
//       - 1/2 sum_mu [ (1 - gamma_mu) U_mu(x)       delta_{x+mu,x'}
//                    + (1 + gamma_mu) U_mu(x-mu)^dag delta_{x-mu,x'} ]
//
// with A the clover term (zero for plain Wilson).  The operator exposes its
// hopping and diagonal pieces separately so that red-black (Schur)
// preconditioning and Galerkin coarsening can reuse them.

#include <memory>
#include <optional>

#include "fields/cloverfield.h"
#include "fields/gaugefield.h"
#include "solvers/linear_operator.h"

namespace qmg {

template <typename T>
struct WilsonParams {
  T mass = T(0);        // bare quark mass m
  T csw = T(0);         // clover coefficient (0 = plain Wilson)
  T anisotropy = T(1);  // temporal hop scale xi (1 = isotropic)
};

/// Number of flops per lattice site of the standard Wilson hopping term
/// (the canonical figure used for GFLOPS reporting in lattice QCD).
inline constexpr double kWilsonFlopsPerSite = 1320.0;
/// Additional flops per site for the clover term.
inline constexpr double kCloverFlopsPerSite = 504.0;

template <typename T>
class SchurWilsonOp;

template <typename T>
class WilsonCloverOp : public LinearOperator<T> {
 public:
  using Field = typename LinearOperator<T>::Field;

  /// clover may be null for plain Wilson.  If `reconstruct` is R12/R8 the
  /// operator builds compressed gauge storage and reconstructs links on
  /// every access (QUDA's bandwidth-for-flops trade).
  WilsonCloverOp(const GaugeField<T>& gauge, WilsonParams<T> params,
                 const CloverField<T>* clover = nullptr,
                 Reconstruct reconstruct = Reconstruct::Full18);

  using BlockField = typename LinearOperator<T>::BlockField;

  void apply(Field& out, const Field& in) const override;
  void apply_dagger(Field& out, const Field& in) const override;
  Field create_vector() const override;
  double flops_per_apply() const override;

  /// Batched dslash: out_k = M in_k for every rhs, with each site's gauge
  /// links and clover blocks loaded once per site tile and streamed over
  /// the rhs axis of the 2D (site x rhs) dispatch index space.  Per-rhs
  /// results are bit-identical to apply() on the extracted fields.  This
  /// and the three block kernels below run a block of one (nrhs = 1)
  /// through the single-rhs body, reading its storage in place.
  void apply_block(BlockField& out, const BlockField& in) const override;

  /// Parity-restricted batched hopping (block analog of
  /// apply_hopping_parity); feeds the batched Schur complement.
  void apply_hopping_parity_block(BlockField& out, const BlockField& in,
                                  int out_parity) const;

  /// Batched diagonal and inverse diagonal.
  void apply_diag_block(BlockField& out, const BlockField& in,
                        int parity = -1) const;
  void apply_diag_inverse_block(BlockField& out, const BlockField& in,
                                int parity = -1) const;

  /// Parity-restricted hopping term  out = H in  with
  /// H = 1/2 sum_mu [(1-gamma_mu) U delta_+ + (1+gamma_mu) U^dag delta_-],
  /// so that M = diag - H: out lives on `out_parity` sites, in on the
  /// opposite parity (both checkerboard-indexed fields).
  void apply_hopping_parity(Field& out, const Field& in,
                            int out_parity) const;

  /// Diagonal term (4 + m + A) applied to a full or parity field; for a
  /// parity field, `parity` selects which sites' clover blocks to use.
  void apply_diag(Field& out, const Field& in, int parity = -1) const;

  /// Inverse diagonal (4 + m + A)^{-1}; requires the clover inverse to be
  /// precomputed (done in the constructor when clover is present).
  void apply_diag_inverse(Field& out, const Field& in, int parity = -1) const;

  /// The referenced gauge (and clover) field changed IN PLACE — the
  /// hierarchy-lifecycle contract: owners swap configurations by assigning
  /// into the same objects, so every reference this operator holds stays
  /// valid and only derived state needs recomputing.  That derived state is
  /// the compressed gauge copy (R12/R8); Full18 operators read the gauge
  /// directly and need no refresh (calling this is then a no-op).
  void refresh_gauge();

  const GaugeField<T>& gauge() const { return gauge_; }
  const CloverField<T>* clover() const { return clover_; }
  const WilsonParams<T>& params() const { return params_; }
  const GeometryPtr& geometry() const { return gauge_.geometry(); }
  Reconstruct reconstruct() const { return reconstruct_; }

 private:
  friend class SchurWilsonOp<T>;

  // The single-rhs kernel bodies, over any site-contiguous storage: a
  // field, or a block of one, which has exactly a field's layout.
  template <typename F>
  void dslash(F& out, const F& in) const;
  template <typename Out, typename In>
  void hopping_parity(Out& out, const In& in, int out_parity) const;
  template <typename Out, typename In>
  void diag(Out& out, const In& in, int parity) const;
  template <typename Out, typename In>
  void diag_inverse(Out& out, const In& in, int parity) const;
  /// fn(links) with the links the kernels read: the compressed copy when
  /// there is one, the gauge field otherwise.
  template <typename Fn>
  void with_links(Fn&& fn) const {
    if (compressed_)
      fn(*compressed_);
    else
      fn(gauge_);
  }

  const GaugeField<T>& gauge_;
  WilsonParams<T> params_;
  const CloverField<T>* clover_;
  Reconstruct reconstruct_;
  std::unique_ptr<CompressedGaugeField<T>> compressed_;
  mutable std::optional<Field> dagger_tmp_;
};

/// Even-odd (red-black) Schur complement of the Wilson-Clover operator:
///   S = A_ee - H_eo A_oo^{-1} H_oe
/// acting on even-checkerboard fields.  prepare()/reconstruct() map between
/// the full system M x = b and the Schur system (paper section 3.3).
template <typename T>
class SchurWilsonOp : public LinearOperator<T> {
 public:
  using Field = typename LinearOperator<T>::Field;

  using BlockField = typename LinearOperator<T>::BlockField;

  explicit SchurWilsonOp(const WilsonCloverOp<T>& fine);

  void apply(Field& out, const Field& in) const override;
  void apply_dagger(Field& out, const Field& in) const override;
  Field create_vector() const override;
  double flops_per_apply() const override;

  /// Batched Schur apply built from the batched parity kernels; per-rhs
  /// bit-identical to apply() on the extracted fields.  A block of one
  /// runs apply()'s body on the single-rhs temporaries.
  void apply_block(BlockField& out, const BlockField& in) const override;

  /// Block analogs of prepare()/reconstruct() for multi-rhs outer solves.
  void prepare_block(BlockField& b_hat, const BlockField& b) const;
  void reconstruct_block(BlockField& x_full, const BlockField& x_even,
                         const BlockField& b) const;

  /// b_hat = b_e + H_eo A_oo^{-1} b_o  (also returns A_oo^{-1} b_o term
  /// needs later).  b is a full field; b_hat is an even field.
  void prepare(Field& b_hat, const Field& b) const;

  /// Given the even solution x_e, reconstruct the full solution
  /// x_o = A_oo^{-1} (b_o + H_oe x_e).
  void reconstruct(Field& x_full, const Field& x_even, const Field& b) const;

  const WilsonCloverOp<T>& fine_op() const { return fine_; }

 private:
  /// apply()'s body over a field or a block of one.
  template <typename F>
  void schur(F& out, const F& in) const;

  const WilsonCloverOp<T>& fine_;
  mutable Field tmp_odd_, tmp_odd2_, tmp_even_;
  mutable std::optional<Field> dagger_tmp_;
};

}  // namespace qmg
