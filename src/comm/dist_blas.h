#pragma once
// Global reductions over distributed fields: each virtual rank reduces its
// local field, then the partials are combined — the structure of an
// MPI_Allreduce, whose log(N) latency is what dominates the coarsest-grid
// solve at scale (paper section 7.2, Fig. 4 discussion).  Each call is
// metered as ONE allreduce in CommStats — however many per-rhs or per-basis
// partials it fuses — plus its wire payload in doubles and the wall time of
// the combine, so reductions-per-matvec is a first-class measured number
// next to messages-per-cycle.
//
// Note the rank-partial summation order differs from a single-process
// reduction over the global field, so results agree only to floating-point
// reassociation tolerance — the same property a real MPI job has.
//
// The second half of this header is the single-rank (replicated-field) form
// of the same synchronization points.  The solver-facing distributed
// adapters (DistributedBlockCoarseOp and friends) gather their output back
// to global fields, so the Krylov solvers above them reduce on replicated
// storage — but in a real multi-rank job every one of those reductions is
// still one allreduce.  The replicated overloads ARE those sync points:
// arithmetic is exactly blas::block_* (deterministic chunk tree, so the
// solver stays bit-identical to an unmetered run and to the distributed
// execution of the same cycle), while CommStats meters the sync and its
// payload exactly like the rank-partial forms.

#include <stdexcept>
#include <vector>

#include "comm/dist_spinor.h"
#include "fields/blas.h"
#include "util/timer.h"

namespace qmg {
namespace dist {

template <typename T>
double norm2(const DistributedSpinor<T>& a, CommStats* stats = nullptr) {
  Timer t;
  double total = 0;
  for (int r = 0; r < a.nranks(); ++r) total += blas::norm2(a.local(r));
  if (stats) stats->count_allreduce(1, t.seconds());
  return total;
}

template <typename T>
complexd cdot(const DistributedSpinor<T>& a, const DistributedSpinor<T>& b,
              CommStats* stats = nullptr) {
  Timer t;
  complexd total{};
  for (int r = 0; r < a.nranks(); ++r)
    total += blas::cdot(a.local(r), b.local(r));
  if (stats) stats->count_allreduce(2, t.seconds());
  return total;
}

template <typename T>
void axpy(T alpha, const DistributedSpinor<T>& x, DistributedSpinor<T>& y) {
  for (int r = 0; r < x.nranks(); ++r)
    blas::axpy(alpha, x.local(r), y.local(r));
}

template <typename T>
void zero(DistributedSpinor<T>& x) {
  for (int r = 0; r < x.nranks(); ++r) blas::zero(x.local(r));
}

// --- Multi-rhs reductions over distributed blocks ---------------------------
//
// One allreduce per *call*, not per rhs: all N per-rhs partials travel in a
// single (virtual) MPI_Allreduce of an N-vector, the same amortization of
// the log(P) latency that the batched halo exchange applies to face
// messages.  Rank partials are combined in ascending rank order per rhs.

template <typename T>
std::vector<double> block_norm2(const DistributedBlockSpinor<T>& a,
                                CommStats* stats = nullptr) {
  Timer t;
  std::vector<double> total(static_cast<size_t>(a.nrhs()), 0.0);
  for (int r = 0; r < a.nranks(); ++r) {
    const auto part = blas::block_norm2(a.local(r));
    for (int k = 0; k < a.nrhs(); ++k)
      total[static_cast<size_t>(k)] += part[static_cast<size_t>(k)];
  }
  if (stats) stats->count_allreduce(a.nrhs(), t.seconds());
  return total;
}

template <typename T>
std::vector<complexd> block_cdot(const DistributedBlockSpinor<T>& a,
                                 const DistributedBlockSpinor<T>& b,
                                 CommStats* stats = nullptr) {
  // The per-rank reduction's only guard is an assert that vanishes in
  // Release; validate up front like the distributed apply_blocks do.
  if (a.nrhs() != b.nrhs() || a.site_dof() != b.site_dof() ||
      a.decomposition() != b.decomposition())
    throw std::invalid_argument("dist block_cdot: block shape mismatch");
  Timer t;
  std::vector<complexd> total(static_cast<size_t>(a.nrhs()), complexd{});
  for (int r = 0; r < a.nranks(); ++r) {
    const auto part = blas::block_cdot(a.local(r), b.local(r));
    for (int k = 0; k < a.nrhs(); ++k)
      total[static_cast<size_t>(k)] += part[static_cast<size_t>(k)];
  }
  if (stats) stats->count_allreduce(2L * a.nrhs(), t.seconds());
  return total;
}

// --- Fused s-step Gram reduction (CA-GMRES, paper section 9) ----------------

/// The result of one fused s-step Gram sync: for every rhs k the s x s
/// Gram matrix G_k(i,j) = <w_i, w_j>_k over the basis images w_0..w_{s-1}
/// and the s projections g_k(i) = <w_i, r>_k — everything the s-step LS
/// solve needs, i.e. the coefficients of s matvecs from ONE reduction.
///
/// Wire format: the (s^2 + s) * nrhs complex partials are one flat buffer
/// (rhs-major, G rows then projections), summed element-wise across ranks —
/// a single virtual MPI_Allreduce of 2*(s^2+s)*nrhs doubles, against the
/// ~2*nrhs doubles of each of the ~2s syncs a standard block GCR pays for
/// the same s matvecs.  Payload grows s^2-fold but latency, not bandwidth,
/// is the coarse-grid cost (Fig. 4), so the trade wins at scale.
struct BlockGramResult {
  int s = 0;
  int nrhs = 0;
  std::vector<complexd> gram;  // [k*s*s + i*s + j] = <w_i, w_j>_k
  std::vector<complexd> proj;  // [k*s + i]         = <w_i, r>_k

  BlockGramResult() = default;
  BlockGramResult(int s_in, int nrhs_in)
      : s(s_in),
        nrhs(nrhs_in),
        gram(static_cast<size_t>(s_in) * s_in * nrhs_in, complexd{}),
        proj(static_cast<size_t>(s_in) * nrhs_in, complexd{}) {}

  complexd& g(int k, int i, int j) {
    return gram[(static_cast<size_t>(k) * s + i) * s + j];
  }
  const complexd& g(int k, int i, int j) const {
    return gram[(static_cast<size_t>(k) * s + i) * s + j];
  }
  complexd& p(int k, int i) { return proj[static_cast<size_t>(k) * s + i]; }
  const complexd& p(int k, int i) const {
    return proj[static_cast<size_t>(k) * s + i];
  }
  long payload_doubles() const { return 2L * (s * s + s) * nrhs; }
};

/// Fused block Gram over distributed basis blocks: per-rank blas partials
/// for every (i, j, k) and (i, k) entry, combined in ascending rank order —
/// all of them metered as ONE allreduce.  `w` holds the s basis-image
/// blocks (all sharing r's decomposition and rhs count).
template <typename T>
BlockGramResult block_gram(
    const std::vector<const DistributedBlockSpinor<T>*>& w,
    const DistributedBlockSpinor<T>& r, CommStats* stats = nullptr) {
  const int s = static_cast<int>(w.size());
  const int nrhs = r.nrhs();
  for (const auto* wi : w) {
    if (wi->nrhs() != nrhs || wi->site_dof() != r.site_dof() ||
        wi->decomposition() != r.decomposition())
      throw std::invalid_argument("dist block_gram: basis shape mismatch");
  }
  Timer t;
  BlockGramResult out(s, nrhs);
  for (int rank = 0; rank < r.nranks(); ++rank) {
    for (int i = 0; i < s; ++i) {
      for (int j = 0; j < s; ++j) {
        const auto part = blas::block_cdot(w[static_cast<size_t>(i)]->local(rank),
                                           w[static_cast<size_t>(j)]->local(rank));
        for (int k = 0; k < nrhs; ++k)
          out.g(k, i, j) += part[static_cast<size_t>(k)];
      }
      const auto part =
          blas::block_cdot(w[static_cast<size_t>(i)]->local(rank), r.local(rank));
      for (int k = 0; k < nrhs; ++k) out.p(k, i) += part[static_cast<size_t>(k)];
    }
  }
  if (stats) stats->count_allreduce(out.payload_doubles(), t.seconds());
  return out;
}

// --- Replicated-field synchronization points --------------------------------

/// One fused |x_k|^2 sync on a gathered global block (see header comment).
template <typename T>
std::vector<double> block_norm2(const BlockSpinor<T>& a, CommStats* stats,
                                const LaunchPolicy& policy) {
  Timer t;
  auto out = blas::block_norm2(a, policy);
  if (stats) stats->count_allreduce(a.nrhs(), t.seconds());
  return out;
}

template <typename T>
std::vector<double> block_norm2(const BlockSpinor<T>& a, CommStats* stats) {
  return block_norm2(a, stats, blas::detail::policy_for(Location::Host));
}

/// One fused <x_k, y_k> sync on gathered global blocks.
template <typename T>
std::vector<complexd> block_cdot(const BlockSpinor<T>& a,
                                 const BlockSpinor<T>& b, CommStats* stats,
                                 const LaunchPolicy& policy) {
  Timer t;
  auto out = blas::block_cdot(a, b, policy);
  if (stats) stats->count_allreduce(2L * a.nrhs(), t.seconds());
  return out;
}

template <typename T>
std::vector<complexd> block_cdot(const BlockSpinor<T>& a,
                                 const BlockSpinor<T>& b, CommStats* stats) {
  return block_cdot(a, b, stats, blas::detail::policy_for(Location::Host));
}

/// The fused s-step Gram sync on gathered global blocks — what
/// BlockCaGmresSolver calls: one sync per s matvecs, deterministic blas
/// arithmetic (so the distributed and replicated executions of the solver
/// are bit-identical), metered with the identical payload as the
/// rank-partial form above.
template <typename T>
BlockGramResult block_gram(const std::vector<const BlockSpinor<T>*>& w,
                           const BlockSpinor<T>& r, CommStats* stats = nullptr,
                           const LaunchPolicy& policy =
                               blas::detail::policy_for(Location::Host)) {
  const int s = static_cast<int>(w.size());
  const int nrhs = r.nrhs();
  Timer t;
  BlockGramResult out(s, nrhs);
  for (int i = 0; i < s; ++i) {
    for (int j = 0; j < s; ++j) {
      const auto d =
          blas::block_cdot(*w[static_cast<size_t>(i)],
                           *w[static_cast<size_t>(j)], policy);
      for (int k = 0; k < nrhs; ++k) out.g(k, i, j) = d[static_cast<size_t>(k)];
    }
    const auto d = blas::block_cdot(*w[static_cast<size_t>(i)], r, policy);
    for (int k = 0; k < nrhs; ++k) out.p(k, i) = d[static_cast<size_t>(k)];
  }
  if (stats) stats->count_allreduce(out.payload_doubles(), t.seconds());
  return out;
}

// --- Fused pipelined-GCR reduction ------------------------------------------

/// The complete per-iteration reduction of the pipelined block GCR, fused
/// into one sync: against the current orthonormal history w_0..w_{h-1},
///   c_k(j)  = <w_j, v>_k     (orthogonalization coefficients of the raw
///                             new image v),
///   pw_k(j) = <w_j, r>_k     (residual projections, finite-precision
///                             correction terms),
///   pv_k    = <v, r>_k,
///   v2_k    = |v|^2_k,  r2_k = |r|^2_k
/// — a single virtual MPI_Allreduce of (4h + 5) * nrhs doubles.  This is
/// the sync the solver posts on the reduction comm worker and overlaps
/// with the next matvec.
struct BlockPipelineDots {
  int nhist = 0;
  int nrhs = 0;
  std::vector<complexd> c;   // [j*nrhs + k] = <w_j, v>_k
  std::vector<complexd> pw;  // [j*nrhs + k] = <w_j, r>_k
  std::vector<complexd> pv;  // [k]          = <v, r>_k
  std::vector<double> v2;    // [k]          = |v|^2_k
  std::vector<double> r2;    // [k]          = |r|^2_k
  /// Wall time of the combine: the interval CommStats::count_allreduce
  /// charged, so an overlapped caller meters its hidden share against the
  /// same interval.
  double seconds = 0;

  long payload_doubles() const { return (4L * nhist + 5L) * nrhs; }
};

/// Compute the fused pipelined-GCR dots under an explicit policy.  Pass
/// comm_worker_policy() when posting on a comm worker (the pool is busy
/// with the overlapped matvec); the deterministic reductions make the
/// result bit-identical to any other policy, so the synchronous reference
/// execution calls this very function inline with the same policy.
template <typename T>
BlockPipelineDots block_pipeline_dots(
    const std::vector<const BlockSpinor<T>*>& w, const BlockSpinor<T>& v,
    const BlockSpinor<T>& r, CommStats* stats, const LaunchPolicy& policy) {
  Timer t;
  BlockPipelineDots out;
  out.nhist = static_cast<int>(w.size());
  out.nrhs = v.nrhs();
  out.c.resize(static_cast<size_t>(out.nhist) * out.nrhs);
  out.pw.resize(static_cast<size_t>(out.nhist) * out.nrhs);
  for (int j = 0; j < out.nhist; ++j) {
    const auto cj = blas::block_cdot(*w[static_cast<size_t>(j)], v, policy);
    const auto pj = blas::block_cdot(*w[static_cast<size_t>(j)], r, policy);
    for (int k = 0; k < out.nrhs; ++k) {
      out.c[static_cast<size_t>(j) * out.nrhs + k] = cj[static_cast<size_t>(k)];
      out.pw[static_cast<size_t>(j) * out.nrhs + k] =
          pj[static_cast<size_t>(k)];
    }
  }
  out.pv = blas::block_cdot(v, r, policy);
  out.v2 = blas::block_norm2(v, policy);
  out.r2 = blas::block_norm2(r, policy);
  out.seconds = t.seconds();
  if (stats) stats->count_allreduce(out.payload_doubles(), out.seconds);
  return out;
}

}  // namespace dist
}  // namespace qmg
