#pragma once
// Field BLAS, written in the single-code-path style of paper Listing 1:
// each operation is a small per-element body ("__device__ __host__"
// function) launched through the unified dispatch layer
// (parallel/dispatch.h).  Dispatch follows the field's Location: Device
// fields route through the SimtModel backend (simulated CUDA launch
// order, recorded in SimtStats), Host fields through the process default
// policy (Threaded unless retuned).
//
// When the active policy requests SIMD lanes, the hot kernels run
// width-aware paths built on the linalg/simd.h packs.  The block ops ask
// rhs_lane_width (native lanes of their precision under Threaded and Simd
// by default); the single-rhs ops ask effective_simd_width (Backend::Simd,
// or Threaded with an explicit simd_width > 1), both in
// parallel/dispatch.h:
//
//   single-rhs streaming ops  — W-aligned site ranges: the op's scalar
//       loop runs inline over each range (ONE lanes_for_each range call
//       per thread partition), with a scalar tail for n % W.  Measured
//       against explicit packs, the SoA deinterleave (and the defeated SLP
//       of a hand-written interleaved form) made pack temporaries SLOWER
//       than the autovectorized scalar tree on these pure streaming loops;
//       and routing the same scalar body through a per-group callback cost
//       ~2x again (the vectorizer's alias versioning does not survive a
//       call boundary per W elements).  The inline range loop matches the
//       raw loop exactly — and bit-identity is trivial, since the body IS
//       the scalar expression.
//   single-rhs reductions     — chunk lanes: the fixed reduction chunks of
//       parallel_reduce advance in lockstep, one chunk per lane, so every
//       chunk partial is still its plain ascending-i sum and the combined
//       value is bit-identical across backends, widths and thread counts.
//   block (multi-rhs) updates — the per-(i, k) rhs_active mask test is
//       what keeps the scalar block walk ~2x off the single-rhs ops (it
//       blocks vectorization of the unit-stride rhs axis), so the width
//       path hoists the mask ONCE into maximal [kb, ke) runs of active rhs
//       and streams each run with a dense inner loop.  Per-rhs arithmetic
//       is untouched, so per-rhs bit-identity is by construction.
//   block (multi-rhs) reductions — rhs-axis lanes: W consecutive rhs per
//       cpack (the unit-stride BlockSpinor axis) with per-rhs register
//       accumulators; per-rhs accumulation order is unchanged.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "fields/blockspinor.h"
#include "fields/colorspinor.h"
#include "linalg/simd.h"
#include "parallel/dispatch.h"

namespace qmg {
namespace blas {

namespace detail {

/// Launch policy for a field's location.  Streaming BLAS bodies are cheap,
/// so the Threaded path only engages above a grain worth waking the pool.
inline LaunchPolicy policy_for(Location loc) {
  if (loc == Location::Device) {
    LaunchPolicy p;
    p.backend = Backend::SimtModel;
    return p;
  }
  LaunchPolicy p = default_policy();
  if (p.grain < 1024) p.grain = 1024;
  return p;
}

/// Run `body(i)` for i in [0, n) on the field's location.
template <typename Body>
void for_each(Location loc, long n, Body&& body) {
  parallel_for(n, policy_for(loc), body);
}

/// Site-axis range driver for the streaming ops: range_body(b, e) handles
/// elements [b, e) with W-aligned bounds, scalar_body(i) one element of
/// the n % W tail.  range_body is called ONCE per thread partition (once
/// total off the pool), so the op's element loop lives inline in its own
/// lambda — measured, the identical loop issued through a callback per
/// W-element group ran ~2x slower, because the vectorizer's runtime alias
/// versioning does not survive a call boundary that tight.  The Threaded
/// engage test is the same element-count threshold parallel_for applies.
template <int W, typename RangeBody, typename ScalarBody>
void lanes_for_each(long n, const LaunchPolicy& policy, RangeBody&& range_body,
                    ScalarBody&& scalar_body) {
  const long groups = n / W;
  if (policy.backend == Backend::Threaded) {
    ThreadPool& pool = ThreadPool::instance();
    const int nt = pool.num_threads();
    if (nt > 1 && !ThreadPool::in_parallel_region() &&
        n >= nt * std::max<long>(1, policy.grain)) {
      pool.run([&](int t) {
        const long gb = groups * t / nt;
        const long ge = groups * (t + 1) / nt;
        if (gb < ge) range_body(gb * W, ge * W);
      });
      for (long i = groups * W; i < n; ++i) scalar_body(i);
      return;
    }
  }
  if (groups > 0) range_body(0, groups * W);
  for (long i = groups * W; i < n; ++i) scalar_body(i);
}

/// Chunk-group loop of the reductions: iterates `ngroups` groups of
/// reduction chunks (W consecutive chunks for the single-rhs width paths,
/// one chunk for the block reductions) with the threading decision made on
/// n, the element count per rhs.  That is parallel_reduce's decision and
/// the one the block updates make (block_runs_for), so Threaded engages on
/// the problem size, never on the <= 64 chunks a grain >= 1024 would
/// always keep serial.  SimtModel still records its launch.
template <typename Fn>
void chunk_group_for(long n, long ngroups, const LaunchPolicy& policy,
                     Fn&& fn) {
  if (policy.backend == Backend::Threaded) {
    ThreadPool& pool = ThreadPool::instance();
    const int nt = pool.num_threads();
    if (nt > 1 && !ThreadPool::in_parallel_region() &&
        n >= nt * std::max<long>(1, policy.grain)) {
      pool.run([&](int w) {
        const long gb = ngroups * w / nt;
        const long ge = ngroups * (w + 1) / nt;
        for (long g = gb; g < ge; ++g) fn(g);
      });
      return;
    }
  }
  if (policy.backend == Backend::SimtModel) {
    parallel_for(ngroups, policy, fn);
    return;
  }
  for (long g = 0; g < ngroups; ++g) fn(g);
}

/// The fixed pairwise combine tree of parallel_reduce, over a partials
/// array (possibly strided per rhs: partials[c*stride + k]).
template <typename V>
void combine_tree(std::vector<V>& partials, long nchunks, int stride) {
  for (long span = 1; span < nchunks; span *= 2)
    for (long i = 0; i + span < nchunks; i += 2 * span)
      for (int k = 0; k < stride; ++k)
        partials[static_cast<size_t>(i * stride + k)] +=
            partials[static_cast<size_t>((i + span) * stride + k)];
}

/// norm2 with chunk lanes: chunk c0+j accumulates in lane j; every chunk
/// partial is its plain ascending-i sum, so the result is bit-identical to
/// parallel_reduce<double> over qmg::norm2(x[i]) at any width.
template <typename T>
double norm2_w(const LaunchPolicy& policy, int w, const Complex<T>* x,
               long n) {
  if (n <= 0) return 0.0;
  const long nchunks = qmg::detail::reduce_chunks(n);
  std::vector<double> partials(static_cast<size_t>(nchunks), 0.0);
  simd::dispatch_width(w, [&](auto wc) {
    constexpr int W = decltype(wc)::value;
    const long ngroups = (nchunks + W - 1) / W;
    chunk_group_for(n, ngroups, policy, [&](long g) {
      const long c0 = g * W;
      const int lanes = static_cast<int>(std::min<long>(W, nchunks - c0));
      // Zero-init: lanes >= 1 always holds, but the tail elements are
      // otherwise uninitialized and -Wmaybe-uninitialized cannot prove the
      // lanes bound.
      long idx[W] = {}, end[W] = {};
      for (int j = 0; j < lanes; ++j) {
        idx[j] = n * (c0 + j) / nchunks;
        end[j] = n * (c0 + j + 1) / nchunks;
      }
      long steps = end[0] - idx[0];
      for (int j = 1; j < lanes; ++j)
        steps = std::min(steps, end[j] - idx[j]);
      double acc[W] = {};
      for (long t = 0; t < steps; ++t)
        for (int j = 0; j < lanes; ++j)
          acc[j] += static_cast<double>(qmg::norm2(x[idx[j] + t]));
      for (int j = 0; j < lanes; ++j) {
        for (long i = idx[j] + steps; i < end[j]; ++i)
          acc[j] += static_cast<double>(qmg::norm2(x[i]));
        partials[static_cast<size_t>(c0 + j)] = acc[j];
      }
    });
  });
  combine_tree(partials, nchunks, 1);
  return partials[0];
}

/// cdot with chunk lanes (see norm2_w).
template <typename T>
complexd cdot_w(const LaunchPolicy& policy, int w, const Complex<T>* x,
                const Complex<T>* y, long n) {
  if (n <= 0) return complexd{};
  const long nchunks = qmg::detail::reduce_chunks(n);
  std::vector<complexd> partials(static_cast<size_t>(nchunks), complexd{});
  simd::dispatch_width(w, [&](auto wc) {
    constexpr int W = decltype(wc)::value;
    const long ngroups = (nchunks + W - 1) / W;
    chunk_group_for(n, ngroups, policy, [&](long g) {
      const long c0 = g * W;
      const int lanes = static_cast<int>(std::min<long>(W, nchunks - c0));
      // Zero-init: lanes >= 1 always holds, but the tail elements are
      // otherwise uninitialized and -Wmaybe-uninitialized cannot prove the
      // lanes bound.
      long idx[W] = {}, end[W] = {};
      for (int j = 0; j < lanes; ++j) {
        idx[j] = n * (c0 + j) / nchunks;
        end[j] = n * (c0 + j + 1) / nchunks;
      }
      long steps = end[0] - idx[0];
      for (int j = 1; j < lanes; ++j)
        steps = std::min(steps, end[j] - idx[j]);
      double acc_re[W] = {}, acc_im[W] = {};
      for (long t = 0; t < steps; ++t)
        for (int j = 0; j < lanes; ++j) {
          const auto d = conj_mul(x[idx[j] + t], y[idx[j] + t]);
          acc_re[j] += static_cast<double>(d.re);
          acc_im[j] += static_cast<double>(d.im);
        }
      for (int j = 0; j < lanes; ++j) {
        for (long i = idx[j] + steps; i < end[j]; ++i) {
          const auto d = conj_mul(x[i], y[i]);
          acc_re[j] += static_cast<double>(d.re);
          acc_im[j] += static_cast<double>(d.im);
        }
        partials[static_cast<size_t>(c0 + j)] = complexd{acc_re[j], acc_im[j]};
      }
    });
  });
  combine_tree(partials, nchunks, 1);
  return partials[0];
}

/// Streaming-op driver: body(i) updates element i of raw storage, i in
/// [0, n).  Under a width policy the elements run in W-aligned ranges whose
/// loop inlines body (lanes_for_each); otherwise one parallel_for.
template <typename Body>
void stream(const LaunchPolicy& p, long n, Body&& body) {
  const int w = effective_simd_width(p);
  if (w > 1) {
    simd::dispatch_width(w, [&](auto wc) {
      constexpr int W = decltype(wc)::value;
      lanes_for_each<W>(
          n, p,
          [&](long b, long e) {
            for (long i = b; i < e; ++i) body(i);
          },
          body);
    });
    return;
  }
  parallel_for(n, p, body);
}

// The single-rhs ops on raw storage of n elements.  The field ops below
// and the nrhs = 1 case of the block ops (a block of one has exactly a
// field's layout) both run these bodies.

template <typename T>
void copy_n(const LaunchPolicy& p, long n, const Complex<T>* x,
            Complex<T>* y) {
  stream(p, n, [=](long i) { y[i] = x[i]; });
}

template <typename T, typename A>
void axpy_n(const LaunchPolicy& p, long n, A a, const Complex<T>* x,
            Complex<T>* y) {
  stream(p, n, [=](long i) { y[i] += a * x[i]; });
}

template <typename T, typename A>
void xpay_n(const LaunchPolicy& p, long n, const Complex<T>* x, A a,
            Complex<T>* y) {
  stream(p, n, [=](long i) { y[i] = x[i] + a * y[i]; });
}

template <typename T>
void scale_n(const LaunchPolicy& p, long n, T a, Complex<T>* x) {
  stream(p, n, [=](long i) { x[i] *= a; });
}

template <typename T>
double norm2_n(const LaunchPolicy& p, long n, const Complex<T>* x) {
  const int w = effective_simd_width(p);
  if (w > 1) return norm2_w(p, w, x, n);
  return parallel_reduce<double>(n, p,
                                 [=](long i) { return qmg::norm2(x[i]); });
}

template <typename T>
complexd cdot_n(const LaunchPolicy& p, long n, const Complex<T>* x,
                const Complex<T>* y) {
  const int w = effective_simd_width(p);
  if (w > 1) return cdot_w(p, w, x, y, n);
  return parallel_reduce<complexd>(n, p, [=](long i) {
    const auto d = conj_mul(x[i], y[i]);
    return complexd{d.re, d.im};
  });
}

}  // namespace detail

template <typename T>
void zero(ColorSpinorField<T>& x) {
  detail::for_each(x.location(), x.size(),
                   [&](long i) { x.data()[i] = Complex<T>{}; });
}

template <typename T>
void copy(ColorSpinorField<T>& y, const ColorSpinorField<T>& x) {
  assert(y.size() == x.size());
  detail::copy_n(detail::policy_for(x.location()), x.size(), x.data(),
                 y.data());
}

/// y += a*x.
template <typename T>
void axpy(T a, const ColorSpinorField<T>& x, ColorSpinorField<T>& y) {
  assert(y.size() == x.size());
  detail::axpy_n(detail::policy_for(x.location()), x.size(), a, x.data(),
                 y.data());
}

/// y = x + a*y.
template <typename T>
void xpay(const ColorSpinorField<T>& x, T a, ColorSpinorField<T>& y) {
  assert(y.size() == x.size());
  detail::xpay_n(detail::policy_for(x.location()), x.size(), x.data(), a,
                 y.data());
}

/// y = a*x + b*y.
template <typename T>
void axpby(T a, const ColorSpinorField<T>& x, T b, ColorSpinorField<T>& y) {
  assert(y.size() == x.size());
  const Complex<T>* xd = x.data();
  Complex<T>* yd = y.data();
  detail::stream(detail::policy_for(x.location()), x.size(),
                 [=](long i) { yd[i] = a * xd[i] + b * yd[i]; });
}

/// y += a*x (complex a).
template <typename T>
void caxpy(Complex<T> a, const ColorSpinorField<T>& x,
           ColorSpinorField<T>& y) {
  assert(y.size() == x.size());
  detail::axpy_n(detail::policy_for(x.location()), x.size(), a, x.data(),
                 y.data());
}

/// y = x + a*y (complex a).
template <typename T>
void cxpay(const ColorSpinorField<T>& x, Complex<T> a,
           ColorSpinorField<T>& y) {
  assert(y.size() == x.size());
  detail::xpay_n(detail::policy_for(x.location()), x.size(), x.data(), a,
                 y.data());
}

template <typename T>
void scale(T a, ColorSpinorField<T>& x) {
  detail::scale_n(detail::policy_for(x.location()), x.size(), a, x.data());
}

// Reductions.  These are the global-synchronization points whose log(N)
// network cost dominates the coarsest MG level at scale (paper Fig. 4).

template <typename T>
double norm2(const ColorSpinorField<T>& x) {
  return detail::norm2_n(detail::policy_for(x.location()), x.size(),
                         x.data());
}

/// <x, y> = sum_i conj(x_i) y_i.
template <typename T>
complexd cdot(const ColorSpinorField<T>& x, const ColorSpinorField<T>& y) {
  assert(y.size() == x.size());
  return detail::cdot_n(detail::policy_for(x.location()), x.size(), x.data(),
                        y.data());
}

template <typename T>
double rdot(const ColorSpinorField<T>& x, const ColorSpinorField<T>& y) {
  return cdot(x, y).re;
}

// --- Block (multi-rhs) BLAS -------------------------------------------------
//
// Batched operations on BlockSpinor fields (fields/blockspinor.h): one pass
// over the rhs-contiguous storage updates/reduces all N rhs, with per-rhs
// coefficients and an optional per-rhs active mask (the block solvers mask
// converged systems out of updates without breaking the batch).  Per-rhs
// arithmetic order is identical to the single-field kernels above, so every
// block op is bit-identical, rhs by rhs, to N single-field calls —
// including the reductions, which reuse the same fixed chunk decomposition
// and pairwise combine tree over the per-rhs element count.  The width
// paths keep both properties: updates stream dense runs of active rhs
// (mask hoisted out of the inner loop, per-rhs expression untouched),
// reductions put W consecutive rhs in cpack lanes — lanes are independent
// systems — and inactive rhs are never touched either way.  A block of one
// (nrhs = 1) has exactly a field's layout, so every block op runs the
// single-rhs body of the field op on its raw storage (rhs 0 only when the
// mask leaves it active): no rhs loop, no mask test per element.

/// Per-rhs activity mask; empty/short vectors treat missing entries active.
using RhsMask = std::vector<std::uint8_t>;

namespace detail {

inline bool rhs_active(const RhsMask* mask, int k) {
  return mask == nullptr || static_cast<size_t>(k) >= mask->size() ||
         (*mask)[static_cast<size_t>(k)] != 0;
}

/// Deterministic per-rhs sum of body(i, k) over i in [0, n): the block
/// analog of qmg::parallel_reduce with the identical chunk decomposition
/// (detail::reduce_chunks(n)) and pairwise combine tree, so the rhs-k
/// result is bit-identical to a single-field parallel_reduce over the same
/// n with the same per-element values.
template <typename V, typename Body>
std::vector<V> block_reduce(long n, int nrhs, const LaunchPolicy& policy,
                            Body&& body) {
  std::vector<V> result(static_cast<size_t>(nrhs), V{});
  if (n <= 0) return result;
  const long nchunks = qmg::detail::reduce_chunks(n);
  std::vector<V> partials(static_cast<size_t>(nchunks * nrhs), V{});
  // One dispatch item per chunk; each item accumulates all rhs so a chunk's
  // per-rhs sums are computed in the same ascending-i order as the
  // single-field chunk sum.
  chunk_group_for(n, nchunks, policy, [&](long c) {
    const long begin = n * c / nchunks;
    const long end = n * (c + 1) / nchunks;
    std::vector<V> acc(static_cast<size_t>(nrhs), V{});
    for (long i = begin; i < end; ++i)
      for (int k = 0; k < nrhs; ++k)
        acc[static_cast<size_t>(k)] += body(i, k);
    for (int k = 0; k < nrhs; ++k)
      partials[static_cast<size_t>(c * nrhs + k)] =
          acc[static_cast<size_t>(k)];
  });
  combine_tree(partials, nchunks, nrhs);
  for (int k = 0; k < nrhs; ++k) result[static_cast<size_t>(k)] = partials[static_cast<size_t>(k)];
  return result;
}

/// Shared scaffolding of the width-aware block updates: hoists the rhs
/// mask ONCE into maximal [kb, ke) runs of consecutive active rhs, then
/// visits every element i streaming run_op(i, kb, ke) over each run.  The
/// per-(i, k) rhs_active test is what keeps the masked scalar block walk
/// ~2x off the single-rhs ops — it blocks vectorization of the unit-stride
/// rhs axis — so removing it IS the width path's speedup; the dense inner
/// run loop applies the identical per-rhs scalar expression, and inactive
/// rhs are never touched because they are simply not inside any run.
template <typename RunOp>
void block_runs_for(long n, int nrhs, const LaunchPolicy& policy,
                    const RhsMask* active, RunOp&& run_op) {
  // Typically one run (no mask, or a contiguous converged prefix/suffix);
  // worst case alternating mask bits degrade to per-rhs calls.
  std::vector<std::pair<int, int>> runs;
  for (int k = 0; k < nrhs;) {
    if (!rhs_active(active, k)) {
      ++k;
      continue;
    }
    const int kb = k;
    while (k < nrhs && rhs_active(active, k)) ++k;
    runs.emplace_back(kb, k);
  }
  if (runs.empty()) return;
  if (runs.size() == 1) {
    // The common case (no mask, or one contiguous active span): capture the
    // bounds by value so the element body sees loop-invariant constants
    // instead of re-reading the runs vector behind a store-aliasing fence.
    const int kb = runs[0].first;
    const int ke = runs[0].second;
    parallel_for(n, policy, [&, kb, ke](long i) { run_op(i, kb, ke); });
    return;
  }
  parallel_for(n, policy, [&](long i) {
    for (const auto& r : runs) run_op(i, r.first, r.second);
  });
}

/// Per-chunk accumulator width the block reductions keep on the stack; a
/// wider batch pays one heap allocation per chunk (the scalar block_reduce
/// always does — measured, that allocation is most of why the scalar
/// block reductions trail the single-rhs ones at small nrhs).
inline constexpr int kStackRhs = 64;

/// Per-rhs |x_k|^2 with rhs lanes: block_reduce's chunk walk with the
/// inner rhs loop vectorized and the per-rhs accumulators on the stack;
/// per-rhs accumulation order (ascending i per chunk, same combine tree)
/// is unchanged.
template <typename T>
std::vector<double> block_norm2_w(const LaunchPolicy& policy, int w,
                                  const BlockSpinor<T>& x) {
  const long n = x.rhs_size();
  const int nrhs = x.nrhs();
  std::vector<double> result(static_cast<size_t>(nrhs), 0.0);
  if (n <= 0) return result;
  const long nchunks = qmg::detail::reduce_chunks(n);
  std::vector<double> partials(static_cast<size_t>(nchunks * nrhs), 0.0);
  const Complex<T>* xd = x.data();
  simd::dispatch_width(w, [&](auto wc) {
    constexpr int W = decltype(wc)::value;
    const int ngroups = nrhs / W;
    chunk_group_for(n, nchunks, policy, [&](long c) {
      const long begin = n * c / nchunks;
      const long end = n * (c + 1) / nchunks;
      double stack_acc[kStackRhs];
      std::vector<double> heap_acc;
      double* acc = stack_acc;
      if (nrhs > kStackRhs) {
        heap_acc.assign(static_cast<size_t>(nrhs), 0.0);
        acc = heap_acc.data();
      } else {
        std::fill(stack_acc, stack_acc + nrhs, 0.0);
      }
      for (long i = begin; i < end; ++i) {
        const Complex<T>* row = xd + i * nrhs;
        for (int g = 0; g < ngroups; ++g) {
          const int k0 = g * W;
          const auto n2 = simd::norm2(simd::cpack<T, W>::load(row + k0));
          for (int j = 0; j < W; ++j)
            acc[static_cast<size_t>(k0 + j)] +=
                static_cast<double>(n2.v[j]);
        }
        for (int k = ngroups * W; k < nrhs; ++k)
          acc[static_cast<size_t>(k)] +=
              static_cast<double>(qmg::norm2(row[k]));
      }
      for (int k = 0; k < nrhs; ++k)
        partials[static_cast<size_t>(c * nrhs + k)] =
            acc[static_cast<size_t>(k)];
    });
  });
  combine_tree(partials, nchunks, nrhs);
  for (int k = 0; k < nrhs; ++k)
    result[static_cast<size_t>(k)] = partials[static_cast<size_t>(k)];
  return result;
}

/// Per-rhs <x_k, y_k> with rhs lanes (see block_norm2_w).
template <typename T>
std::vector<complexd> block_cdot_w(const LaunchPolicy& policy, int w,
                                   const BlockSpinor<T>& x,
                                   const BlockSpinor<T>& y) {
  const long n = x.rhs_size();
  const int nrhs = x.nrhs();
  std::vector<complexd> result(static_cast<size_t>(nrhs), complexd{});
  if (n <= 0) return result;
  const long nchunks = qmg::detail::reduce_chunks(n);
  std::vector<complexd> partials(static_cast<size_t>(nchunks * nrhs),
                                 complexd{});
  const Complex<T>* xd = x.data();
  const Complex<T>* yd = y.data();
  simd::dispatch_width(w, [&](auto wc) {
    constexpr int W = decltype(wc)::value;
    const int ngroups = nrhs / W;
    chunk_group_for(n, nchunks, policy, [&](long c) {
      const long begin = n * c / nchunks;
      const long end = n * (c + 1) / nchunks;
      complexd stack_acc[kStackRhs];
      std::vector<complexd> heap_acc;
      complexd* acc = stack_acc;
      if (nrhs > kStackRhs) {
        heap_acc.assign(static_cast<size_t>(nrhs), complexd{});
        acc = heap_acc.data();
      } else {
        std::fill(stack_acc, stack_acc + nrhs, complexd{});
      }
      for (long i = begin; i < end; ++i) {
        const Complex<T>* xrow = xd + i * nrhs;
        const Complex<T>* yrow = yd + i * nrhs;
        for (int g = 0; g < ngroups; ++g) {
          const int k0 = g * W;
          const auto d = simd::conj_mul(simd::cpack<T, W>::load(xrow + k0),
                                        simd::cpack<T, W>::load(yrow + k0));
          for (int j = 0; j < W; ++j)
            acc[static_cast<size_t>(k0 + j)] +=
                complexd{static_cast<double>(d.re.v[j]),
                         static_cast<double>(d.im.v[j])};
        }
        for (int k = ngroups * W; k < nrhs; ++k) {
          const auto d = conj_mul(xrow[k], yrow[k]);
          acc[static_cast<size_t>(k)] +=
              complexd{static_cast<double>(d.re),
                       static_cast<double>(d.im)};
        }
      }
      for (int k = 0; k < nrhs; ++k)
        partials[static_cast<size_t>(c * nrhs + k)] =
            acc[static_cast<size_t>(k)];
    });
  });
  combine_tree(partials, nchunks, nrhs);
  for (int k = 0; k < nrhs; ++k)
    result[static_cast<size_t>(k)] = partials[static_cast<size_t>(k)];
  return result;
}

}  // namespace detail

template <typename T>
void block_zero(BlockSpinor<T>& x) {
  detail::for_each(Location::Host, x.size(),
                   [&](long i) { x.data()[i] = Complex<T>{}; });
}

template <typename T>
void block_copy(BlockSpinor<T>& y, const BlockSpinor<T>& x,
                const RhsMask* active = nullptr) {
  assert(y.size() == x.size() && y.nrhs() == x.nrhs());
  const int nrhs = x.nrhs();
  const LaunchPolicy p = detail::policy_for(Location::Host);
  if (nrhs == 1) {
    if (detail::rhs_active(active, 0))
      detail::copy_n(p, x.rhs_size(), x.data(), y.data());
    return;
  }
  const int w = rhs_lane_width<T>(p, nrhs);
  if (w > 1) {
    // Hoist the raw pointers out of the element body (the single-rhs ops do
    // the same): x.at(i, k) re-reads the field's data pointer and stride
    // through the captured object every element, and those member loads
    // sit behind the store-aliasing fence.
    const Complex<T>* xd = x.data();
    Complex<T>* yd = y.data();
    detail::block_runs_for(x.rhs_size(), nrhs, p, active,
                           [xd, yd, nrhs](long i, int kb, int ke) {
                             const Complex<T>* xr = xd + i * nrhs;
                             Complex<T>* yr = yd + i * nrhs;
                             for (int k = kb; k < ke; ++k) yr[k] = xr[k];
                           });
    return;
  }
  detail::for_each(Location::Host, x.rhs_size(), [&](long i) {
    for (int k = 0; k < nrhs; ++k)
      if (detail::rhs_active(active, k)) y.at(i, k) = x.at(i, k);
  });
}

/// y_k += a_k * x_k for every active rhs k.
template <typename T>
void block_axpy(const std::vector<T>& a, const BlockSpinor<T>& x,
                BlockSpinor<T>& y, const RhsMask* active = nullptr) {
  assert(y.size() == x.size() && static_cast<int>(a.size()) == x.nrhs());
  const int nrhs = x.nrhs();
  const LaunchPolicy p = detail::policy_for(Location::Host);
  if (nrhs == 1) {
    if (detail::rhs_active(active, 0))
      detail::axpy_n(p, x.rhs_size(), a[0], x.data(), y.data());
    return;
  }
  const int w = rhs_lane_width<T>(p, nrhs);
  if (w > 1) {
    const Complex<T>* xd = x.data();
    Complex<T>* yd = y.data();
    const T* ad = a.data();
    detail::block_runs_for(x.rhs_size(), nrhs, p, active,
                           [xd, yd, ad, nrhs](long i, int kb, int ke) {
                             const Complex<T>* xr = xd + i * nrhs;
                             Complex<T>* yr = yd + i * nrhs;
                             for (int k = kb; k < ke; ++k)
                               yr[k] += ad[k] * xr[k];
                           });
    return;
  }
  detail::for_each(Location::Host, x.rhs_size(), [&](long i) {
    for (int k = 0; k < nrhs; ++k)
      if (detail::rhs_active(active, k))
        y.at(i, k) += a[static_cast<size_t>(k)] * x.at(i, k);
  });
}

/// y_k += a_k * x_k (complex per-rhs coefficients) for every active rhs k.
template <typename T>
void block_caxpy(const std::vector<Complex<T>>& a, const BlockSpinor<T>& x,
                 BlockSpinor<T>& y, const RhsMask* active = nullptr) {
  assert(y.size() == x.size() && static_cast<int>(a.size()) == x.nrhs());
  const int nrhs = x.nrhs();
  const LaunchPolicy p = detail::policy_for(Location::Host);
  if (nrhs == 1) {
    if (detail::rhs_active(active, 0))
      detail::axpy_n(p, x.rhs_size(), a[0], x.data(), y.data());
    return;
  }
  const int w = rhs_lane_width<T>(p, nrhs);
  if (w > 1) {
    const Complex<T>* xd = x.data();
    Complex<T>* yd = y.data();
    const Complex<T>* ad = a.data();
    detail::block_runs_for(x.rhs_size(), nrhs, p, active,
                           [xd, yd, ad, nrhs](long i, int kb, int ke) {
                             const Complex<T>* xr = xd + i * nrhs;
                             Complex<T>* yr = yd + i * nrhs;
                             for (int k = kb; k < ke; ++k)
                               yr[k] += ad[k] * xr[k];
                           });
    return;
  }
  detail::for_each(Location::Host, x.rhs_size(), [&](long i) {
    for (int k = 0; k < nrhs; ++k)
      if (detail::rhs_active(active, k))
        y.at(i, k) += a[static_cast<size_t>(k)] * x.at(i, k);
  });
}

/// y_k = x_k + a_k * y_k for every active rhs k.
template <typename T>
void block_xpay(const BlockSpinor<T>& x, const std::vector<T>& a,
                BlockSpinor<T>& y, const RhsMask* active = nullptr) {
  assert(y.size() == x.size() && static_cast<int>(a.size()) == x.nrhs());
  const int nrhs = x.nrhs();
  const LaunchPolicy p = detail::policy_for(Location::Host);
  if (nrhs == 1) {
    if (detail::rhs_active(active, 0))
      detail::xpay_n(p, x.rhs_size(), x.data(), a[0], y.data());
    return;
  }
  const int w = rhs_lane_width<T>(p, nrhs);
  if (w > 1) {
    const Complex<T>* xd = x.data();
    Complex<T>* yd = y.data();
    const T* ad = a.data();
    detail::block_runs_for(x.rhs_size(), nrhs, p, active,
                           [xd, yd, ad, nrhs](long i, int kb, int ke) {
                             const Complex<T>* xr = xd + i * nrhs;
                             Complex<T>* yr = yd + i * nrhs;
                             for (int k = kb; k < ke; ++k)
                               yr[k] = xr[k] + ad[k] * yr[k];
                           });
    return;
  }
  detail::for_each(Location::Host, x.rhs_size(), [&](long i) {
    for (int k = 0; k < nrhs; ++k)
      if (detail::rhs_active(active, k))
        y.at(i, k) = x.at(i, k) + a[static_cast<size_t>(k)] * y.at(i, k);
  });
}

/// x_k *= a_k for every active rhs k.
template <typename T>
void block_scale(const std::vector<T>& a, BlockSpinor<T>& x,
                 const RhsMask* active = nullptr) {
  assert(static_cast<int>(a.size()) == x.nrhs());
  const int nrhs = x.nrhs();
  const LaunchPolicy p = detail::policy_for(Location::Host);
  if (nrhs == 1) {
    if (detail::rhs_active(active, 0))
      detail::scale_n(p, x.rhs_size(), a[0], x.data());
    return;
  }
  const int w = rhs_lane_width<T>(p, nrhs);
  if (w > 1) {
    Complex<T>* xd = x.data();
    const T* ad = a.data();
    detail::block_runs_for(x.rhs_size(), nrhs, p, active,
                           [xd, ad, nrhs](long i, int kb, int ke) {
                             Complex<T>* xr = xd + i * nrhs;
                             for (int k = kb; k < ke; ++k) xr[k] *= ad[k];
                           });
    return;
  }
  detail::for_each(Location::Host, x.rhs_size(), [&](long i) {
    for (int k = 0; k < nrhs; ++k)
      if (detail::rhs_active(active, k))
        x.at(i, k) *= a[static_cast<size_t>(k)];
  });
}

/// Per-rhs |x_k|^2 under an explicit launch policy.  The deterministic
/// chunk decomposition makes the result bit-identical across policies, so
/// this exists for *scheduling*, not values: a reduction posted on a comm
/// worker concurrently with a pool launch must pass a Serial policy
/// (ThreadPool::run is single-caller; see comm_worker_policy()).
template <typename T>
std::vector<double> block_norm2(const BlockSpinor<T>& x,
                                const LaunchPolicy& p) {
  if (x.nrhs() == 1) return {detail::norm2_n(p, x.rhs_size(), x.data())};
  const int w = rhs_lane_width<T>(p, x.nrhs());
  if (w > 1) return detail::block_norm2_w(p, w, x);
  return detail::block_reduce<double>(
      x.rhs_size(), x.nrhs(), p,
      [&](long i, int k) { return qmg::norm2(x.at(i, k)); });
}

/// Per-rhs |x_k|^2 — bit-identical, rhs by rhs, to norm2(extract_rhs(k)).
template <typename T>
std::vector<double> block_norm2(const BlockSpinor<T>& x) {
  return block_norm2(x, detail::policy_for(Location::Host));
}

/// Per-rhs <x_k, y_k> under an explicit launch policy (see block_norm2).
template <typename T>
std::vector<complexd> block_cdot(const BlockSpinor<T>& x,
                                 const BlockSpinor<T>& y,
                                 const LaunchPolicy& p) {
  assert(y.size() == x.size() && y.nrhs() == x.nrhs());
  if (x.nrhs() == 1)
    return {detail::cdot_n(p, x.rhs_size(), x.data(), y.data())};
  const int w = rhs_lane_width<T>(p, x.nrhs());
  if (w > 1) return detail::block_cdot_w(p, w, x, y);
  return detail::block_reduce<complexd>(
      x.rhs_size(), x.nrhs(), p, [&](long i, int k) {
        const auto d = conj_mul(x.at(i, k), y.at(i, k));
        return complexd{d.re, d.im};
      });
}

/// Per-rhs <x_k, y_k> — bit-identical, rhs by rhs, to cdot of the
/// extracted fields.
template <typename T>
std::vector<complexd> block_cdot(const BlockSpinor<T>& x,
                                 const BlockSpinor<T>& y) {
  return block_cdot(x, y, detail::policy_for(Location::Host));
}

}  // namespace blas
}  // namespace qmg
