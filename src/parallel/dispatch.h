#pragma once
// Unified kernel-dispatch execution layer.  Every hot loop in the library —
// BLAS, Wilson/clover dslash, coarse operator, transfers, halo packing —
// is expressed as a launch over a structured index space:
//
//   qmg::parallel_for(n, policy, body)       // body(i), i in [0, n)
//   qmg::parallel_reduce<V>(n, policy, body) // sum of body(i), deterministic
//
// with the decomposition of that index space a pluggable LaunchPolicy
// rather than hard-coded loop structure (the paper's central idea, applied
// host-side).  Four backends:
//
//   Serial    — plain ascending loop; the reference numerics.
//   Threaded  — persistent std::thread pool (parallel/thread_pool.h) with a
//               static, work-stealing-free partition.  Reductions use a
//               fixed chunk decomposition and a fixed pairwise combine
//               tree, both independent of the thread count, so Threaded
//               results are bit-identical to each other at any thread
//               count and to Serial's chunked reduction.
//   SimtModel — executes serially in simulated CUDA launch order
//               (blockIdx/threadIdx arithmetic) and records each launch
//               shape in SimtStats, which routes it through the
//               gpusim::DeviceSpec performance model (Fig. 2 regeneration).
//   Simd      — serial item loop, but width-aware kernels process
//               policy.simd_width independent lanes per step with the SoA
//               packs of linalg/simd.h (rhs lanes for batched kernels,
//               chunk lanes for reductions).  Generic bodies run exactly
//               like Serial.  Composes with Threaded: rhs-lane kernels run
//               native-width lanes under Threaded by default
//               (rhs_lane_width), the pool partitioning pack groups.
//
// parallel_reduce computes the same chunk decomposition under every
// backend, so a reduction's value depends only on (n, body) — never on the
// backend, thread count or lane width.

#include <algorithm>
#include <vector>

#include "gpusim/device.h"
#include "linalg/simd.h"
#include "parallel/thread_pool.h"

namespace qmg {

enum class Backend : int { Serial = 0, Threaded = 1, SimtModel = 2, Simd = 3 };

inline const char* to_string(Backend b) {
  switch (b) {
    case Backend::Serial: return "serial";
    case Backend::Threaded: return "threaded";
    case Backend::Simd: return "simd";
    default: return "simt-model";
  }
}

/// How one kernel launch is decomposed.  What the launch autotuner
/// (parallel/autotune.h) selects per kernel shape.
struct LaunchPolicy {
  Backend backend = Backend::Threaded;
  /// Minimum items per worker before the Threaded backend engages; below
  /// it the launch runs serially (thread wake-up would dominate).
  long grain = 1;
  /// Simulated CUDA block size for the SimtModel backend.
  int sim_block_dim = 128;
  /// 2D (site x rhs) launches only: how many rhs one dispatch item covers.
  /// 0 = all rhs in one item (pure site parallelism, maximum stencil reuse
  /// per item); 1 = one item per (site, rhs) (maximum parallelism, stencil
  /// re-read per rhs).  Tuned jointly with the kernel decomposition.
  int rhs_block = 0;
  /// Lane width width-aware kernels vectorize with (linalg/simd.h packs).
  /// Read only under Backend::Simd and Backend::Threaded; 0 = auto: the
  /// native lanes of the kernel's precision for rhs-lane kernels under
  /// either backend (rhs_lane_width), and for single-rhs kernels the
  /// build's native width under Simd, scalar under Threaded
  /// (effective_simd_width).  Tuned jointly with backend/grain/rhs_block.
  int simd_width = 0;
};

/// The lane width a policy requests from the single-rhs width-aware
/// kernels (site-lane streaming BLAS, chunk-lane reductions).  Serial and
/// SimtModel are always scalar (Serial is the reference numerics; the SIMT
/// model's lanes are the simulated CUDA threads).  Backend::Simd defaults
/// to the build's native width; Threaded stays scalar unless a width was
/// set explicitly, because site lanes do not pay on a single field
/// (BENCH_simd: single-rhs norm2 runs at 0.76x at width 2).
inline int effective_simd_width(const LaunchPolicy& p) {
  switch (p.backend) {
    case Backend::Simd:
      return p.simd_width <= 0 ? simd::kMaxSimdWidth
                               : simd::normalize_simd_width(p.simd_width);
    case Backend::Threaded:
      return p.simd_width <= 1 ? 1
                               : simd::normalize_simd_width(p.simd_width);
    default:
      return 1;
  }
}

/// The lane width of an rhs-lane kernel — the batched Wilson-clover
/// kernels, the block transfers, the coarse row kernel and the block BLAS —
/// over nrhs right-hand sides of precision T.  An auto width (0) resolves
/// to native lanes (simd::native_width<T>: a full register of T) under
/// both Threaded and Simd; an explicit width is honoured; Serial and
/// SimtModel stay scalar.  The result degrades to the widest pack nrhs
/// fills.  Lanes mirror the scalar expression tree, so the width changes
/// speed, never per-rhs bits.
template <typename T>
inline int rhs_lane_width(const LaunchPolicy& p, long nrhs) {
  if (p.backend != Backend::Threaded && p.backend != Backend::Simd) return 1;
  return simd::width_for(
      p.simd_width <= 0 ? simd::native_width<T> : p.simd_width, nrhs);
}

/// A 2D (site x rhs) launch must never split a lane pack across dispatch
/// items: clamp a non-multiple rhs_block UP to the next multiple of the
/// pack width (0 — whole rhs axis per item — is always compatible).  The
/// tuner only emits agreeing candidates and the tune-cache loader rejects
/// disagreeing entries; this guards policies set by hand.
inline LaunchPolicy align_rhs_block(LaunchPolicy p, int width) {
  if (width > 1 && p.rhs_block > 0) {
    const int rem = p.rhs_block % width;
    if (rem != 0) p.rhs_block += width - rem;
  }
  return p;
}

/// Process-wide default policy used by kernels that are not individually
/// tuned.  The Threaded default degrades to a serial loop when the pool
/// has one thread, so it is always safe.
LaunchPolicy& default_policy();
inline void set_default_policy(const LaunchPolicy& p) { default_policy() = p; }

/// Accounting for SimtModel launches: launch shapes, and modeled execution
/// time for launches whose callers supply a gpusim::KernelWork.  Guarded by
/// the pool's serial execution of SimtModel launches (no locking needed in
/// the hot path as SimtModel never runs concurrently with itself).
class SimtStats {
 public:
  static SimtStats& instance();

  void set_device(const DeviceSpec& dev) { device_ = dev; }
  const DeviceSpec& device() const { return device_; }

  void record_launch(long threads) {
    ++launches_;
    threads_ += threads;
  }
  /// Attach modeled cost to the most recent launch.
  void record_work(const KernelWork& work) {
    modeled_seconds_ += estimate_seconds(device_, work);
  }

  long launches() const { return launches_; }
  long threads() const { return threads_; }
  double modeled_seconds() const { return modeled_seconds_; }
  void reset() {
    launches_ = 0;
    threads_ = 0;
    modeled_seconds_ = 0;
  }

 private:
  SimtStats();
  DeviceSpec device_;
  long launches_ = 0;
  long threads_ = 0;
  double modeled_seconds_ = 0;
};

namespace detail {

/// Fixed reduction chunk count: a pure function of n (never of the thread
/// count or backend), so every backend reassociates partial sums the same
/// way.  64 chunks comfortably over-decomposes any pool this library runs
/// on while keeping the partial array cache-resident.
inline long reduce_chunks(long n) {
  constexpr long kChunks = 64;
  return n < kChunks ? n : kChunks;
}

template <typename Body>
void simt_for(long n, const LaunchPolicy& p, Body&& body) {
  const long block_dim = p.sim_block_dim > 0 ? p.sim_block_dim : 128;
  const long grid_dim = (n + block_dim - 1) / block_dim;
  for (long block_idx = 0; block_idx < grid_dim; ++block_idx) {
    for (long thread_idx = 0; thread_idx < block_dim; ++thread_idx) {
      const long i = block_idx * block_dim + thread_idx;
      if (i >= n) break;
      body(i);
    }
  }
  SimtStats::instance().record_launch(grid_dim * block_dim);
}

}  // namespace detail

template <typename Body>
void parallel_for(long n, const LaunchPolicy& policy, Body&& body) {
  if (n <= 0) return;
  switch (policy.backend) {
    case Backend::SimtModel:
      detail::simt_for(n, policy, body);
      return;
    case Backend::Threaded: {
      ThreadPool& pool = ThreadPool::instance();
      const int nt = pool.num_threads();
      if (nt > 1 && !ThreadPool::in_parallel_region() &&
          n >= nt * std::max<long>(1, policy.grain)) {
        pool.run([&](int w) {
          const long begin = n * w / nt;
          const long end = n * (w + 1) / nt;
          for (long i = begin; i < end; ++i) body(i);
        });
        return;
      }
      break;  // degenerate: fall through to serial
    }
    case Backend::Serial:
    case Backend::Simd:  // generic bodies run serially; width-aware kernels
                         // consume policy.simd_width themselves
      break;
  }
  for (long i = 0; i < n; ++i) body(i);
}

template <typename Body>
void parallel_for(long n, Body&& body) {
  parallel_for(n, default_policy(), body);
}

/// Launch over an explicit index list: body(indices[i]) for every element,
/// visited in ascending list order per partition.  This is the subset-launch
/// form the two-phase distributed operators use — the interior and boundary
/// site sets of a domain decomposition are index lists, and per-site work
/// that writes only its own site gives bit-identical fields regardless of
/// how the full site loop is split across lists or backends.
template <typename Body>
void parallel_for_indices(const std::vector<long>& indices,
                          const LaunchPolicy& policy, Body&& body) {
  const long* idx = indices.data();
  parallel_for(static_cast<long>(indices.size()), policy,
               [&, idx](long i) { body(idx[i]); });
}

template <typename Body>
void parallel_for_indices(const std::vector<long>& indices, Body&& body) {
  parallel_for_indices(indices, default_policy(), body);
}

/// 2D (outer x inner) launch for multi-right-hand-side kernels: the outer
/// axis is the lattice site (or aggregate) index, the inner axis the rhs
/// index (paper section 9's N-way extra parallelism).  The index space is
/// cut into dispatch items of policy.rhs_block consecutive inner indices
/// per outer index, so the tuner can trade stencil reuse within an item
/// against item-level parallelism.  The tiled form hands each item its
/// inner range — body(outer, inner_begin, inner_end) — so a batched kernel
/// can walk the rhs axis unit-stride; items are visited outer-major with
/// ascending inner tiles, so per-(outer, inner) work that does not
/// communicate across pairs is bit-identical for every backend, thread
/// count and rhs_block.
template <typename Body>
void parallel_for_2d_tiled(long n_outer, long n_inner,
                           const LaunchPolicy& policy, Body&& body) {
  if (n_outer <= 0 || n_inner <= 0) return;
  const long rb = policy.rhs_block > 0
                      ? std::min<long>(policy.rhs_block, n_inner)
                      : n_inner;
  const long n_tiles = (n_inner + rb - 1) / rb;
  auto tile_body = [&](long item) {
    const long outer = item / n_tiles;
    const long inner_begin = (item % n_tiles) * rb;
    const long inner_end = std::min(inner_begin + rb, n_inner);
    body(outer, inner_begin, inner_end);
  };
  const long n_items = n_outer * n_tiles;
  switch (policy.backend) {
    case Backend::SimtModel: {
      // Simulated CUDA shape: x threads over sites, y threads over rhs
      // (items execute serially in launch order; one launch record covers
      // the whole (site x rhs) grid).
      for (long item = 0; item < n_items; ++item) tile_body(item);
      const long block_dim =
          policy.sim_block_dim > 0 ? policy.sim_block_dim : 128;
      const long total = n_outer * n_inner;
      const long grid_dim = (total + block_dim - 1) / block_dim;
      SimtStats::instance().record_launch(grid_dim * block_dim);
      return;
    }
    case Backend::Threaded:
    case Backend::Serial:
    default: {
      // parallel_for runs unknown backend values as a serial loop; routing
      // through it keeps that fallback (the body must never be skipped).
      LaunchPolicy flat = policy;
      flat.rhs_block = 0;
      parallel_for(n_items, flat, tile_body);
      return;
    }
  }
}

/// Per-element form of the 2D launch: body(outer, inner) for every pair.
template <typename Body>
void parallel_for_2d(long n_outer, long n_inner, const LaunchPolicy& policy,
                     Body&& body) {
  parallel_for_2d_tiled(n_outer, n_inner, policy,
                        [&](long outer, long begin, long end) {
                          for (long inner = begin; inner < end; ++inner)
                            body(outer, inner);
                        });
}

template <typename Body>
void parallel_for_2d(long n_outer, long n_inner, Body&& body) {
  parallel_for_2d(n_outer, n_inner, default_policy(), body);
}

/// 2D tiled launch whose outer axis is an explicit site list:
/// body(sites[outer], inner_begin, inner_end).  The (site x rhs) analog of
/// parallel_for_indices, used by the batched distributed operators to run
/// the interior and boundary phases of a multi-rhs stencil apply.
template <typename Body>
void parallel_for_2d_indices_tiled(const std::vector<long>& sites,
                                   long n_inner, const LaunchPolicy& policy,
                                   Body&& body) {
  const long* idx = sites.data();
  parallel_for_2d_tiled(static_cast<long>(sites.size()), n_inner, policy,
                        [&, idx](long outer, long begin, long end) {
                          body(idx[outer], begin, end);
                        });
}

/// Deterministic sum-reduction of body(i) over [0, n).  V needs V{} (the
/// additive identity) and operator+=.  The chunk decomposition and the
/// pairwise combine tree depend only on n, so the result is identical
/// under every backend and thread count.
template <typename V, typename Body>
V parallel_reduce(long n, const LaunchPolicy& policy, Body&& body) {
  if (n <= 0) return V{};
  const long nchunks = detail::reduce_chunks(n);
  std::vector<V> partials(static_cast<size_t>(nchunks), V{});
  auto chunk_sum = [&](long c) {
    const long begin = n * c / nchunks;
    const long end = n * (c + 1) / nchunks;
    V acc{};
    for (long i = begin; i < end; ++i) acc += body(i);
    partials[static_cast<size_t>(c)] = acc;
  };
  switch (policy.backend) {
    case Backend::SimtModel: {
      // One simulated thread per chunk owner would under-report the launch;
      // the simulated launch covers all n items (one thread per item, with
      // the chunk partials standing in for the block-level tree).
      for (long c = 0; c < nchunks; ++c) chunk_sum(c);
      const long block_dim = policy.sim_block_dim > 0 ? policy.sim_block_dim : 128;
      const long grid_dim = (n + block_dim - 1) / block_dim;
      SimtStats::instance().record_launch(grid_dim * block_dim);
      break;
    }
    case Backend::Threaded: {
      ThreadPool& pool = ThreadPool::instance();
      const int nt = pool.num_threads();
      if (nt > 1 && !ThreadPool::in_parallel_region() &&
          n >= nt * std::max<long>(1, policy.grain)) {
        pool.run([&](int w) {
          const long cb = nchunks * w / nt;
          const long ce = nchunks * (w + 1) / nt;
          for (long c = cb; c < ce; ++c) chunk_sum(c);
        });
      } else {
        for (long c = 0; c < nchunks; ++c) chunk_sum(c);
      }
      break;
    }
    case Backend::Serial:
    case Backend::Simd:
      for (long c = 0; c < nchunks; ++c) chunk_sum(c);
      break;
  }
  // Fixed pairwise combine tree (mirrors the GPU shared-memory reduction).
  for (long span = 1; span < nchunks; span *= 2)
    for (long i = 0; i + span < nchunks; i += 2 * span)
      partials[static_cast<size_t>(i)] += partials[static_cast<size_t>(i + span)];
  return partials[0];
}

template <typename V, typename Body>
V parallel_reduce(long n, Body&& body) {
  return parallel_reduce<V>(n, default_policy(), body);
}

}  // namespace qmg
