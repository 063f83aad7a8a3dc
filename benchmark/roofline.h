#pragma once
// Roofline inputs for the per-layer table: the host's sustainable memory
// bandwidth (an in-run STREAM triad) and the analytic bytes and flops of
// each replayed kernel.  Every byte count here is COMPUTED from array sizes
// (one compulsory read or write per operand, no cache reuse across sites),
// not measured, so a kernel whose working set fits in cache can exceed a
// roofline fraction of 1.

#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <thread>
#include <vector>

namespace qmg_bench {

// --- STREAM triad -----------------------------------------------------------

struct TriadResult {
  double gbps = 0;         // best a[i] = b[i] + s * c[i] rate over the passes
  double array_mb = 0;     // size of each of the three arrays
  double cache_mb = 0;     // L2 (per core x threads) + L3 the sizing assumed
};

/// Size in bytes of the level-`level` data/unified cache from the CPU's
/// deterministic cache parameters (cpuid leaf 4 on Intel, 0x8000001D on
/// AMD); 0 when unknown.  Preferred over sysconf, which on some virtual
/// machines reports the L3 of the whole host.
inline double cpuid_cache_bytes(unsigned level) {
#if defined(__x86_64__) || defined(__i386__)
  for (const unsigned leaf : {4u, 0x8000001Du}) {
    for (unsigned i = 0; i < 8; ++i) {
      unsigned a = 0, b = 0, c = 0, d = 0;
      if (!__get_cpuid_count(leaf, i, &a, &b, &c, &d) || (a & 31) == 0) break;
      if (((a >> 5) & 7) != level || (a & 31) == 2) continue;  // 2: code
      const double ways = ((b >> 22) & 0x3ff) + 1;
      const double partitions = ((b >> 12) & 0x3ff) + 1;
      const double line = (b & 0xfff) + 1;
      return ways * partitions * line * (static_cast<double>(c) + 1);
    }
  }
#endif
  (void)level;
  return 0;
}

/// Caches the run can use: per-core L2 times the thread count plus the
/// shared L3.  Falls back to sysconf, then to 64 MiB.
inline double cache_bytes(int threads) {
  auto sys = [](int name) {
    return static_cast<double>(std::max(0L, sysconf(name)));
  };
  double l2 = cpuid_cache_bytes(2), l3 = cpuid_cache_bytes(3);
  if (l2 <= 0) l2 = sys(_SC_LEVEL2_CACHE_SIZE);
  if (l3 <= 0) l3 = sys(_SC_LEVEL3_CACHE_SIZE);
  const double total = l2 * threads + l3;
  return total > 0 ? total : 64.0 * (1 << 20);
}

/// STREAM triad on `threads` std::threads, each owning a static chunk.  Each
/// array holds at least 4x the caches of cache_bytes(), so the rate is a
/// DRAM rate.  Runs on its own threads, not the qmg pool, so the roofline
/// denominator does not move when the library's pool does.
inline TriadResult stream_triad(int threads, int passes = 12) {
  TriadResult r;
  const double cache = cache_bytes(threads);
  const std::size_t n = static_cast<std::size_t>(4.0 * cache / sizeof(double));
  r.cache_mb = cache / 1e6;
  r.array_mb = static_cast<double>(n * sizeof(double)) / 1e6;
  std::vector<double> a(n), b(n), c(n);
  const double s = 3.0;
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        const std::size_t lo = n * t / threads, hi = n * (t + 1) / threads;
        body(lo, hi);
      });
    for (auto& th : pool) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e300;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = std::chrono::steady_clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = std::min(best, dt);
  }
  // Keep the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  r.gbps = 3.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
  return r;
}

// --- analytic traffic and work per kernel ------------------------------------
//
// Complex fields of `prec` bytes per real.  nrhs rhs share each stencil load
// (the batched kernels load the links once per site tile), so stencil bytes
// are paid once per site and vector bytes once per rhs.

struct Traffic {
  double bytes = 0;
  double flops = 0;
};

/// Fine Wilson-clover apply (dirac/wilson.h) over `sites` sites: per site 8
/// SU(3) links (18 reals) + the clover term (two Hermitian 6x6 chiral
/// blocks, 72 reals) loaded once, and per rhs 9 input spinors (8 neighbours
/// + the site itself, 24 reals each) read and 1 written.  Flops are the
/// canonical 1320 (hopping) + 504 (clover) per site per rhs.
inline Traffic wilson_clover_traffic(long sites, int nrhs, int prec) {
  const double stencil = (8.0 * 18 + 72) * prec;
  const double vectors = 10.0 * 24 * prec;
  return {static_cast<double>(sites) * (stencil + nrhs * vectors),
          static_cast<double>(sites) * nrhs * (1320.0 + 504.0)};
}

/// Coarse apply (mg/coarse_op.h) over `sites` sites with N = 2 * ncolor:
/// 9 dense N x N blocks per site in the storage format (`stencil_prec`
/// bytes per real; Half16 = 2 plus one float scale per block), and per rhs
/// 9 input vectors read and 1 written at `prec`.  8 N^2 flops per block
/// per rhs (complex multiply-add).
inline Traffic coarse_traffic(long sites, int block_dim, int nrhs,
                              double stencil_prec, bool per_block_scale,
                              int prec) {
  const double nn = static_cast<double>(block_dim) * block_dim;
  const double stencil =
      9.0 * (nn * 2 * stencil_prec + (per_block_scale ? sizeof(float) : 0));
  const double vectors = 10.0 * block_dim * 2 * prec;
  return {static_cast<double>(sites) * (stencil + nrhs * vectors),
          static_cast<double>(sites) * nrhs * 9.0 * 8.0 * nn};
}

/// Restriction or prolongation (mg/transfer.h) between a fine level of
/// `fine_sites` x `fine_dof` complex and a coarse level of `coarse_sites` x
/// 2 * nvec complex: the nvec prolongator columns (fine_dof complex per fine
/// site each) are read once, each rhs streams one fine and one coarse
/// vector.  8 flops per complex multiply-add, one per (column, fine dof).
inline Traffic transfer_traffic(long fine_sites, int fine_dof,
                                long coarse_sites, int nvec, int nrhs,
                                int prec) {
  const double columns =
      static_cast<double>(fine_sites) * fine_dof * nvec * 2 * prec;
  const double vectors =
      (static_cast<double>(fine_sites) * fine_dof +
       static_cast<double>(coarse_sites) * 2 * nvec) * 2 * prec;
  return {columns + nrhs * vectors,
          static_cast<double>(fine_sites) * fine_dof * nvec * nrhs * 8.0};
}

/// Block axpy over `n` complex elements per rhs: reads x and y, writes y.
inline Traffic axpy_traffic(long n, int nrhs, int prec) {
  return {3.0 * n * nrhs * 2 * prec, 4.0 * n * nrhs};
}

}  // namespace qmg_bench
