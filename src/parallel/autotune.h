#pragma once
// Kernel-policy autotuning (paper sections 4 and 6.5): the first time a
// kernel shape is encountered, every candidate launch policy is timed and
// the fastest is cached for all subsequent calls.  Keys combine kernel
// name, problem volume and block size — the parameters that change the
// optimal strategy (Fig. 2: large grids want coarse-grained threads, tiny
// grids want the full fine-grained decomposition).

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "parallel/dispatch.h"
#include "parallel/strategy.h"
#include "util/thread_annotations.h"

namespace qmg {

/// Process-wide cache of tuned kernel policies.  instance() is shared by
/// every context and tenant in the process (the SolveQueue's warm-state
/// story depends on exactly that), so the three maps are mutex-guarded —
/// a lookup on one tenant's solve path must never race a store from
/// another's first-encounter tuning sweep.  The guard is enforced at
/// compile time by the thread-safety annotations; it was previously
/// absent entirely (a latent data race surfaced by annotating the class).
class TuneCache {
 public:
  static TuneCache& instance();

  bool lookup(const std::string& key, CoarseKernelConfig* config) const
      QMG_EXCLUDES(mutex_);
  void store(const std::string& key, const CoarseKernelConfig& config)
      QMG_EXCLUDES(mutex_);

  /// Execution-backend policies are cached alongside kernel decompositions:
  /// the tuner picks (backend, grain) and (strategy, splits) together.
  bool lookup_launch(const std::string& key, LaunchPolicy* policy) const
      QMG_EXCLUDES(mutex_);
  void store_launch(const std::string& key, const LaunchPolicy& policy)
      QMG_EXCLUDES(mutex_);

  /// Scalar algorithm parameters tuned by timing (e.g. the s-step depth of
  /// the CA coarsest solver) live beside the kernel policies so one cache
  /// file persists both.  Values are small positive integers (range-checked
  /// 1..64 on load — they feed basis depths and loop trip counts).
  bool lookup_param(const std::string& key, int* value) const
      QMG_EXCLUDES(mutex_);
  void store_param(const std::string& key, int value) QMG_EXCLUDES(mutex_);

  void clear() QMG_EXCLUDES(mutex_);
  size_t size() const QMG_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return cache_.size();
  }
  size_t launch_size() const QMG_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return launch_cache_.size();
  }
  size_t param_size() const QMG_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return param_cache_.size();
  }

  /// Candidate launch policies explored for the coarse operator: the four
  /// cumulative strategies with representative split factors.
  static std::vector<CoarseKernelConfig> coarse_candidates(int block_dim);

  /// Candidate execution backends for a host kernel: Serial, native-width
  /// Simd lanes (when the build has them), plus the Threaded pool at
  /// representative grains.  (SimtModel is a modeling backend, never
  /// selected by timing.)
  static std::vector<LaunchPolicy> launch_candidates();

  /// Candidates for a 2D (site x rhs) launch: launch_candidates(), whose
  /// auto-width Simd and Threaded entries run native lanes of the kernel's
  /// precision (rhs_lane_width), plus a scalar Threaded policy (explicit
  /// width 1), crossed with representative rhs-blockings: 0 (whole rhs axis
  /// in one item: maximum stencil reuse), 1 (one item per (site, rhs):
  /// maximum parallelism), and a middle tile when nrhs is large enough.
  /// Pairs whose rhs_block would split a float lane pack (a multiple of
  /// the double one) across dispatch items are never emitted.
  static std::vector<LaunchPolicy> launch_candidates_2d(int nrhs);

  /// Time each candidate with `run` (seconds) and return the fastest,
  /// caching it under `key`.
  CoarseKernelConfig tune(
      const std::string& key, int block_dim,
      const std::function<double(const CoarseKernelConfig&)>& run);

  /// Same, over execution backends: time each launch_candidates() entry
  /// and cache the fastest under `key`.
  LaunchPolicy tune_launch(
      const std::string& key,
      const std::function<double(const LaunchPolicy&)>& run);

  /// Joint sweep over launch_candidates() x coarse_candidates(): times
  /// every (config, policy) pair with `run`, caches both winners under
  /// `key`, and returns them.  What CoarseDirac::apply uses on the first
  /// encounter of a kernel shape.
  std::pair<CoarseKernelConfig, LaunchPolicy> tune_joint(
      const std::string& key, int block_dim,
      const std::function<double(const CoarseKernelConfig&,
                                 const LaunchPolicy&)>& run);

  /// Joint sweep for a batched (site x rhs) kernel: launch_candidates_2d()
  /// x coarse_candidates(), so the rhs-blocking is tuned together with the
  /// kernel decomposition and backend.  What CoarseDirac::apply_block uses
  /// on the first encounter of a (volume, N, nrhs) shape.
  std::pair<CoarseKernelConfig, LaunchPolicy> tune_joint_2d(
      const std::string& key, int block_dim, int nrhs,
      const std::function<double(const CoarseKernelConfig&,
                                 const LaunchPolicy&)>& run);

  /// Time `run` (seconds) for each candidate value and return the fastest,
  /// caching it under `key`.  What Multigrid uses to pick the CA coarsest
  /// solver's s-step depth (coarsest_ca_s == 0) over {2, 4, 8}.
  int tune_param(const std::string& key, const std::vector<int>& candidates,
                 const std::function<double(int)>& run);

  /// Launch-policy persistence (production runs skip the first-call tuning
  /// sweep): a versioned text file of every cached kernel config and launch
  /// policy (backend, grain, sim block, rhs-blocking, lane width).  load()
  /// merges into the current cache; both return false on I/O or format
  /// errors.
  ///
  /// File version 6 reads an L line's simd_width 0 as native rhs lanes
  /// under Threaded and Simd (rhs_lane_width); an auto width in an older
  /// file loads as the explicit width it meant when written (1 under
  /// Threaded, the double-lane cap under Simd), so a pre-v6 cache never
  /// replays a scalar-tuned Threaded entry with lanes.  Version 5 adds P
  /// lines (scalar algorithm parameters, e.g. the CA s-depth).  Version 4
  /// L lines carry the tuned simd_width and keys carry the build's native
  /// pack-width tag (the /W= field of coarse_tune_key / mrhs_tune_key).
  /// Version-3 files (precision-tagged keys, no width) and version-2 files
  /// (neither) are still accepted: their entries merge (a six-token L line
  /// is an auto width) but can no longer be hit by the tagged lookups, so
  /// a stale cache re-tunes instead of silently replaying a config tuned
  /// for a different element precision or pack width.  Entries whose
  /// rhs_block would split a lane pack across dispatch items are rejected
  /// outright.
  [[nodiscard]] bool save(const std::string& path) const QMG_EXCLUDES(mutex_);
  [[nodiscard]] bool load(const std::string& path) QMG_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, CoarseKernelConfig> cache_ QMG_GUARDED_BY(mutex_);
  std::map<std::string, LaunchPolicy> launch_cache_ QMG_GUARDED_BY(mutex_);
  std::map<std::string, int> param_cache_ QMG_GUARDED_BY(mutex_);
};

/// Tune key helpers.  `precision` is the operator's element-precision tag
/// (CoarseDirac::precision_tag(): accumulation type plus storage format,
/// e.g. "d", "f", "df", "dh") — kernels of different precision have a
/// different bytes/flop balance, so their optimal configs must never be
/// shared under one key.
std::string coarse_tune_key(long volume, int block_dim,
                            const std::string& precision);
std::string mrhs_tune_key(long volume, int block_dim, int nrhs,
                          const std::string& precision);
/// Key for the CA coarsest solver's tuned s-depth: rhs length, batch width
/// and precision tag (the conditioning boundary shifts with precision) plus
/// the pool size (the sync-vs-flops balance the tuner measures shifts with
/// the backend's matvec throughput).
std::string ca_tune_key(long rhs_elems, int nrhs, const std::string& precision);

}  // namespace qmg
