#include "parallel/autotune.h"

#include <fstream>
#include <limits>
#include <sstream>

namespace qmg {

TuneCache& TuneCache::instance() {
  static TuneCache cache;
  return cache;
}

bool TuneCache::lookup(const std::string& key,
                       CoarseKernelConfig* config) const {
  MutexLock lock(mutex_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  *config = it->second;
  return true;
}

void TuneCache::store(const std::string& key,
                      const CoarseKernelConfig& config) {
  MutexLock lock(mutex_);
  cache_[key] = config;
}

bool TuneCache::lookup_launch(const std::string& key,
                              LaunchPolicy* policy) const {
  MutexLock lock(mutex_);
  const auto it = launch_cache_.find(key);
  if (it == launch_cache_.end()) return false;
  *policy = it->second;
  return true;
}

void TuneCache::store_launch(const std::string& key,
                             const LaunchPolicy& policy) {
  MutexLock lock(mutex_);
  launch_cache_[key] = policy;
}

bool TuneCache::lookup_param(const std::string& key, int* value) const {
  MutexLock lock(mutex_);
  const auto it = param_cache_.find(key);
  if (it == param_cache_.end()) return false;
  *value = it->second;
  return true;
}

void TuneCache::store_param(const std::string& key, int value) {
  MutexLock lock(mutex_);
  param_cache_[key] = value;
}

void TuneCache::clear() {
  MutexLock lock(mutex_);
  cache_.clear();
  launch_cache_.clear();
  param_cache_.clear();
}

std::vector<CoarseKernelConfig> TuneCache::coarse_candidates(int block_dim) {
  std::vector<CoarseKernelConfig> cands;
  cands.push_back({Strategy::GridOnly, 1, 1, 1});
  cands.push_back({Strategy::GridOnly, 1, 1, 2});
  cands.push_back({Strategy::ColorSpin, 1, 1, 1});
  cands.push_back({Strategy::ColorSpin, 1, 1, 2});
  for (int ds : {3, 9}) cands.push_back({Strategy::StencilDir, ds, 1, 2});
  for (int dot : {2, 4}) {
    if (block_dim % dot == 0 || block_dim > dot)
      cands.push_back({Strategy::DotProduct, 3, dot, 2});
  }
  return cands;
}

std::vector<LaunchPolicy> TuneCache::launch_candidates() {
  std::vector<LaunchPolicy> cands;
  LaunchPolicy serial;
  serial.backend = Backend::Serial;
  cands.push_back(serial);
  if (simd::kMaxSimdWidth > 1) {
    // Native-width lanes (simd_width 0 = auto under Backend::Simd).
    LaunchPolicy lanes;
    lanes.backend = Backend::Simd;
    cands.push_back(lanes);
  }
  if (ThreadPool::instance().num_threads() > 1) {
    for (long grain : {1L, 64L}) {
      LaunchPolicy threaded;
      threaded.backend = Backend::Threaded;
      threaded.grain = grain;
      cands.push_back(threaded);
    }
  }
  return cands;
}

namespace {
/// The widest pack an rhs-lane kernel runs `p` at: float lanes, which are a
/// multiple of the double lanes, so an rhs-blocking aligned to them never
/// splits a pack at either precision.
int widest_rhs_lanes(const LaunchPolicy& p) {
  return rhs_lane_width<float>(p, simd::kSimdWidthLimit);
}
}  // namespace

std::vector<LaunchPolicy> TuneCache::launch_candidates_2d(int nrhs) {
  std::vector<LaunchPolicy> cands;
  std::vector<int> rhs_blocks{0};
  if (nrhs > 1) rhs_blocks.push_back(1);
  if (nrhs >= 8) rhs_blocks.push_back(4);
  // The auto-width Simd and Threaded bases run native lanes of the
  // kernel's precision (rhs_lane_width); an explicit width of 1 keeps the
  // scalar pool in the sweep.
  std::vector<LaunchPolicy> bases = launch_candidates();
  if (ThreadPool::instance().num_threads() > 1) {
    LaunchPolicy scalar;
    scalar.backend = Backend::Threaded;
    scalar.grain = 1;
    scalar.simd_width = 1;
    bases.push_back(scalar);
  }
  for (const auto& base : bases) {
    const int w = widest_rhs_lanes(base);
    for (const int rb : rhs_blocks) {
      // Never emit an rhs-blocking that would split a lane pack across
      // dispatch items (align_rhs_block guards hand-set policies; the
      // tuner simply doesn't explore disagreeing pairs).
      if (w > 1 && rb > 0 && rb % w != 0) continue;
      LaunchPolicy p = base;
      p.rhs_block = rb;
      cands.push_back(p);
    }
  }
  return cands;
}

LaunchPolicy TuneCache::tune_launch(
    const std::string& key,
    const std::function<double(const LaunchPolicy&)>& run) {
  LaunchPolicy best;
  if (lookup_launch(key, &best)) return best;
  double best_time = std::numeric_limits<double>::max();
  for (const auto& cand : launch_candidates()) {
    const double t = run(cand);
    if (t < best_time) {
      best_time = t;
      best = cand;
    }
  }
  store_launch(key, best);
  return best;
}

CoarseKernelConfig TuneCache::tune(
    const std::string& key, int block_dim,
    const std::function<double(const CoarseKernelConfig&)>& run) {
  CoarseKernelConfig best;
  if (lookup(key, &best)) return best;
  double best_time = std::numeric_limits<double>::max();
  for (const auto& cand : coarse_candidates(block_dim)) {
    const double t = run(cand);
    if (t < best_time) {
      best_time = t;
      best = cand;
    }
  }
  store(key, best);
  return best;
}

std::pair<CoarseKernelConfig, LaunchPolicy> TuneCache::tune_joint(
    const std::string& key, int block_dim,
    const std::function<double(const CoarseKernelConfig&,
                               const LaunchPolicy&)>& run) {
  CoarseKernelConfig best_config;
  LaunchPolicy best_policy;
  if (lookup(key, &best_config) && lookup_launch(key, &best_policy))
    return {best_config, best_policy};
  double best_time = std::numeric_limits<double>::max();
  for (const auto& policy : launch_candidates()) {
    for (const auto& config : coarse_candidates(block_dim)) {
      const double t = run(config, policy);
      if (t < best_time) {
        best_time = t;
        best_config = config;
        best_policy = policy;
      }
    }
  }
  store(key, best_config);
  store_launch(key, best_policy);
  return {best_config, best_policy};
}

std::pair<CoarseKernelConfig, LaunchPolicy> TuneCache::tune_joint_2d(
    const std::string& key, int block_dim, int nrhs,
    const std::function<double(const CoarseKernelConfig&,
                               const LaunchPolicy&)>& run) {
  CoarseKernelConfig best_config;
  LaunchPolicy best_policy;
  if (lookup(key, &best_config) && lookup_launch(key, &best_policy))
    return {best_config, best_policy};
  double best_time = std::numeric_limits<double>::max();
  for (const auto& policy : launch_candidates_2d(nrhs)) {
    for (const auto& config : coarse_candidates(block_dim)) {
      const double t = run(config, policy);
      if (t < best_time) {
        best_time = t;
        best_config = config;
        best_policy = policy;
      }
    }
  }
  store(key, best_config);
  store_launch(key, best_policy);
  return {best_config, best_policy};
}

int TuneCache::tune_param(const std::string& key,
                          const std::vector<int>& candidates,
                          const std::function<double(int)>& run) {
  int best = candidates.empty() ? 1 : candidates.front();
  if (lookup_param(key, &best)) return best;
  double best_time = std::numeric_limits<double>::max();
  for (const int cand : candidates) {
    const double t = run(cand);
    if (t < best_time) {
      best_time = t;
      best = cand;
    }
  }
  store_param(key, best);
  return best;
}

namespace {
// Version 6: an L line's simd_width 0 means native lanes of the kernel's
// precision under Threaded and Simd (rhs_lane_width).  Earlier versions
// meant the double-lane cap under Simd and scalar under Threaded by it, so
// their auto entries load with the explicit width they ran at.
// Version 5 adds P lines: scalar algorithm parameters (the CA coarsest
// solver's tuned s-depth), tab-separated key/value like K and L lines.
// Version 4: L lines carry the tuned simd_width and tune keys carry the
// compile-time pack-width tag (/W=).  Version-3 files (no width field,
// keys without /W=) and version-2 files (additionally no /P= precision
// tag) are still loadable (see load): their entries merge — six-token L
// lines get an auto width, resolved as above — and simply never match the
// new width-tagged lookups, so a cache written by a build with a different
// native pack width re-tunes instead of replaying its policies.
constexpr const char* kTuneCacheHeader = "qmg-tune-cache 6";
constexpr const char* kTuneCacheHeaderV5 = "qmg-tune-cache 5";
constexpr const char* kTuneCacheHeaderV4 = "qmg-tune-cache 4";
constexpr const char* kTuneCacheHeaderV3 = "qmg-tune-cache 3";
constexpr const char* kTuneCacheHeaderV2 = "qmg-tune-cache 2";

bool valid_simd_width(int w) {
  return w == 0 || w == 1 || w == 2 || w == 4 || w == 8;
}
}

bool TuneCache::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  MutexLock lock(mutex_);
  out << kTuneCacheHeader << "\n";
  for (const auto& [key, cfg] : cache_)
    out << "K\t" << key << "\t" << static_cast<int>(cfg.strategy) << "\t"
        << cfg.dir_split << "\t" << cfg.dot_split << "\t" << cfg.ilp << "\n";
  for (const auto& [key, p] : launch_cache_)
    out << "L\t" << key << "\t" << static_cast<int>(p.backend) << "\t"
        << p.grain << "\t" << p.sim_block_dim << "\t" << p.rhs_block << "\t"
        << p.simd_width << "\n";
  for (const auto& [key, v] : param_cache_)
    out << "P\t" << key << "\t" << v << "\n";
  return static_cast<bool>(out);
}

bool TuneCache::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) ||
      (line != kTuneCacheHeader && line != kTuneCacheHeaderV5 &&
       line != kTuneCacheHeaderV4 && line != kTuneCacheHeaderV3 &&
       line != kTuneCacheHeaderV2))
    return false;
  const bool legacy_auto_width = line != kTuneCacheHeader;
  // Parse into staging maps and commit only on full success, so a corrupt
  // or truncated file never half-merges into the live cache.  Every field
  // is range-checked: loaded values feed stack-array extents in the
  // kernels (coarse_row's dir_partial[9]) and backend switches, so an
  // out-of-range value must be rejected here, not executed.
  std::map<std::string, CoarseKernelConfig> staged;
  std::map<std::string, LaunchPolicy> staged_launch;
  std::map<std::string, int> staged_param;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Tab-separated: tag, key, then the numeric policy fields (keys never
    // contain tabs).
    std::vector<std::string> tok;
    size_t pos = 0;
    while (pos <= line.size()) {
      const size_t tab = line.find('\t', pos);
      if (tab == std::string::npos) {
        tok.push_back(line.substr(pos));
        break;
      }
      tok.push_back(line.substr(pos, tab - pos));
      pos = tab + 1;
    }
    try {
      if (tok.size() == 6 && tok[0] == "K") {
        const int strategy = std::stoi(tok[2]);
        CoarseKernelConfig cfg;
        cfg.strategy = static_cast<Strategy>(strategy);
        cfg.dir_split = std::stoi(tok[3]);
        cfg.dot_split = std::stoi(tok[4]);
        cfg.ilp = std::stoi(tok[5]);
        if (strategy < static_cast<int>(Strategy::GridOnly) ||
            strategy > static_cast<int>(Strategy::DotProduct) ||
            cfg.dir_split < 1 || cfg.dir_split > 9 || cfg.dot_split < 1 ||
            cfg.dot_split > 8 || cfg.ilp < 1 || cfg.ilp > 4)
          return false;
        staged[tok[1]] = cfg;
      } else if ((tok.size() == 6 || tok.size() == 7) && tok[0] == "L") {
        const int backend = std::stoi(tok[2]);
        LaunchPolicy p;
        p.backend = static_cast<Backend>(backend);
        p.grain = std::stol(tok[3]);
        p.sim_block_dim = std::stoi(tok[4]);
        p.rhs_block = std::stoi(tok[5]);
        // Six-token lines are v3/v2 entries written before lane widths
        // existed: scalar by construction.
        p.simd_width = tok.size() == 7 ? std::stoi(tok[6]) : 0;
        if (backend < static_cast<int>(Backend::Serial) ||
            backend > static_cast<int>(Backend::Simd) || p.grain < 0 ||
            p.sim_block_dim < 1 || p.rhs_block < 0 ||
            !valid_simd_width(p.simd_width))
          return false;
        if (legacy_auto_width && p.simd_width == 0) {
          if (p.backend == Backend::Simd) p.simd_width = simd::kMaxSimdWidth;
          if (p.backend == Backend::Threaded) p.simd_width = 1;
        }
        // A policy whose rhs-blocking would split a lane pack across
        // dispatch items is invalid however it got into a file.
        const int w = widest_rhs_lanes(p);
        if (w > 1 && p.rhs_block > 0 && p.rhs_block % w != 0) return false;
        staged_launch[tok[1]] = p;
      } else if (tok.size() == 3 && tok[0] == "P") {
        const int v = std::stoi(tok[2]);
        // Scalar parameters feed basis depths and loop trip counts: only a
        // small positive value is plausible, reject anything else.
        if (v < 1 || v > 64) return false;
        staged_param[tok[1]] = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  MutexLock lock(mutex_);
  for (auto& [key, cfg] : staged) cache_[key] = cfg;
  for (auto& [key, p] : staged_launch) launch_cache_[key] = p;
  for (auto& [key, v] : staged_param) param_cache_[key] = v;
  return true;
}

std::string coarse_tune_key(long volume, int block_dim,
                            const std::string& precision) {
  std::ostringstream os;
  // The optimal decomposition AND backend depend on the pool size, and the
  // explored launch candidates do too — a policy tuned at one pool size
  // must not be replayed at another.  The precision tag keeps kernels of
  // different element precision (double/float accumulation, compressed
  // storage) from sharing one cached config.
  os << "coarse_apply/V=" << volume << "/N=" << block_dim
     << "/P=" << precision << "/W=" << simd::kMaxSimdWidth
     << "/T=" << ThreadPool::instance().num_threads();
  return os.str();
}

std::string mrhs_tune_key(long volume, int block_dim, int nrhs,
                          const std::string& precision) {
  std::ostringstream os;
  // Like coarse_tune_key, plus the rhs count: the optimal rhs-blocking
  // (and whether threading pays at all) shifts with the batch width.
  os << "coarse_apply_mrhs/V=" << volume << "/N=" << block_dim
     << "/R=" << nrhs << "/P=" << precision
     << "/W=" << simd::kMaxSimdWidth
     << "/T=" << ThreadPool::instance().num_threads();
  return os.str();
}

std::string ca_tune_key(long rhs_elems, int nrhs, const std::string& precision) {
  std::ostringstream os;
  // The optimal s balances the per-sync latency saved (grows with the pool's
  // matvec throughput) against the monomial basis conditioning (shifts with
  // element precision), so both tag the key alongside the problem shape.
  os << "ca_coarsest_s/V=" << rhs_elems << "/R=" << nrhs
     << "/P=" << precision << "/W=" << simd::kMaxSimdWidth
     << "/T=" << ThreadPool::instance().num_threads();
  return os.str();
}

std::string CoarseKernelConfig::to_string() const {
  std::ostringstream os;
  os << qmg::to_string(strategy) << " dir_split=" << dir_split
     << " dot_split=" << dot_split << " ilp=" << ilp;
  return os.str();
}

}  // namespace qmg
