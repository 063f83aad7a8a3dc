// qmg_bench — one workload of the qmg benchmark, in one process.
//
//   qmg_bench --workload=<prop-fine|prop-critical-dist|solo|stream>
//             --seed=<n> --seconds=<s> [--trace-out=<file.json>]
//
// Measures the library from outside, through its public API only:
// QmgContext construction, setup_multigrid, update_gauge and
// solve(SolveSpec) end to end, and — in a traced run (--trace-out) — the
// layer entry points replayed at the workload's own shapes on the
// workload's own hierarchy.  Every workload is a closed loop: one caller
// that waits for each solve.  The run is
//
//   1. warm-up: one untimed iteration (setup + solve) on configuration 0,
//      the reference configuration shared by every seed, so the TuneCache
//      is full; its solve is the COUNTED solve whose exact counts
//      (iterations, matvecs, applies, messages, allreduces) must repeat in
//      every run;
//   2. traced runs only: the layer replays on configuration 0;
//   3. the timed loop: fresh configurations 1, 2, ... (each a new gauge
//      field, MG seed and source origin drawn from --seed) until --seconds
//      have elapsed; every metric is a median over these iterations, so a
//      run averages over an ensemble rather than riding one configuration.
//      Each iteration also times one BiCGStab control solve (see
//      Bench::set_control);
//   4. traced runs only: the hierarchy-lifecycle replay on configuration 0.
//
// Every MG and BiCGStab solution is checked against its recomputed true
// residual, and the BiCGStab solution against the MG one.  Output: ONE JSON
// object on stdout (metrics, raw samples, exact counts, checks, provenance);
// benchmark/run.py turns it into the metric table.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "comm/dist_wilson.h"
#include "core/qmg.h"
#include "linalg/simd.h"
#include "parallel/thread_pool.h"
#include "roofline.h"
#include "trace.h"
#include "util/cli.h"

#ifndef QMG_BENCH_CXX_FLAGS
#define QMG_BENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace qmg;
using qmg_bench::TraceRecorder;
using Field = ColorSpinorField<double>;

constexpr int kNSrc = 12;            // one propagator: 4 spins x 3 colours
constexpr double kTol = 1e-7;        // |r|/|b| target of every solve
constexpr double kRoughness = 0.5;   // synthetic-ensemble disorder
constexpr double kStreamStep = 0.2;  // GaugeStream's stationary step size
// MG and BiCGStab solve the same system to kTol from opposite methods; their
// solutions must agree to within the condition number times the tolerance.
// Largest disagreement seen while sizing: see README.md.
constexpr double kAgreeBound = 1e-4;
constexpr int kStreamRefreshes = 2;  // refreshed configurations per round
constexpr int kReplayRanks = 4;      // virtual ranks of the comm replay
// Gauge and MG seed of configuration 0, the reference configuration every
// run shares whatever its --seed (warm-up, exact counts, replays, control).
constexpr std::uint64_t kReferenceSeed = 7;

struct Workload {
  std::string name;
  Coord dims;
  double mass = 0;
  std::vector<MgLevelConfig> levels;
  int nranks = 0;      // > 0: distributed block solve on this many ranks
  bool solo = false;   // 12 single-rhs solves instead of one block solve
  bool stream = false; // GaugeStream refreshes after each scratch setup
  int threads = 1;     // qmg pool size
  int nrhs() const { return solo ? 1 : kNSrc; }
};

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

MgLevelConfig level(int block, int nvec, int null_iters) {
  MgLevelConfig l;
  l.block = {block, block, block, block};
  l.nvec = nvec;
  l.null_iters = null_iters;
  return l;
}

// The four workloads; README.md records why each was chosen.  Scratch
// setups use 20 relaxation sweeps, which converge as fast as 40-100 here
// (the adaptive pass does the rest); the stream keeps 60 so a scratch setup
// costs what the refresh (20 sweeps) exists to avoid.  solo and stream run
// single-threaded: their many small kernels make multi-threaded timings on
// shared hosts swing by 1.5x between runs, which no bound could hold.
bool make_workload(const std::string& name, Workload& w) {
  const int cpus = online_cpus();
  w.name = name;
  w.threads = 1;
  if (name == "prop-fine") {
    w.threads = std::min(4, cpus);
    // Large aggregates leave a tiny coarse grid: the fine dslash, the L0
    // transfers and the fine-grid BLAS dominate.
    w.dims = {8, 8, 8, 8};
    w.mass = -0.03;
    w.levels = {level(4, 16, 20)};
  } else if (name == "prop-critical-dist" || name == "solo") {
    // Near-critical mass and two coarse levels: the coarse grids and the
    // coarsest solve carry the solve, and MG beats BiCGStab.  -0.14 rather
    // than closer to critical keeps MG iteration counts steady across
    // configurations (9-10; at -0.15 they range 9-14).
    w.dims = {8, 8, 8, 8};
    w.mass = -0.14;
    w.levels = {level(2, 12, 20), level(2, 12, 20)};
    if (name == "solo") {
      w.solo = true;
    } else {
      w.nranks = 4;
      w.threads = std::max(1, cpus - 1);  // leave the comm worker a core
    }
  } else if (name == "stream") {
    w.dims = {8, 8, 8, 4};
    w.mass = -0.03;
    w.levels = {level(2, 8, 60)};
    w.stream = true;
  } else {
    return false;
  }
  return true;
}

/// splitmix64 of (seed, index): the gauge seed, MG seed and source origin
/// of configuration `index` of a run.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One gauge configuration with its context, MG parameters and sources.
struct Config {
  std::unique_ptr<QmgContext> ctx;
  MgConfig mg;
  std::vector<Field> sources;
};

Config make_config(const Workload& w, std::uint64_t config_seed) {
  Config c;
  ContextOptions o;
  o.dims = w.dims;
  o.mass = w.mass;
  o.roughness = kRoughness;
  o.seed = config_seed;
  o.threads = w.threads;
  c.ctx = std::make_unique<QmgContext>(o);
  c.mg.levels = w.levels;
  c.mg.seed = o.seed;
  const auto volume =
      static_cast<std::uint64_t>(c.ctx->geometry()->volume());
  const auto origin = static_cast<long>(o.seed % volume);
  for (int k = 0; k < kNSrc; ++k) {
    c.sources.push_back(c.ctx->create_vector());
    c.sources.back().point_source(origin, k / 3, k % 3);
  }
  return c;
}

/// Correctness gate: every solution's true residual recomputed through the
/// double-precision operator, and BiCGStab checked against MG.
struct Checker {
  long attempted = 0;
  long failed = 0;
  double max_true_residual = 0;
  double max_disagreement = 0;
  std::vector<std::string> errors;

  void error(const std::string& msg) {
    if (errors.size() < 20) errors.push_back(msg);
  }

  void solution(const QmgContext& ctx, const Field& x, const Field& b,
                const SolverResult& r, const std::string& what) {
    ++attempted;
    auto mx = ctx.create_vector();
    ctx.op().apply(mx, x);
    blas::axpy(-1.0, b, mx);
    const double rel = std::sqrt(blas::norm2(mx) / blas::norm2(b));
    if (std::isfinite(rel))
      max_true_residual = std::max(max_true_residual, rel);
    if (!r.converged || !(rel <= 2 * kTol)) {
      ++failed;
      error(what + ": converged=" + (r.converged ? "1" : "0") +
            " true residual " + std::to_string(rel));
    }
  }

  void agreement(const Field& x_mg, const Field& x_bicg) {
    auto d = x_bicg;
    blas::axpy(-1.0, x_mg, d);
    const double rel = std::sqrt(blas::norm2(d) / blas::norm2(x_mg));
    if (std::isfinite(rel)) max_disagreement = std::max(max_disagreement, rel);
    if (!(rel <= kAgreeBound))
      error("MG and BiCGStab solutions differ by " + std::to_string(rel));
  }

  bool ok() const { return failed == 0 && errors.empty(); }
};

/// Exact counts of the counted solve on the reference configuration: the
/// same in every run of a workload.
struct Counts {
  long outer_iters = 0, block_matvecs = 0, block_reductions = 0;
  long messages = 0, coarse_messages = 0, bytes = 0, allreduces = 0;
  std::vector<long> applies;  // per level, per-rhs operator applications
  long bicgstab_iters = 0, single_iters = 0;
  long escalations = 0, cache_hits = 0;
};

/// The 12-rhs propagator solve of the workload: one block solve (nranks
/// virtual ranks when distributed), or 12 single-rhs solves on `solo`.
SolveReport solve_propagator(const Workload& w, QmgContext& ctx,
                             const std::vector<Field>& src,
                             std::vector<Field>& x) {
  SolveSpec spec;
  spec.tol = kTol;
  spec.nranks = w.nranks;
  if (!w.solo) return ctx.solve(x, src, spec);
  SolveReport all;
  all.nrhs = kNSrc;
  for (int k = 0; k < kNSrc; ++k) {
    const SolveReport r = ctx.solve(x[k], src[k], spec);
    all.rhs.push_back(r.result());
    all.block_matvecs += r.result().matvecs;
    all.block_reductions += r.result().reductions;
    all.seconds += r.seconds;
  }
  return all;
}

/// Resizes the qmg pool for the enclosing scope.
class ScopedPoolSize {
 public:
  explicit ScopedPoolSize(int n)
      : saved_(ThreadPool::instance().num_threads()) {
    ThreadPool::instance().resize(n);
  }
  ~ScopedPoolSize() { ThreadPool::instance().resize(saved_); }
  ScopedPoolSize(const ScopedPoolSize&) = delete;
  ScopedPoolSize& operator=(const ScopedPoolSize&) = delete;

 private:
  int saved_;
};

struct Samples {
  std::vector<double> setup, solve, tts, config, bicgstab, update, restore;
  std::vector<double> iters;  // outer iterations of each propagator solve
  std::vector<SetupTimings> phases;
};

class Bench {
 public:
  Bench(Workload w, TraceRecorder& tracer) : w_(std::move(w)), tr_(tracer) {}

  /// The MG-free control: the reference configuration's source 0 solved
  /// once by single-rhs MG (the reference solution, and the single-rhs
  /// iteration count), then by mixed BiCGStab, single-threaded, once per
  /// workload iteration.  The same system on one thread every time, so its
  /// time moves only with the BiCGStab code path, not with the seed's
  /// ensemble or the pool's scheduling.
  void set_control(Config& c0, Counts& counts) {
    control_ = &c0;
    QmgContext& ctx = *c0.ctx;
    x_ref_ = ctx.create_vector();
    SolveSpec spec;
    spec.tol = kTol;
    const SolveReport r = ctx.solve(x_ref_, c0.sources[0], spec);
    check_.solution(ctx, x_ref_, c0.sources[0], r.result(),
                    w_.name + " control, single-rhs MG");
    counts.single_iters = r.result().iterations;
    bicgstab_control(0, &counts.bicgstab_iters);
  }

  /// Setup + propagator on `c`, checked, plus one BiCGStab control solve.
  /// Times land in `s` (null during the warm-up).
  void iterate(Config& c, int index, Samples* s, Counts* counts) {
    QmgContext& ctx = *c.ctx;
    const double t_setup = tr_.timed("setup_multigrid", "setup", index,
                                     [&] { ctx.setup_multigrid(c.mg); });
    const SetupTimings phases = ctx.multigrid().setup_timings();
    SolveReport rep;
    const double t_solve = solve_checked(c, index, counts, rep);
    if (s) {
      const double t_bicg = bicgstab_control(index, nullptr);
      s->setup.push_back(t_setup);
      s->solve.push_back(t_solve);
      s->tts.push_back(t_setup + t_solve);
      // Outside a stream every configuration is handled from scratch.
      if (!w_.stream) s->config.push_back(t_setup + t_solve);
      s->bicgstab.push_back(t_bicg);
      s->iters.push_back(static_cast<double>(outer_iterations(rep)));
      s->phases.push_back(phases);
    } else if (measure_first_call_) {
      // The tuning cost: the first solve against the same solve again.
      SolveReport again;
      resolve_s_ = solve_checked(c, index, nullptr, again);
      first_call_s_ = t_solve - resolve_s_;
    }
  }

  /// One stream round on configuration `c`: scratch setup + solve, then
  /// `refreshes` GaugeStream steps through update_gauge (each solved), then
  /// a revisit of the first refreshed configuration, restored from the
  /// hierarchy cache.
  void stream_round(Config& c, int index, int refreshes, Samples* s,
                    Counts* counts) {
    QmgContext& ctx = *c.ctx;
    iterate(c, index, s, counts);
    GaugeStream::Params sp;
    sp.roughness = kRoughness;
    sp.seed = ctx.options().seed;
    sp.step = kStreamStep;
    GaugeStream stream(ctx.geometry(), sp);
    std::string revisit_id;
    GaugeField<double> revisit_gauge;
    for (int step = 1; step <= refreshes; ++step) {
      stream.advance();
      GaugeUpdateReport urep;
      const double t_update =
          tr_.timed("update_gauge", "update", index, [&] {
            urep = ctx.update_gauge(stream.config_id(), stream.current());
          });
      if (urep.restored_from_cache || !urep.hierarchy_updated)
        check_.error("stream refresh of " + stream.config_id() +
                     " did not refresh the hierarchy");
      SolveReport rep;
      const double t_solve = solve_checked(c, index, nullptr, rep);
      if (s) {
        const double t_bicg = bicgstab_control(index, nullptr);
        s->update.push_back(t_update);
        s->config.push_back(t_update + t_solve);
        s->solve.push_back(t_solve);
        s->bicgstab.push_back(t_bicg);
        s->iters.push_back(static_cast<double>(outer_iterations(rep)));
      }
      if (step == 1) {
        revisit_id = stream.config_id();
        revisit_gauge = stream.current();
      }
    }
    GaugeUpdateReport urep;
    const double t_restore = tr_.timed("restore", "update", index, [&] {
      urep = ctx.update_gauge(revisit_id, revisit_gauge);
    });
    if (!urep.restored_from_cache)
      check_.error("revisit of " + revisit_id + " missed the hierarchy cache");
    SolveReport rep;
    const double t_solve = solve_checked(c, index, nullptr, rep);
    if (s) {
      s->restore.push_back(t_restore);
      s->solve.push_back(t_solve);
      s->iters.push_back(static_cast<double>(outer_iterations(rep)));
    }
  }

  const Checker& check() const { return check_; }
  Checker& check() { return check_; }
  /// Traced runs: time the warm-up solve twice to expose the tuning cost.
  void measure_first_call() { measure_first_call_ = true; }
  double first_call_s() const { return first_call_s_; }
  /// The counted solve repeated once tuned (traced runs).
  double resolve_s() const { return resolve_s_; }

 private:
  /// Outer iterations of a propagator: the block solve's (its slowest
  /// rhs), or the sum over the 12 single-rhs solves.
  long outer_iterations(const SolveReport& rep) const {
    long n = 0;
    for (const auto& r : rep.rhs)
      n = w_.solo ? n + r.iterations : std::max<long>(n, r.iterations);
    return n;
  }

  double solve_checked(Config& c, int index, Counts* counts, SolveReport& rep) {
    QmgContext& ctx = *c.ctx;
    Multigrid<float>& mg = ctx.multigrid();
    if (counts) {
      for (int l = 0; l < mg.num_levels(); ++l) mg.op(l).reset_apply_count();
      mg.reset_coarsest_comm_stats();
    }
    std::vector<Field> x;
    for (int k = 0; k < kNSrc; ++k) x.push_back(ctx.create_vector());
    const double t = tr_.timed("solve", "solve", index, [&] {
      rep = solve_propagator(w_, ctx, c.sources, x);
    });
    for (int k = 0; k < kNSrc; ++k)
      check_.solution(ctx, x[k], c.sources[k], rep.rhs.at(k),
                      w_.name + " config " + std::to_string(index) + " rhs " +
                          std::to_string(k));
    if (counts) {
      counts->outer_iters = outer_iterations(rep);
      counts->block_matvecs = rep.block_matvecs;
      counts->block_reductions = rep.block_reductions;
      counts->messages = rep.comm.messages;
      counts->coarse_messages = rep.coarse_comm.messages;
      counts->bytes = rep.comm.message_bytes;
      counts->allreduces =
          rep.comm.allreduces + mg.coarsest_comm_stats().allreduces;
      counts->applies.clear();
      for (int l = 0; l < mg.num_levels(); ++l)
        counts->applies.push_back(mg.op(l).apply_count());
    }
    return t;
  }

  /// One mixed-BiCGStab solve of the control system, checked against its
  /// true residual and the MG reference solution.
  double bicgstab_control(int index, long* iterations) {
    QmgContext& ctx = *control_->ctx;
    SolveSpec spec;
    spec.method = SolveMethod::BiCgStab;
    spec.tol = kTol;
    auto x = ctx.create_vector();
    SolveReport rep;
    const ScopedPoolSize one_thread(1);
    const double t = tr_.timed("bicgstab", "solve", index, [&] {
      rep = ctx.solve(x, control_->sources[0], spec);
    });
    check_.solution(ctx, x, control_->sources[0], rep.result(),
                    w_.name + " control, BiCGStab");
    check_.agreement(x_ref_, x);
    if (iterations) *iterations = rep.result().iterations;
    return t;
  }

  Workload w_;
  TraceRecorder& tr_;
  Checker check_;
  Config* control_ = nullptr;
  Field x_ref_;
  bool measure_first_call_ = false;
  double first_call_s_ = 0;
  double resolve_s_ = 0;
};

// --- layer replays (traced runs) --------------------------------------------

template <typename T>
void fill_block(BlockSpinor<T>& b, std::uint64_t seed) {
  for (long i = 0; i < b.size(); ++i) {
    const std::uint64_t h = mix(seed, static_cast<std::uint64_t>(i));
    const auto re = static_cast<T>((h & 0xffff) / 65536.0 - 0.5);
    const auto im = static_cast<T>((h >> 16 & 0xffff) / 65536.0 - 0.5);
    b.data()[i] = Complex<T>(re, im);
  }
}

/// Median wall seconds of `fn` over enough calls to fill ~0.25 s (at least
/// 5, at most 50), after one untimed call; each call is a span.
template <typename Fn>
double replay(TraceRecorder& tr, const char* name, const char* cat, Fn&& fn) {
  const double first = tr.timed(name, cat, -1, fn);
  const int n =
      std::clamp(static_cast<int>(0.25 / std::max(first, 1e-6)), 5, 50);
  std::vector<double> t;
  for (int i = 0; i < n; ++i) t.push_back(tr.timed(name, cat, -1, fn));
  return median(t);
}

/// (name, (value, unit)) in output order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

struct LayerReplay {
  const Workload& w;
  Config& c;
  TraceRecorder& tr;
  Counts& counts;
  double triad_gbps;
  Metrics& out;
  Metrics& analytic;  // computed bytes and flops per replayed call
  double apply_seconds = 0;  // counted solve's applications, priced

  void put(const std::string& name, double v, const char* unit) {
    out.push_back({name, {v, unit}});
  }

  /// Achieved rate of a replayed kernel against the triad, and its
  /// computed traffic, as `<layer>.gbps<level>` / `<layer>.roofline<level>`.
  void rate(const std::string& layer, const std::string& level, double t,
            const qmg_bench::Traffic& traffic) {
    const double gbps = traffic.bytes / t / 1e9;
    put(layer + ".gbps" + level, gbps, "GB/s");
    put(layer + ".roofline" + level, gbps / triad_gbps, "fraction");
    analytic.push_back({layer + level + ".bytes", {traffic.bytes, "B"}});
    analytic.push_back({layer + level + ".flops", {traffic.flops, "flop"}});
  }

  void run() {
    QmgContext& ctx = *c.ctx;
    Multigrid<float>& mg = ctx.multigrid();
    const int nrhs = w.nrhs();
    const int nl = mg.num_levels();
    const int last = nl - 1;
    if (w.nranks > 0) mg.enable_distributed_coarse(w.nranks);

    // Operator applications per level, in the cycle's precision (float),
    // through the distributed adapter where the level runs distributed:
    // apply_block at the workload's nrhs, or with `single` the single-rhs
    // apply() that solo's solves run.
    auto op_time = [&](const LinearOperator<float>& op, const std::string& name,
                       int l, int n, bool single) {
      const char* cat = l == 0 ? "dirac" : "coarse";
      if (single) {
        auto in = op.create_vector();
        in.gaussian(10 + l);
        auto o = op.create_vector();
        return replay(tr, (name + "(single)").c_str(), cat,
                      [&] { op.apply(o, in); });
      }
      auto in = op.create_block(n);
      fill_block(in, 10 + l);
      auto o = in.similar();
      return replay(tr, (name + "(" + std::to_string(n) + ")").c_str(), cat,
                    [&] { op.apply_block(o, in); });
    };
    auto full_time = [&](int l, int n, bool single) {
      const LinearOperator<float>* dist =
          l > 0 ? mg.distributed_block_op(l) : nullptr;
      return op_time(dist ? *dist : mg.op(l), "apply.L" + std::to_string(l), l,
                     n, single);
    };
    // The even-odd (Schur) application: what the smoothers and the coarsest
    // solve run, and what most of a level's counted applications are.
    auto schur_time = [&](int l, int n, bool single) {
      const std::string name = "schur_apply.L" + std::to_string(l);
      if (l == 0) return op_time(*mg.schur_fine(), name, l, n, single);
      if (const auto* dist = mg.distributed_schur_op(l))
        return op_time(*dist, name, l, n, single);
      const SchurCoarseOp<float> schur(mg.coarse_op(l - 1));
      return op_time(schur, name, l, n, single);
    };
    // t_path: the full application the workload's solve runs (block, or
    // single-rhs on solo), reported per layer.  Counted applications are
    // priced at the Schur application's time: s_block inside cycle_block,
    // s_path inside the workload's solve.
    std::vector<double> t_path(nl), s_block(nl), s_path(nl);
    for (int l = 0; l < nl; ++l) {
      t_path[l] = full_time(l, nrhs, w.solo);
      s_block[l] = schur_time(l, nrhs, false);
      s_path[l] = w.solo ? schur_time(l, 1, true) : s_block[l];
    }
    const long vol = ctx.geometry()->volume();
    put("dirac.apply_s", t_path[0], "s");
    put("dirac.apply1_s", full_time(0, 1, false), "s");
    rate("dirac", "", t_path[0],
         qmg_bench::wilson_clover_traffic(vol, nrhs, sizeof(float)));

    // Coarse: level 1 and the coarsest level (the same level on a two-level
    // hierarchy).
    auto coarse_traffic = [&](int l) {
      const CoarseDirac<float>& op = mg.coarse_op(l - 1);
      const bool half = op.storage() == CoarseStorage::Half16;
      return qmg_bench::coarse_traffic(op.geometry()->volume(), op.block_dim(),
                                       nrhs, half ? 2.0 : sizeof(float), half,
                                       sizeof(float));
    };
    put("coarse.apply_s.L1", t_path[1], "s");
    put("coarse.apply1_s.L1", full_time(1, 1, false), "s");
    rate("coarse", ".L1", t_path[1], coarse_traffic(1));
    put("coarse.apply_s.coarsest", t_path[last], "s");
    rate("coarse", ".coarsest", t_path[last], coarse_traffic(last));

    auto fine_in = mg.op(0).create_block(nrhs);
    fill_block(fine_in, 1);
    auto fine_out = fine_in.similar();

    // L0 transfers.
    const Transfer<float>& t0 = mg.transfer(0);
    auto coarse_blk = t0.create_coarse_block(nrhs);
    const double t_restrict =
        replay(tr, "transfer.restrict.L0", "transfer",
               [&] { t0.restrict_to_coarse(coarse_blk, fine_in); });
    const double t_prolong =
        replay(tr, "transfer.prolongate.L0", "transfer",
               [&] { t0.prolongate(fine_out, coarse_blk); });
    put("transfer.restrict_s.L0", t_restrict, "s");
    put("transfer.prolong_s.L0", t_prolong, "s");
    rate("transfer", ".L0", t_restrict,
         qmg_bench::transfer_traffic(vol, 12, t0.coarse_geometry()->volume(),
                                     t0.nvec(), nrhs, sizeof(float)));

    // Whole cycles at L0 and L1.  "other" is the cycle time not explained by
    // its operator applications (counted during one cycle, priced at the
    // replayed Schur application) and, at L0, by the replayed L0 transfers:
    // smoother and Krylov BLAS, deeper transfers, allocation.
    for (int l = 0; l < 2; ++l) {
      auto b = mg.op(l).create_block(nrhs);
      fill_block(b, 20 + l);
      auto x = b.similar();
      std::vector<long> before(nl);
      for (int j = 0; j < nl; ++j) before[j] = mg.op(j).apply_count();
      const std::string name = "cycle_block.L" + std::to_string(l);
      tr.timed(name.c_str(), "cycle", -1, [&] { mg.cycle_block(l, x, b); });
      double explained = l == 0 ? t_restrict + t_prolong : 0;
      for (int j = l; j < nl; ++j)
        explained += static_cast<double>(mg.op(j).apply_count() - before[j]) /
                     nrhs * s_block[j];
      const double t = replay(tr, name.c_str(), "cycle",
                              [&] { mg.cycle_block(l, x, b); });
      put("cycle.s.L" + std::to_string(l), t, "s");
      put("cycle.other_s.L" + std::to_string(l), t - explained, "s");
    }

    // Fine-grid block BLAS.
    auto y = fine_in.similar();
    fill_block(y, 3);
    const std::vector<float> a(static_cast<size_t>(nrhs), 0.5f);
    const double t_axpy = replay(tr, "blas.block_axpy", "blas",
                                 [&] { blas::block_axpy(a, fine_in, y); });
    std::vector<complexd> dots;
    put("blas.axpy_s", t_axpy, "s");
    put("blas.cdot_s", replay(tr, "blas.block_cdot", "blas", [&] {
          dots = blas::block_cdot(fine_in, y);
        }), "s");
    rate("blas", "", t_axpy,
         qmg_bench::axpy_traffic(fine_in.rhs_size(), nrhs, sizeof(float)));

    // Distributed fine apply, the outer operator of a distributed solve:
    // halo-exchange and exposed (not hidden by interior work) wall time per
    // apply.
    {
      const auto dec = make_decomposition(ctx.geometry(), kReplayRanks);
      const DistributedWilsonOp<double> dist(ctx.gauge(), ctx.op().params(),
                                             &ctx.clover(), dec);
      DistributedBlockWilsonOp<double> op(dist, HaloMode::Overlapped);
      auto in = ctx.op().create_block(nrhs);
      fill_block(in, 4);
      auto o = in.similar();
      op.apply_block(o, in);
      op.reset_comm_stats();
      put("comm.dist_apply_s", replay(tr, "comm.dist_apply_block", "comm",
                                      [&] { op.apply_block(o, in); }), "s");
      const CommStats& st = op.comm_stats();
      const auto applies =
          static_cast<double>(std::max(1L, st.overlapped_applies));
      put("comm.exchange_s", st.exchange_seconds / applies, "s");
      put("comm.exposed_s", st.exposed_exchange_seconds() / applies, "s");
    }
    if (w.nranks > 0) mg.disable_distributed_coarse();

    put("setup.probe_s", replay(tr, "probe_quality", "setup",
                                [&] { (void)mg.probe_quality(); }), "s");

    for (int l = 0; l < nl; ++l)
      apply_seconds +=
          static_cast<double>(counts.applies.at(l)) / nrhs * s_path[l];
  }

  /// Hierarchy lifecycle on configuration 0: three GaugeStream refreshes
  /// through update_gauge, then two cache restores.  Runs last: restores
  /// leave the hierarchy in Half16 storage.
  void lifecycle() {
    QmgContext& ctx = *c.ctx;
    GaugeStream::Params sp;
    sp.roughness = kRoughness;
    sp.seed = ctx.options().seed;
    sp.step = kStreamStep;
    GaugeStream stream(ctx.geometry(), sp);
    const long hits0 = ctx.hierarchy_cache().stats().hits;
    std::vector<double> update, restore;
    std::vector<std::pair<std::string, GaugeField<double>>> kept;
    for (int i = 1; i <= 3; ++i) {
      stream.advance();
      const std::string id = "replay-" + std::to_string(i);
      GaugeUpdateReport rep;
      update.push_back(tr.timed("update_gauge", "update", -1, [&] {
        rep = ctx.update_gauge(id, stream.current());
      }));
      counts.escalations += rep.escalated ? 1 : 0;
      if (i < 3) kept.emplace_back(id, stream.current());
    }
    for (const auto& [id, gauge] : kept)
      restore.push_back(tr.timed("restore", "update", -1,
                                 [&] { (void)ctx.update_gauge(id, gauge); }));
    counts.cache_hits = ctx.hierarchy_cache().stats().hits - hits0;
    put("setup.update_s", median(update), "s");
    put("setup.restore_s", median(restore), "s");
    put("setup.escalations", static_cast<double>(counts.escalations), "count");
    put("setup.cache_hits", static_cast<double>(counts.cache_hits), "count");
  }
};

/// The counted solve's exact counts, by metric name.
Metrics exact_metrics(const Counts& c) {
  const auto n = [](long v) { return static_cast<double>(v); };
  auto level = [&](size_t l) {
    return n(l < c.applies.size() ? c.applies[l] : 0);
  };
  const size_t last = c.applies.empty() ? 0 : c.applies.size() - 1;
  return {
      {"solvers.outer_iters", {n(c.outer_iters), "count"}},
      {"solvers.block_matvecs", {n(c.block_matvecs), "count"}},
      {"solvers.block_reductions", {n(c.block_reductions), "count"}},
      {"solvers.single_iters", {n(c.single_iters), "count"}},
      {"solvers.bicgstab_iters", {n(c.bicgstab_iters), "count"}},
      {"comm.messages", {n(c.messages), "count"}},
      {"comm.coarse_messages", {n(c.coarse_messages), "count"}},
      {"comm.bytes", {n(c.bytes), "count"}},
      {"comm.allreduces", {n(c.allreduces), "count"}},
      {"dirac.applies", {level(0), "count"}},
      {"coarse.applies.L1", {level(1), "count"}},
      {"coarse.applies.coarsest", {level(last), "count"}},
  };
}

// --- JSON output ------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      o += ' ';
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jarr(const std::vector<double>& v) {
  std::string o = "[";
  for (size_t i = 0; i < v.size(); ++i) o += (i ? "," : "") + jnum(v[i]);
  return o + "]";
}

std::string isa_flags() {
  std::string o;
  auto add = [&](bool on, const char* name) {
    if (on) o += (o.empty() ? "" : " ") + std::string(name);
  };
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
#endif
  return o.empty() ? "baseline" : o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  Workload w;
  if (!make_workload(args.get("workload", ""), w)) {
    std::fprintf(stderr,
                 "usage: qmg_bench --workload=<prop-fine|prop-critical-dist|"
                 "solo|stream> --seed=<n> --seconds=<s> "
                 "[--trace-out=<file>]\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double seconds = args.get_double("seconds", 20);
  const std::string trace_out = args.get("trace-out", "");
  const bool traced = !trace_out.empty();
  TraceRecorder tracer(traced);
  Bench bench(w, tracer);
  if (traced) bench.measure_first_call();
  Counts counts;
  Metrics layers, analytic;
  Samples samples;
  qmg_bench::TriadResult triad;
  double apply_seconds = 0;

  try {
    // 1. Warm-up on configuration 0; its solve is the counted solve.  The
    //    configuration stays alive as the BiCGStab control.
    Config c0 = make_config(w, kReferenceSeed);
    if (w.stream)
      bench.stream_round(c0, 0, 1, nullptr, &counts);
    else
      bench.iterate(c0, 0, nullptr, &counts);
    bench.set_control(c0, counts);
    // 2. Layer replays on configuration 0 (traced runs).
    LayerReplay replay{w, c0, tracer, counts, 0, layers, analytic};
    if (traced) {
      if (w.stream) c0.ctx->setup_multigrid(c0.mg);  // native storage again
      triad = qmg_bench::stream_triad(w.threads);
      layers.push_back({"host.triad_gbps", {triad.gbps, "GB/s"}});
      replay.triad_gbps = triad.gbps;
      replay.run();
    }
    // 3. Timed loop over fresh configurations.
    const Timer clock;
    for (int i = 1; i == 1 || clock.seconds() < seconds; ++i) {
      Config c = make_config(w, mix(seed, static_cast<std::uint64_t>(i)));
      tracer.timed("configuration", "workload", i, [&] {
        if (w.stream)
          bench.stream_round(c, i, kStreamRefreshes, &samples, nullptr);
        else
          bench.iterate(c, i, &samples, nullptr);
      });
    }
    // 4. Hierarchy lifecycle replay (traced runs); it moves configuration
    //    0 to other gauge fields, so it runs after the last control solve.
    if (traced) {
      replay.lifecycle();
      apply_seconds = replay.apply_seconds;
    }
  } catch (const std::exception& e) {
    bench.check().error(std::string("exception: ") + e.what());
    ++bench.check().failed;
  }

  const double rss = peak_rss_mb();
  const double solve_med = median(samples.solve);
  Metrics e2e = {
      {"setup_s", {median(samples.setup), "s"}},
      {"solve_s", {solve_med, "s"}},
      {"tts_s", {median(samples.tts), "s"}},
      {"config_s", {median(samples.config), "s"}},
      {"bicgstab_s", {median(samples.bicgstab), "s"}},
      {"peak_rss_mb", {rss, "MB"}},
  };
  if (traced) {
    auto phase = [&](double SetupTimings::*f) {
      std::vector<double> v;
      for (const auto& p : samples.phases) v.push_back(p.*f);
      return median(v);
    };
    layers.push_back(
        {"setup.null_gen_s", {phase(&SetupTimings::null_gen_seconds), "s"}});
    layers.push_back(
        {"setup.galerkin_s", {phase(&SetupTimings::galerkin_seconds), "s"}});
    layers.push_back(
        {"setup.adaptive_s", {phase(&SetupTimings::adaptive_seconds), "s"}});
    for (const auto& m : exact_metrics(counts)) layers.push_back(m);
    layers.push_back({"parallel.first_call_s", {bench.first_call_s(), "s"}});
    const int threads = ThreadPool::instance().num_threads();
    layers.push_back(
        {"parallel.threads", {static_cast<double>(threads), "count"}});
    const double share = apply_seconds / std::max(bench.resolve_s(), 1e-12);
    layers.push_back({"solve.apply_share", {share, "fraction"}});
    layers.push_back({"trace.solve_s", {solve_med, "s"}});
    if (!tracer.write_chrome_json(trace_out))
      bench.check().error("cannot write trace file " + trace_out);
  }

  const Checker& chk = bench.check();
  std::string o = "{";
  o += "\"workload\":" + jstr(w.name) + ",\"seed\":" + std::to_string(seed) +
       ",\"traced\":" + (traced ? "true" : "false");
  o += ",\"correct\":" + std::string(chk.ok() ? "true" : "false");
  o += ",\"attempted\":" + std::to_string(chk.attempted) +
       ",\"failed\":" + std::to_string(chk.failed);
  o += ",\"check\":{\"max_true_residual\":" + jnum(chk.max_true_residual) +
       ",\"residual_bound\":" + jnum(2 * kTol) +
       ",\"max_mg_bicgstab_diff\":" + jnum(chk.max_disagreement) +
       ",\"agree_bound\":" + jnum(kAgreeBound) + ",\"errors\":[";
  for (size_t i = 0; i < chk.errors.size(); ++i)
    o += (i ? "," : "") + jstr(chk.errors[i]);
  o += "]}";
  auto metrics = [&](const Metrics& m) {
    std::string s = "{";
    for (size_t i = 0; i < m.size(); ++i)
      s += (i ? "," : "") + jstr(m[i].first) + ":{\"value\":" +
           jnum(m[i].second.first) + ",\"unit\":" +
           jstr(m[i].second.second) + "}";
    return s + "}";
  };
  o += ",\"metrics\":" + metrics(e2e);
  o += ",\"layers\":" + metrics(layers);
  o += ",\"exact\":{";
  const Metrics exact = exact_metrics(counts);
  for (size_t i = 0; i < exact.size(); ++i)
    o += (i ? "," : "") + jstr(exact[i].first) + ":" +
         std::to_string(static_cast<long>(exact[i].second.first));
  o += "}";
  o += ",\"analytic\":" + metrics(analytic);
  o += ",\"samples\":{\"setup_s\":" + jarr(samples.setup) +
       ",\"solve_s\":" + jarr(samples.solve) +
       ",\"tts_s\":" + jarr(samples.tts) +
       ",\"config_s\":" + jarr(samples.config) +
       ",\"bicgstab_s\":" + jarr(samples.bicgstab) +
       ",\"update_s\":" + jarr(samples.update) +
       ",\"restore_s\":" + jarr(samples.restore) +
       ",\"outer_iters\":" + jarr(samples.iters) + "}";
  o += ",\"provenance\":{\"nproc\":" + std::to_string(online_cpus()) +
       ",\"pool_threads\":" +
       std::to_string(ThreadPool::instance().num_threads()) +
       ",\"isa\":" + jstr(isa_flags()) +
       ",\"simd_width\":" + std::to_string(simd::kMaxSimdWidth) +
       ",\"compiler\":" + jstr(__VERSION__) +
       ",\"flags\":" + jstr(QMG_BENCH_CXX_FLAGS) +
       ",\"iterations\":" + std::to_string(samples.setup.size()) +
       ",\"seconds\":" + jnum(seconds);
  if (traced)
    o += ",\"triad_array_mb\":" + jnum(triad.array_mb) +
         ",\"cache_mb\":" + jnum(triad.cache_mb);
  o += "}";
  o += "}";
  std::printf("%s\n", o.c_str());
  return chk.ok() ? 0 : 1;
}
