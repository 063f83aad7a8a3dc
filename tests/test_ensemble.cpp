// Hierarchy-lifecycle tests: streaming gauge ensembles (gauge/ensemble.h),
// warm hierarchy refresh with quality-probe escalation
// (Multigrid::update_gauge via QmgContext::update_gauge), the quantized
// hierarchy snapshot cache (mg/hierarchy_cache.h), and the SolveQueue
// epoch-ordered gauge swap (drain batch / swap / resume).
//
//   * GaugeStream: Markov streams are deterministic and correlated (small
//     step -> small link drift), disk streams round-trip save_gauge files
//     bit-exact and exhaust cleanly;
//   * load_gauge rejects missing / truncated / corrupt files with
//     descriptive errors (never a silently-garbage field);
//   * a refreshed hierarchy converges to the same solution (tol-level) as
//     a from-scratch setup on the same configuration — Serial and
//     Threaded backends, and with distributed coarse levels;
//   * the quality probe escalates under a tight threshold, never under a
//     loose one, and is disabled at threshold <= 0;
//   * the HierarchyCache restores a revisited configuration without any
//     setup work, evicts FIFO at capacity, and is disabled at capacity 0;
//   * SolveQueue::update_gauge retires every ticket of the pre-swap epoch
//     on the pre-swap operator and every post-swap ticket on the new one
//     (residuals verified against the final operator), including under
//     concurrent submitters (the TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/qmg.h"

namespace {

using namespace qmg;

constexpr double kTol = 1e-8;

ContextOptions small_options() {
  ContextOptions options;
  options.dims = {4, 4, 4, 8};
  options.mass = -0.01;
  options.roughness = 0.4;
  options.backend = Backend::Serial;
  options.threads = 1;
  return options;
}

MgConfig small_mg() {
  MgConfig mg;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 4;
  level.null_iters = 10;
  level.adaptive_passes = 0;
  mg.levels = {level};
  return mg;
}

GaugeStream::Params stream_params(const ContextOptions& options) {
  GaugeStream::Params p;
  p.roughness = options.roughness;
  p.seed = options.seed;
  p.step = 0.05;
  return p;
}

double max_link_deviation(const GaugeField<double>& a,
                          const GaugeField<double>& b) {
  double dev = 0;
  for (int mu = 0; mu < kNDim; ++mu)
    for (long s = 0; s < a.geometry()->volume(); ++s) {
      const Su3<double> d = a.link(mu, s) - b.link(mu, s);
      dev = std::max(dev, std::sqrt(norm2(d)));
    }
  return dev;
}

/// ||b - A x|| / ||b|| against the context's CURRENT fine operator.
double rel_residual(const QmgContext& ctx, const ColorSpinorField<double>& x,
                    const ColorSpinorField<double>& b) {
  auto r = ctx.op().create_vector();
  ctx.op().apply(r, x);
  blas::xpay(b, -1.0, r);
  return std::sqrt(blas::norm2(r) / blas::norm2(b));
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- GaugeStream ------------------------------------------------------------

TEST(GaugeStreamTest, MarkovStreamIsDeterministicAndCorrelated) {
  const auto options = small_options();
  QmgContext ctx(options);
  const auto params = stream_params(options);
  GaugeStream a(ctx.geometry(), params);
  GaugeStream b(ctx.geometry(), params);

  EXPECT_EQ(a.config_id(), "markov-s7-0");
  EXPECT_EQ(a.index(), 0);
  EXPECT_TRUE(a.has_next());  // Markov streams never end
  // The stream's initial configuration IS the context's (same geometry,
  // roughness, seed) — the contract ensemble_stream.cpp relies on.
  EXPECT_EQ(max_link_deviation(a.current(), ctx.gauge()), 0.0);

  const GaugeField<double> start = a.current();
  a.advance();
  b.advance();
  EXPECT_EQ(a.config_id(), "markov-s7-1");
  EXPECT_EQ(a.index(), 1);
  // Deterministic: two streams with identical params walk identical
  // trajectories.
  EXPECT_EQ(max_link_deviation(a.current(), b.current()), 0.0);
  // Correlated: one small Markov step moves every link a little, not far.
  const double dev = max_link_deviation(a.current(), start);
  EXPECT_GT(dev, 0.0);
  EXPECT_LT(dev, 1.0);  // far from decorrelated (random links differ ~ O(2))
}

TEST(GaugeStreamTest, StepSizeControlsDecorrelation) {
  const auto options = small_options();
  QmgContext ctx(options);
  auto small_step = stream_params(options);
  small_step.step = 0.01;
  auto large_step = stream_params(options);
  large_step.step = 0.5;
  GaugeStream near(ctx.geometry(), small_step);
  GaugeStream far(ctx.geometry(), large_step);
  const GaugeField<double> start = near.current();
  near.advance();
  far.advance();
  EXPECT_LT(max_link_deviation(near.current(), start),
            max_link_deviation(far.current(), start));
}

TEST(GaugeStreamTest, DiskStreamRoundTripsAndExhausts) {
  const auto options = small_options();
  QmgContext ctx(options);
  GaugeStream markov(ctx.geometry(), stream_params(options));

  std::vector<std::string> paths;
  std::vector<GaugeField<double>> written;
  for (int i = 0; i < 3; ++i) {
    if (i > 0) markov.advance();
    paths.push_back(temp_path("stream_" + std::to_string(i) + ".qmg"));
    save_gauge(markov.current(), paths.back());
    written.push_back(markov.current());
  }

  GaugeStream disk(paths);
  EXPECT_EQ(disk.config_id(), paths[0]);  // disk ids are the file paths
  for (int i = 0; i < 3; ++i) {
    if (i > 0) disk.advance();
    EXPECT_EQ(disk.config_id(), paths[static_cast<size_t>(i)]);
    EXPECT_EQ(max_link_deviation(disk.current(),
                                 written[static_cast<size_t>(i)]),
              0.0)
        << "config " << i << " did not round-trip bit-exact";
    EXPECT_EQ(disk.has_next(), i < 2);
  }
  EXPECT_THROW(disk.advance(), std::out_of_range);
  for (const auto& p : paths) std::remove(p.c_str());

  EXPECT_THROW(GaugeStream(std::vector<std::string>{}), std::invalid_argument);
}

// --- load_gauge error paths --------------------------------------------------

TEST(GaugeIoTest, LoadGaugeRejectsBadFilesDescriptively) {
  EXPECT_THROW(load_gauge(temp_path("does_not_exist.qmg")),
               std::runtime_error);

  // Shorter than the magic.
  const std::string stub = temp_path("stub.qmg");
  {
    std::FILE* f = std::fopen(stub.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("qmg", 1, 3, f);
    std::fclose(f);
  }
  try {
    load_gauge(stub);
    FAIL() << "truncated header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }

  // Right length, wrong magic.
  const std::string corrupt = temp_path("corrupt.qmg");
  {
    std::FILE* f = std::fopen(corrupt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("notGAUGE________", 1, 16, f);
    std::fclose(f);
  }
  try {
    load_gauge(corrupt);
    FAIL() << "bad magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }

  // Valid header, payload cut off mid-link.
  const auto options = small_options();
  QmgContext ctx(options);
  const std::string cut = temp_path("cut.qmg");
  save_gauge(ctx.gauge(), cut);
  {
    std::FILE* f = std::fopen(cut.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<char> head(64);
    ASSERT_EQ(std::fread(head.data(), 1, head.size(), f), head.size());
    std::fclose(f);
    f = std::fopen(cut.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(head.data(), 1, head.size(), f);
    std::fclose(f);
  }
  try {
    load_gauge(cut);
    FAIL() << "truncated payload accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  std::remove(stub.c_str());
  std::remove(corrupt.c_str());
  std::remove(cut.c_str());
}

// --- refresh vs from-scratch convergence (the tentpole contract) ------------

TEST(HierarchyRefreshTest, RefreshedHierarchyMatchesScratchSolution) {
  for (const Backend backend : {Backend::Serial, Backend::Threaded}) {
    auto options = small_options();
    options.backend = backend;
    options.threads = backend == Backend::Threaded ? 2 : 1;

    // The stream context sets up on config 0 and REFRESHES onto config 1.
    QmgContext streamed(options);
    streamed.setup_multigrid(small_mg());
    GaugeStream stream(streamed.geometry(), stream_params(options));
    stream.advance();
    const auto urep =
        streamed.update_gauge(stream.config_id(), stream.current());
    EXPECT_TRUE(urep.hierarchy_updated);
    EXPECT_FALSE(urep.restored_from_cache);
    EXPECT_GT(urep.timings.null_gen_seconds, 0.0);
    EXPECT_GT(urep.probe_contraction, 0.0);
    EXPECT_EQ(streamed.config_id(), stream.config_id());

    // The scratch context builds from nothing on config 1 directly.
    QmgContext scratch(options);
    (void)scratch.update_gauge(stream.config_id(), stream.current());
    scratch.setup_multigrid(small_mg());

    auto b = streamed.create_vector();
    b.gaussian(42);
    SolveSpec spec;
    spec.tol = kTol;
    auto x_streamed = streamed.create_vector();
    auto x_scratch = scratch.create_vector();
    const auto r1 = streamed.solve(x_streamed, b, spec);
    const auto r2 = scratch.solve(x_scratch, b, spec);
    ASSERT_TRUE(r1.all_converged());
    ASSERT_TRUE(r2.all_converged());

    // Same operator, both residuals <= tol: the solutions must agree at
    // tol level no matter which hierarchy preconditioned them.
    auto diff = streamed.create_vector();
    blas::copy(diff, x_streamed);
    blas::axpy(-1.0, x_scratch, diff);
    const double rel =
        std::sqrt(blas::norm2(diff) / blas::norm2(x_scratch));
    EXPECT_LT(rel, 1e-5) << "backend " << static_cast<int>(backend);
    // And the refreshed-hierarchy solution satisfies the scratch context's
    // operator (same configuration, independent assembly).
    EXPECT_LT(rel_residual(scratch, x_streamed, b), 10 * kTol);
  }
}

TEST(HierarchyRefreshTest, RefreshedHierarchyRunsDistributedCoarseLevels) {
  auto options = small_options();
  QmgContext ctx(options);
  ctx.setup_multigrid(small_mg());
  GaugeStream stream(ctx.geometry(), stream_params(options));
  stream.advance();
  (void)ctx.update_gauge(stream.config_id(), stream.current());
  // Pin every coarse level's kernel config: the replicated single-rhs
  // cycle and the distributed batched one are bit-identical at one pinned
  // decomposition, not across the tuner's timed picks for their two key
  // shapes.
  auto& mg = ctx.multigrid();
  for (int l = 0; l + 1 < mg.num_levels(); ++l)
    mg.coarse_op_mutable(l).set_kernel_config({Strategy::ColorSpin, 1, 1, 2});

  auto b = ctx.create_vector();
  b.gaussian(43);
  SolveSpec replicated;
  replicated.tol = kTol;
  replicated.eo = false;
  auto x_rep = ctx.create_vector();
  const auto rep = ctx.solve(x_rep, b, replicated);
  ASSERT_TRUE(rep.all_converged());

  SolveSpec dist = replicated;
  dist.nranks = 2;
  auto x_dist = ctx.create_vector();
  const auto drep = ctx.solve(x_dist, b, dist);
  ASSERT_TRUE(drep.all_converged());
  EXPECT_TRUE(drep.distributed);
  EXPECT_GT(drep.comm.messages, 0);
  // The distributed cycle is bit-identical to the replicated one — the
  // refresh must not break that contract (same stencils, same iterates).
  EXPECT_EQ(drep.result().iterations, rep.result().iterations);
  for (long i = 0; i < x_rep.size(); ++i) {
    ASSERT_EQ(x_rep.data()[i].re, x_dist.data()[i].re) << "element " << i;
    ASSERT_EQ(x_rep.data()[i].im, x_dist.data()[i].im) << "element " << i;
  }
}

// --- quality-probe escalation ------------------------------------------------

TEST(HierarchyRefreshTest, TightThresholdEscalatesLooseDoesNot) {
  auto options = small_options();
  const auto params = stream_params(options);
  for (const double threshold : {1.001, 1e6}) {
    QmgContext ctx(options);
    auto mg = small_mg();
    mg.refresh_threshold = threshold;
    mg.refresh_probe_cap = 2.0;  // disable the absolute backstop: this test
                                 // isolates the RELATIVE regression trigger
    ctx.setup_multigrid(mg);
    GaugeStream stream(ctx.geometry(), params);
    stream.advance();
    const auto urep = ctx.update_gauge(stream.config_id(), stream.current());
    EXPECT_GT(urep.probe_contraction, 0.0);
    EXPECT_GT(urep.baseline_contraction, 0.0);
    EXPECT_GT(urep.probe_seconds, 0.0);
    if (threshold > 100) {
      EXPECT_FALSE(urep.escalated) << "loose threshold must never escalate";
    } else {
      // A warm refresh is never better than the full build it is judged
      // against at a 0.1% margin: escalation must fire, and the timings
      // must include the full regeneration on top of the refresh.
      EXPECT_TRUE(urep.escalated);
      EXPECT_GT(urep.probe_contraction,
                threshold * urep.baseline_contraction);
    }
    // Escalated or not, the hierarchy must solve on the new configuration.
    auto b = ctx.create_vector();
    b.gaussian(44);
    auto x = ctx.create_vector();
    SolveSpec spec;
    spec.tol = kTol;
    const auto srep = ctx.solve(x, b, spec);
    EXPECT_TRUE(srep.all_converged());
    EXPECT_LT(rel_residual(ctx, x, b), 10 * kTol);
  }
}

TEST(HierarchyRefreshTest, ProbeCapEscalatesIndependentlyOfBaseline) {
  // The absolute backstop: on a stream whose intrinsic difficulty drifts,
  // the rebased baseline can approach 1 and the relative threshold goes
  // blind.  A probe above refresh_probe_cap must escalate even when the
  // relative test is quiet; a cap >= 1 disables the backstop.
  auto options = small_options();
  const auto params = stream_params(options);
  for (const double cap : {1e-9, 1.0}) {
    QmgContext ctx(options);
    auto mg = small_mg();
    mg.refresh_threshold = 1e6;  // relative trigger can never fire
    mg.refresh_probe_cap = cap;
    ctx.setup_multigrid(mg);
    GaugeStream stream(ctx.geometry(), params);
    stream.advance();
    const auto urep = ctx.update_gauge(stream.config_id(), stream.current());
    EXPECT_GT(urep.probe_contraction, 0.0);
    // Every achievable probe clears a 1e-9 cap; nothing clears a disabled
    // one.
    if (cap < 1.0) {
      EXPECT_TRUE(urep.escalated) << "probe above the cap must escalate";
      EXPECT_LT(urep.probe_contraction,
                mg.refresh_threshold * urep.baseline_contraction)
          << "escalation must have come from the cap, not the ratio";
    } else {
      EXPECT_FALSE(urep.escalated) << "cap >= 1 disables the backstop";
    }
  }
}

TEST(HierarchyRefreshTest, ThresholdZeroDisablesProbe) {
  auto options = small_options();
  QmgContext ctx(options);
  auto mg = small_mg();
  mg.refresh_threshold = 0;  // no probe, no baseline, never escalate
  ctx.setup_multigrid(mg);
  GaugeStream stream(ctx.geometry(), stream_params(options));
  stream.advance();
  const auto urep = ctx.update_gauge(stream.config_id(), stream.current());
  EXPECT_FALSE(urep.escalated);
  EXPECT_EQ(urep.probe_contraction, 0.0);
  EXPECT_EQ(urep.probe_seconds, 0.0);
}

TEST(HierarchyRefreshTest, UpdateGaugeValidatesGeometry) {
  auto options = small_options();
  QmgContext ctx(options);
  auto other = small_options();
  other.dims = {4, 4, 4, 4};
  QmgContext mismatched(other);
  EXPECT_THROW((void)ctx.update_gauge("wrong", mismatched.gauge()),
               std::invalid_argument);
}

// --- HierarchyCache ----------------------------------------------------------

TEST(HierarchyCacheTest, RevisitedConfigRestoresWithoutSetupWork) {
  auto options = small_options();
  options.hierarchy_cache_capacity = 4;
  QmgContext ctx(options);
  ctx.setup_multigrid(small_mg());
  const std::string first_id = ctx.config_id();
  const GaugeField<double> first = ctx.gauge();

  GaugeStream stream(ctx.geometry(), stream_params(options));
  stream.advance();
  const auto moved = ctx.update_gauge(stream.config_id(), stream.current());
  EXPECT_FALSE(moved.restored_from_cache);

  // Coming BACK to the first configuration must hit the snapshot taken at
  // setup_multigrid: no null-gen, no Galerkin, just a dequantize.
  const auto back = ctx.update_gauge(first_id, first);
  EXPECT_TRUE(back.restored_from_cache);
  EXPECT_FALSE(back.escalated);
  EXPECT_EQ(back.timings.total_seconds(), 0.0);
  EXPECT_GT(back.baseline_contraction, 0.0);  // adopted from the snapshot

  const auto stats = ctx.hierarchy_cache().stats();
  EXPECT_GE(stats.stores, 2);
  EXPECT_GE(stats.hits, 1);
  EXPECT_GE(stats.misses, 1);

  // The restored (Half16-quantized) hierarchy still solves to tolerance on
  // the configuration it was snapshotted from.
  auto b = ctx.create_vector();
  b.gaussian(45);
  auto x = ctx.create_vector();
  SolveSpec spec;
  spec.tol = kTol;
  const auto srep = ctx.solve(x, b, spec);
  EXPECT_TRUE(srep.all_converged());
  EXPECT_LT(rel_residual(ctx, x, b), 10 * kTol);
}

TEST(HierarchyCacheTest, FifoEvictionAtCapacity) {
  auto options = small_options();
  options.hierarchy_cache_capacity = 1;
  QmgContext ctx(options);
  ctx.setup_multigrid(small_mg());
  const std::string first_id = ctx.config_id();
  const GaugeField<double> first = ctx.gauge();

  GaugeStream stream(ctx.geometry(), stream_params(options));
  stream.advance();
  (void)ctx.update_gauge(stream.config_id(), stream.current());
  // Storing config 1 in a capacity-1 cache evicted config 0.
  EXPECT_TRUE(ctx.hierarchy_cache().contains(stream.config_id()));
  EXPECT_FALSE(ctx.hierarchy_cache().contains(first_id));
  EXPECT_GE(ctx.hierarchy_cache().stats().evictions, 1);

  const auto back = ctx.update_gauge(first_id, first);
  EXPECT_FALSE(back.restored_from_cache);  // evicted -> full refresh path
}

TEST(HierarchyCacheTest, CapacityZeroDisablesCaching) {
  auto options = small_options();
  options.hierarchy_cache_capacity = 0;
  QmgContext ctx(options);
  ctx.setup_multigrid(small_mg());
  const std::string first_id = ctx.config_id();
  const GaugeField<double> first = ctx.gauge();
  EXPECT_FALSE(ctx.hierarchy_cache().contains(first_id));

  GaugeStream stream(ctx.geometry(), stream_params(options));
  stream.advance();
  (void)ctx.update_gauge(stream.config_id(), stream.current());
  const auto back = ctx.update_gauge(first_id, first);
  EXPECT_FALSE(back.restored_from_cache);
  EXPECT_EQ(ctx.hierarchy_cache().stats().entries, 0u);
}

// --- SolveQueue gauge swap (drain / swap / resume) ---------------------------

TEST(SolveQueueGaugeSwapTest, PendingBatchDrainsBeforeSwapThenResumes) {
  auto options = small_options();
  QmgContext ctx(options);
  ctx.setup_multigrid(small_mg());
  GaugeStream stream(ctx.geometry(), stream_params(options));

  QueueOptions qopts;
  qopts.max_nrhs = 2;
  qopts.max_wait_seconds = 0.05;
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);

  SolveSpec spec;
  spec.tol = kTol;
  std::vector<ColorSpinorField<double>> sources;
  std::vector<SolveTicket> tickets;
  auto submit_one = [&](int seed) {
    SolveRequest req;
    req.tenant = "analysis";
    req.rhs = ctx.create_vector();
    req.rhs.gaussian(static_cast<std::uint64_t>(seed));
    sources.push_back(req.rhs);
    req.spec = spec;
    tickets.push_back(queue.submit(std::move(req)));
  };

  // Epoch 0: two requests against the construction-time configuration.
  submit_one(900);
  submit_one(901);
  // Swap: queued BEFORE the epoch-0 tickets necessarily retire — the queue
  // must drain them on the old operator first.
  stream.advance();
  queue.update_gauge("analysis", stream.config_id(), stream.current());
  // Epoch 1: two requests that must run on the NEW configuration.
  submit_one(902);
  submit_one(903);

  for (auto& t : tickets) {
    ASSERT_TRUE(t.wait_for(300.0));
    EXPECT_TRUE(t.report().all_converged());
  }
  queue.stop();

  // The context ended up on the swapped configuration...
  EXPECT_EQ(ctx.config_id(), stream.config_id());
  const auto stats = queue.stats();
  EXPECT_EQ(stats.gauge_updates, 1);
  EXPECT_EQ(stats.failed_updates, 0);
  EXPECT_EQ(stats.retired, 4);
  // ...and the post-swap solutions satisfy the post-swap operator — while
  // the pre-swap solutions do NOT (different configuration), proving the
  // swap really happened between the batches rather than before or after
  // all of them.
  for (int k = 2; k < 4; ++k)
    EXPECT_LT(rel_residual(ctx, tickets[static_cast<size_t>(k)].solution(),
                           sources[static_cast<size_t>(k)]),
              10 * kTol)
        << "post-swap rhs " << k;
  for (int k = 0; k < 2; ++k)
    EXPECT_GT(rel_residual(ctx, tickets[static_cast<size_t>(k)].solution(),
                           sources[static_cast<size_t>(k)]),
              1e-4)
        << "pre-swap rhs " << k << " suspiciously satisfies the new operator";
}

TEST(SolveQueueGaugeSwapTest, ConcurrentSubmittersSurviveSwaps) {
  // The TSan target: submitters race the dispatcher while gauge swaps
  // interleave with batches.  Every ticket must retire converged on
  // whichever epoch's operator its batch ran.
  auto options = small_options();
  QmgContext ctx(options);
  ctx.setup_multigrid(small_mg());
  GaugeStream stream(ctx.geometry(), stream_params(options));

  QueueOptions qopts;
  qopts.max_nrhs = 2;
  qopts.max_wait_seconds = 0.01;
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 2;
  std::atomic<int> converged{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        SolveRequest req;
        req.tenant = "analysis";
        req.rhs = ctx.create_vector();
        req.rhs.gaussian(static_cast<std::uint64_t>(2000 + t * 10 + k));
        req.spec.tol = kTol;
        auto ticket = queue.submit(std::move(req));
        if (ticket.report().all_converged()) ++converged;
      }
    });
  }
  for (int u = 0; u < 2; ++u) {
    stream.advance();
    queue.update_gauge("analysis", stream.config_id(), stream.current());
  }
  for (auto& th : submitters) th.join();
  queue.stop();
  EXPECT_EQ(converged.load(), kThreads * kPerThread);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.retired, kThreads * kPerThread);
  EXPECT_EQ(stats.gauge_updates, 2);  // stop() drains queued swaps too
  EXPECT_EQ(stats.failed_updates, 0);
  EXPECT_EQ(ctx.config_id(), stream.config_id());
}

TEST(SolveQueueGaugeSwapTest, UpdateErrorPaths) {
  auto options = small_options();
  QmgContext ctx(options);
  SolveQueue queue;
  queue.add_tenant("analysis", ctx);
  EXPECT_THROW(queue.update_gauge("nobody", "cfg", ctx.gauge()),
               std::invalid_argument);
  queue.stop();
  EXPECT_THROW(queue.update_gauge("analysis", "cfg", ctx.gauge()),
               std::logic_error);
}

}  // namespace
