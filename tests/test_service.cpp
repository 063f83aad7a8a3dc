// Service-layer tests: SolveQueue dynamic rhs batching over the unified
// SolveSpec/SolveReport context API (src/service/solve_queue.h).
//
//   * queued solves are bit-identical per rhs to a direct block solve —
//     for a full batch AND when the queue splits the same requests across
//     smaller batches (the per-rhs masking contract of the block solvers);
//   * a partial batch flushes when the latency budget (queue max-wait or
//     per-request deadline) expires, not only at max-nrhs;
//   * multiple tenants share one warm context (MG hierarchy, tuned
//     kernels) without re-setup;
//   * concurrent submitters race the dispatcher safely (the TSan target);
//   * distributed specs meter their coarse-level communication into the
//     per-rhs reports and the queue stats.
//
// Everything runs on one shared 4^3x8 context: setup_multigrid is paid
// once, which is exactly the warm-state-sharing posture the service layer
// exists for.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/qmg.h"

namespace {

using namespace qmg;

template <typename T>
::testing::AssertionResult bits_equal(const ColorSpinorField<T>& a,
                                      const ColorSpinorField<T>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (long i = 0; i < a.size(); ++i)
    if (a.data()[i].re != b.data()[i].re || a.data()[i].im != b.data()[i].im)
      return ::testing::AssertionFailure()
             << "first bit mismatch at element " << i;
  return ::testing::AssertionSuccess();
}

constexpr double kTol = 1e-6;

/// The direct block solve queued solves are compared against.
SolveSpec direct_spec() {
  SolveSpec spec;
  spec.tol = kTol;
  return spec;
}

/// One warm context for the whole binary (hierarchy set up once; the
/// service layer's whole point is to share it across every batch).
QmgContext& shared_context() {
  static QmgContext* ctx = [] {
    ContextOptions options;
    options.dims = {4, 4, 4, 8};
    options.mass = -0.01;
    options.roughness = 0.4;
    options.backend = Backend::Serial;
    options.threads = 1;
    auto* c = new QmgContext(options);
    MgConfig mg;
    MgLevelConfig level;
    level.block = {2, 2, 2, 2};
    level.nvec = 4;
    level.null_iters = 10;
    level.adaptive_passes = 0;
    mg.levels = {level};
    c->setup_multigrid(mg);
    // Pin the coarse kernel config so replicated and distributed cycles
    // share one decomposition (the per-config bit-identity contract).
    c->multigrid().coarse_op_mutable(0).set_kernel_config(
        {Strategy::ColorSpin, 1, 1, 2});
    return c;
  }();
  return *ctx;
}

std::vector<ColorSpinorField<double>> make_sources(int n, int seed0) {
  std::vector<ColorSpinorField<double>> b;
  for (int k = 0; k < n; ++k) {
    b.push_back(shared_context().create_vector());
    b.back().gaussian(static_cast<std::uint64_t>(seed0 + k));
  }
  return b;
}

// --- queued vs direct bit-identity ------------------------------------------

TEST(SolveQueueTest, FullBatchMatchesDirectBlockSolveBitwise) {
  auto& ctx = shared_context();
  const auto b = make_sources(4, 100);
  std::vector<ColorSpinorField<double>> x_ref;
  for (int k = 0; k < 4; ++k) x_ref.push_back(ctx.create_vector());
  const auto ref = ctx.solve(x_ref, b, direct_spec());
  ASSERT_TRUE(ref.all_converged());

  QueueOptions qopts;
  qopts.max_nrhs = 4;            // the 4 submissions form exactly one batch
  qopts.max_wait_seconds = 30;   // never the trigger here
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);

  SolveSpec spec;
  spec.tol = kTol;
  std::vector<SolveTicket> tickets;
  for (int k = 0; k < 4; ++k) {
    SolveRequest req;
    req.tenant = "analysis";
    req.rhs = b[static_cast<size_t>(k)];
    req.spec = spec;
    tickets.push_back(queue.submit(std::move(req)));
  }
  for (int k = 0; k < 4; ++k) {
    const auto& rep = tickets[static_cast<size_t>(k)].report();
    EXPECT_TRUE(rep.all_converged()) << "rhs " << k;
    EXPECT_EQ(rep.batch_nrhs, 4);
    EXPECT_EQ(rep.result().iterations,
              ref.rhs[static_cast<size_t>(k)].iterations);
    EXPECT_TRUE(bits_equal(tickets[static_cast<size_t>(k)].solution(),
                           x_ref[static_cast<size_t>(k)]))
        << "rhs " << k;
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.retired, 4);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_DOUBLE_EQ(stats.batch_fill, 1.0);
  EXPECT_EQ(stats.depth, 0);
}

TEST(SolveQueueTest, SplitBatchesStayBitIdenticalPerRhs) {
  // The same requests forced through batches of 2 must retire every rhs
  // bit-identical to the direct 4-rhs block solve: per-rhs masking makes
  // each rhs independent of how the queue composed its batch.
  auto& ctx = shared_context();
  const auto b = make_sources(4, 100);  // same sources as the test above
  std::vector<ColorSpinorField<double>> x_ref;
  for (int k = 0; k < 4; ++k) x_ref.push_back(ctx.create_vector());
  const auto ref = ctx.solve(x_ref, b, direct_spec());

  QueueOptions qopts;
  qopts.max_nrhs = 2;
  qopts.max_wait_seconds = 30;
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);

  SolveSpec spec;
  spec.tol = kTol;
  std::vector<SolveTicket> tickets;
  for (int k = 0; k < 4; ++k) {
    SolveRequest req;
    req.tenant = "analysis";
    req.rhs = b[static_cast<size_t>(k)];
    req.spec = spec;
    tickets.push_back(queue.submit(std::move(req)));
  }
  for (int k = 0; k < 4; ++k) {
    const auto& rep = tickets[static_cast<size_t>(k)].report();
    EXPECT_EQ(rep.batch_nrhs, 2);
    EXPECT_EQ(rep.result().iterations,
              ref.rhs[static_cast<size_t>(k)].iterations);
    EXPECT_TRUE(bits_equal(tickets[static_cast<size_t>(k)].solution(),
                           x_ref[static_cast<size_t>(k)]))
        << "rhs " << k;
  }
  EXPECT_EQ(queue.stats().batches, 2);
}

// --- latency budget ----------------------------------------------------------

TEST(SolveQueueTest, MaxWaitFlushesPartialBatch) {
  auto& ctx = shared_context();
  QueueOptions qopts;
  qopts.max_nrhs = 64;           // never reached: only the budget can flush
  qopts.max_wait_seconds = 0.05;
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);

  SolveSpec spec;
  spec.tol = kTol;
  auto b = make_sources(3, 300);
  std::vector<SolveTicket> tickets;
  for (int k = 0; k < 3; ++k) {
    SolveRequest req;
    req.tenant = "analysis";
    req.rhs = std::move(b[static_cast<size_t>(k)]);
    req.spec = spec;
    tickets.push_back(queue.submit(std::move(req)));
  }
  for (auto& t : tickets) {
    const auto& rep = t.report();
    EXPECT_TRUE(rep.all_converged());
    EXPECT_EQ(rep.batch_nrhs, 3);  // one deadline-triggered partial batch
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_LT(stats.batch_fill, 1.0);
  // The first request really waited out (most of) the budget.
  EXPECT_GE(tickets.front().report().queue_wait_seconds, 0.02);
}

TEST(SolveQueueTest, PerRequestDeadlineOverridesQueueBudget) {
  auto& ctx = shared_context();
  QueueOptions qopts;
  qopts.max_nrhs = 64;
  qopts.max_wait_seconds = 600;  // effectively never
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);

  SolveRequest req;
  req.tenant = "analysis";
  req.rhs = make_sources(1, 400).front();
  req.spec.tol = kTol;
  req.deadline_seconds = 0.01;  // this request cannot wait
  auto ticket = queue.submit(std::move(req));
  ASSERT_TRUE(ticket.wait_for(120.0));
  EXPECT_TRUE(ticket.report().all_converged());
  EXPECT_EQ(ticket.report().batch_nrhs, 1);
  EXPECT_LT(ticket.report().queue_wait_seconds, 60.0);
}

// --- multi-tenant warm-state sharing ----------------------------------------

TEST(SolveQueueTest, TenantsShareOneWarmHierarchy) {
  auto& ctx = shared_context();
  const double setup_seconds = ctx.mg_setup_seconds();
  const auto b = make_sources(2, 500);
  std::vector<ColorSpinorField<double>> x_ref;
  for (int k = 0; k < 2; ++k) x_ref.push_back(ctx.create_vector());
  const auto ref = ctx.solve(x_ref, b, direct_spec());

  QueueOptions qopts;
  qopts.max_nrhs = 1;  // every request its own batch: 4 dispatches
  SolveQueue queue(qopts);
  // Two tenant ids aliased onto ONE context: both route through the same
  // MG hierarchy and tuned kernels, in separate batches.
  queue.add_tenant("tenant-a", ctx);
  queue.add_tenant("tenant-b", ctx);

  SolveSpec spec;
  spec.tol = kTol;
  std::vector<SolveTicket> tickets;
  for (const char* tenant : {"tenant-a", "tenant-b"}) {
    for (int k = 0; k < 2; ++k) {
      SolveRequest req;
      req.tenant = tenant;
      req.rhs = b[static_cast<size_t>(k)];
      req.spec = spec;
      tickets.push_back(queue.submit(std::move(req)));
    }
  }
  // Both tenants retire the same solutions (one hierarchy, one answer).
  for (int k = 0; k < 2; ++k) {
    EXPECT_TRUE(bits_equal(tickets[static_cast<size_t>(k)].solution(),
                           x_ref[static_cast<size_t>(k)]));
    EXPECT_TRUE(bits_equal(tickets[static_cast<size_t>(2 + k)].solution(),
                           x_ref[static_cast<size_t>(k)]));
    EXPECT_EQ(tickets[static_cast<size_t>(2 + k)].report().result().iterations,
              ref.rhs[static_cast<size_t>(k)].iterations);
  }
  // No tenant re-ran setup: the hierarchy is the one built before the
  // queue existed.
  EXPECT_EQ(ctx.mg_setup_seconds(), setup_seconds);
  EXPECT_EQ(queue.stats().batches, 4);
}

// --- concurrency (the TSan target) ------------------------------------------

TEST(SolveQueueTest, ConcurrentSubmittersAllRetire) {
  auto& ctx = shared_context();
  QueueOptions qopts;
  qopts.max_nrhs = 4;
  qopts.max_wait_seconds = 0.01;
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::atomic<int> converged{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        SolveRequest req;
        req.tenant = "analysis";
        req.rhs = shared_context().create_vector();
        req.rhs.gaussian(static_cast<std::uint64_t>(1000 + t * kPerThread + k));
        req.spec.tol = kTol;
        auto ticket = queue.submit(std::move(req));
        if (ticket.report().all_converged()) ++converged;
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(converged.load(), kThreads * kPerThread);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.retired, kThreads * kPerThread);
  EXPECT_EQ(stats.depth, 0);
  EXPECT_GE(stats.p99_latency_seconds, stats.p50_latency_seconds);
}

// --- distributed specs through the queue ------------------------------------

TEST(SolveQueueTest, DistributedSpecMetersCoarseCommunication) {
  auto& ctx = shared_context();
  const auto b = make_sources(2, 600);
  // Distributed iterates are bit-identical to the replicated full-system
  // solve (spec.eo is ignored on the distributed path).
  std::vector<ColorSpinorField<double>> x_ref;
  for (int k = 0; k < 2; ++k) x_ref.push_back(ctx.create_vector());
  SolveSpec ref_spec;
  ref_spec.tol = kTol;
  ref_spec.eo = false;
  const auto ref = ctx.solve(x_ref, b, ref_spec);
  ASSERT_TRUE(ref.all_converged());

  QueueOptions qopts;
  qopts.max_nrhs = 2;
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);

  SolveSpec spec;
  spec.tol = kTol;
  spec.nranks = 2;
  std::vector<SolveTicket> tickets;
  for (int k = 0; k < 2; ++k) {
    SolveRequest req;
    req.tenant = "analysis";
    req.rhs = b[static_cast<size_t>(k)];
    req.spec = spec;
    tickets.push_back(queue.submit(std::move(req)));
  }
  for (int k = 0; k < 2; ++k) {
    const auto& rep = tickets[static_cast<size_t>(k)].report();
    EXPECT_TRUE(rep.distributed);
    EXPECT_TRUE(bits_equal(tickets[static_cast<size_t>(k)].solution(),
                           x_ref[static_cast<size_t>(k)]))
        << "rhs " << k;
    // The batch's owned communication rode along on every rhs report:
    // coarse share present and a subset of the total.
    EXPECT_GT(rep.comm.messages, 0);
    EXPECT_GT(rep.coarse_comm.messages, 0);
    EXPECT_GE(rep.comm.messages, rep.coarse_comm.messages);
  }
  const auto stats = queue.stats();
  EXPECT_GT(stats.coarse_messages, 0);
  EXPECT_GT(stats.coarse_messages_per_rhs, 0);
}

// --- error paths -------------------------------------------------------------

TEST(SolveQueueTest, UnknownTenantThrows) {
  SolveQueue queue;
  SolveRequest req;
  req.tenant = "nobody";
  req.rhs = shared_context().create_vector();
  EXPECT_THROW(queue.submit(std::move(req)), std::invalid_argument);
}

TEST(SolveQueueTest, SubmitAfterStopThrows) {
  auto& ctx = shared_context();
  SolveQueue queue;
  queue.add_tenant("analysis", ctx);
  queue.stop();
  SolveRequest req;
  req.tenant = "analysis";
  req.rhs = ctx.create_vector();
  EXPECT_THROW(queue.submit(std::move(req)), std::logic_error);
}

TEST(SolveQueueTest, StopDrainsPendingRequests) {
  auto& ctx = shared_context();
  QueueOptions qopts;
  qopts.max_nrhs = 64;
  qopts.max_wait_seconds = 600;  // only stop() can flush this
  SolveQueue queue(qopts);
  queue.add_tenant("analysis", ctx);
  SolveRequest req;
  req.tenant = "analysis";
  req.rhs = make_sources(1, 700).front();
  req.spec.tol = kTol;
  auto ticket = queue.submit(std::move(req));
  queue.stop();  // must retire the pending request, not abandon it
  ASSERT_TRUE(ticket.ready());
  EXPECT_TRUE(ticket.report().all_converged());
}

TEST(SolveQueueTest, InvalidOptionsThrow) {
  QueueOptions bad;
  bad.max_nrhs = 0;
  EXPECT_THROW(SolveQueue{bad}, std::invalid_argument);
}

TEST(SolveTicketTest, EmptyTicketThrows) {
  SolveTicket ticket;
  EXPECT_FALSE(ticket.valid());
  EXPECT_THROW(ticket.wait(), std::logic_error);
}

}  // namespace
