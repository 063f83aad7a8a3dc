// Microbenchmarks (google-benchmark) of the computational kernels:
// Wilson/Wilson-Clover dslash, coarse-operator strategies, field BLAS,
// transfer operators, half-precision conversion, clover construction and
// block orthonormalization — plus a thread-scaling sweep of the dispatch
// layer's Threaded backend (1..hardware_concurrency workers; run with
//   --benchmark_filter='ThreadScaling|SerialBaseline'
//   --benchmark_out=BENCH_dispatch.json --benchmark_out_format=json
// to regenerate the committed multicore-speedup trajectory).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/common.h"
#include "fields/halffield.h"
#include "mg/galerkin.h"
#include "mg/nullspace.h"
#include "mg/stencil.h"
#include "parallel/dispatch.h"

namespace qmg {
namespace {

constexpr Coord kDims{6, 6, 6, 6};

/// Thread counts for the scaling sweep: powers of two through
/// hardware_concurrency (always at least {1, 2, 4, 8} so the committed
/// trajectory is comparable across hosts; oversubscribed points measure
/// dispatch overhead honestly).
void thread_sweep(benchmark::internal::Benchmark* b) {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const int top = std::max(hw, 8);
  for (int t = 1; t <= top; t *= 2) b->Arg(t);
}

/// Scoped Threaded-backend configuration for one benchmark run.
struct ThreadedScope {
  explicit ThreadedScope(int threads)
      : saved(default_policy()),
        saved_threads(ThreadPool::instance().num_threads()) {
    ThreadPool::instance().resize(threads);
    LaunchPolicy p;
    p.backend = Backend::Threaded;
    p.grain = 1;
    set_default_policy(p);
  }
  ~ThreadedScope() {
    set_default_policy(saved);
    ThreadPool::instance().resize(saved_threads);
  }
  LaunchPolicy saved;
  int saved_threads;
};

struct Setup {
  GeometryPtr geom = make_geometry(kDims);
  GaugeField<double> gauge = disordered_gauge<double>(geom, 0.4, 7);
  CloverField<double> clover = build_clover_with_inverse(gauge, 1.0, 0.1);
  WilsonCloverOp<double> op{gauge, {0.1, 1.0, 1.0}, &clover};
};

Setup& setup() {
  static Setup s;
  return s;
}

void BM_WilsonDslash(benchmark::State& state) {
  auto& s = setup();
  auto x = s.op.create_vector();
  x.gaussian(1);
  auto y = s.op.create_vector();
  for (auto _ : state) {
    s.op.apply(y, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      s.op.flops_per_apply(), benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_WilsonDslash);

void BM_WilsonDslashReconstruct12(benchmark::State& state) {
  auto& s = setup();
  const WilsonCloverOp<double> op(s.gauge, {0.1, 1.0, 1.0}, &s.clover,
                                  Reconstruct::R12);
  auto x = op.create_vector();
  x.gaussian(1);
  auto y = op.create_vector();
  for (auto _ : state) {
    op.apply(y, x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_WilsonDslashReconstruct12);

void BM_SchurDslash(benchmark::State& state) {
  auto& s = setup();
  const SchurWilsonOp<double> schur(s.op);
  auto x = schur.create_vector();
  x.gaussian(2);
  auto y = schur.create_vector();
  for (auto _ : state) {
    schur.apply(y, x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SchurDslash);

void BM_CloverConstruction(benchmark::State& state) {
  auto& s = setup();
  for (auto _ : state) {
    auto clover = build_clover(s.gauge, 1.0);
    benchmark::DoNotOptimize(clover.geometry());
  }
}
BENCHMARK(BM_CloverConstruction);

void BM_BlasAxpy(benchmark::State& state) {
  auto& s = setup();
  ColorSpinorField<double> x(s.geom, 4, 3), y(s.geom, 4, 3);
  x.gaussian(1);
  y.gaussian(2);
  for (auto _ : state) {
    blas::axpy(1.0001, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * x.size() * 3 * 16);
}
BENCHMARK(BM_BlasAxpy);

void BM_BlasCdot(benchmark::State& state) {
  auto& s = setup();
  ColorSpinorField<double> x(s.geom, 4, 3), y(s.geom, 4, 3);
  x.gaussian(3);
  y.gaussian(4);
  for (auto _ : state) {
    auto d = blas::cdot(x, y);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_BlasCdot);

void BM_HalfQuantizeRoundTrip(benchmark::State& state) {
  auto& s = setup();
  ColorSpinorField<float> x(s.geom, 4, 3);
  x.gaussian(5);
  HalfSpinorField half(s.geom, 4, 3);
  for (auto _ : state) {
    half.store(x);
    half.load(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_HalfQuantizeRoundTrip);

struct CoarseSetup {
  std::shared_ptr<const BlockMap> map;
  std::unique_ptr<Transfer<double>> transfer;
  std::unique_ptr<CoarseDirac<double>> coarse;

  CoarseSetup() {
    auto& s = setup();
    NullSpaceParams ns;
    ns.nvec = 8;
    ns.iters = 20;
    auto vecs = generate_null_vectors(s.op, ns);
    // 3^4 blocks on the 6^4 lattice give a 2^4 coarse grid (even volume, as
    // the red-black coarse geometry requires).
    map = std::make_shared<const BlockMap>(s.geom, Coord{3, 3, 3, 3});
    transfer = std::make_unique<Transfer<double>>(map, 4, 3, 8);
    transfer->set_null_vectors(vecs);
    const WilsonStencilView<double> view(s.op);
    coarse = std::make_unique<CoarseDirac<double>>(
        build_coarse_operator(view, *transfer));
  }
};

CoarseSetup& coarse_setup() {
  static CoarseSetup c;
  return c;
}

void BM_CoarseOpStrategy(benchmark::State& state) {
  auto& c = coarse_setup();
  const CoarseKernelConfig configs[] = {
      {Strategy::GridOnly, 1, 1, 1},
      {Strategy::ColorSpin, 1, 1, 2},
      {Strategy::StencilDir, 3, 1, 2},
      {Strategy::DotProduct, 3, 2, 2},
  };
  const auto& cfg = configs[state.range(0)];
  auto x = c.coarse->create_vector();
  x.gaussian(1);
  auto y = c.coarse->create_vector();
  for (auto _ : state) {
    c.coarse->apply_with_config(y, x, cfg);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(to_string(cfg.strategy));
}
BENCHMARK(BM_CoarseOpStrategy)->DenseRange(0, 3);

void BM_Prolongate(benchmark::State& state) {
  auto& c = coarse_setup();
  auto coarse_v = c.transfer->create_coarse_vector();
  coarse_v.gaussian(2);
  auto fine_v = c.transfer->create_fine_vector();
  for (auto _ : state) {
    c.transfer->prolongate(fine_v, coarse_v);
    benchmark::DoNotOptimize(fine_v.data());
  }
}
BENCHMARK(BM_Prolongate);

void BM_Restrict(benchmark::State& state) {
  auto& c = coarse_setup();
  auto fine_v = c.transfer->create_fine_vector();
  fine_v.gaussian(3);
  auto coarse_v = c.transfer->create_coarse_vector();
  for (auto _ : state) {
    c.transfer->restrict_to_coarse(coarse_v, fine_v);
    benchmark::DoNotOptimize(coarse_v.data());
  }
}
BENCHMARK(BM_Restrict);

void BM_GalerkinConstruction(benchmark::State& state) {
  auto& s = setup();
  auto& c = coarse_setup();
  const WilsonStencilView<double> view(s.op);
  for (auto _ : state) {
    auto coarse = build_coarse_operator(view, *c.transfer);
    benchmark::DoNotOptimize(coarse.geometry());
  }
}
BENCHMARK(BM_GalerkinConstruction);

// --- dispatch-layer thread scaling ------------------------------------------

void BM_CoarseOpSerialBaseline(benchmark::State& state) {
  auto& c = coarse_setup();
  LaunchPolicy serial;
  serial.backend = Backend::Serial;
  auto x = c.coarse->create_vector();
  x.gaussian(1);
  auto y = c.coarse->create_vector();
  const CoarseKernelConfig cfg{Strategy::GridOnly, 1, 1, 2};
  for (auto _ : state) {
    c.coarse->apply_with_config(y, x, cfg, serial);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      c.coarse->flops_per_apply(),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_CoarseOpSerialBaseline);

void BM_CoarseOpThreadScaling(benchmark::State& state) {
  auto& c = coarse_setup();
  const ThreadedScope scope(static_cast<int>(state.range(0)));
  auto x = c.coarse->create_vector();
  x.gaussian(1);
  auto y = c.coarse->create_vector();
  const CoarseKernelConfig cfg{Strategy::GridOnly, 1, 1, 2};
  for (auto _ : state) {
    c.coarse->apply_with_config(y, x, cfg, default_policy());
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["GFLOPS"] = benchmark::Counter(
      c.coarse->flops_per_apply(),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_CoarseOpThreadScaling)->Apply(thread_sweep)->UseRealTime()->MeasureProcessCPUTime();

void BM_WilsonDslashThreadScaling(benchmark::State& state) {
  auto& s = setup();
  const ThreadedScope scope(static_cast<int>(state.range(0)));
  auto x = s.op.create_vector();
  x.gaussian(1);
  auto y = s.op.create_vector();
  for (auto _ : state) {
    s.op.apply(y, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_WilsonDslashThreadScaling)->Apply(thread_sweep)->UseRealTime()->MeasureProcessCPUTime();

void BM_BlasAxpyThreadScaling(benchmark::State& state) {
  auto& s = setup();
  const ThreadedScope scope(static_cast<int>(state.range(0)));
  ColorSpinorField<double> x(s.geom, 4, 3), y(s.geom, 4, 3);
  x.gaussian(1);
  y.gaussian(2);
  for (auto _ : state) {
    blas::axpy(1.0001, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.SetBytesProcessed(state.iterations() * x.size() * 3 * 16);
}
BENCHMARK(BM_BlasAxpyThreadScaling)->Apply(thread_sweep)->UseRealTime()->MeasureProcessCPUTime();

void BM_BlasCdotThreadScaling(benchmark::State& state) {
  auto& s = setup();
  const ThreadedScope scope(static_cast<int>(state.range(0)));
  ColorSpinorField<double> x(s.geom, 4, 3), y(s.geom, 4, 3);
  x.gaussian(3);
  y.gaussian(4);
  for (auto _ : state) {
    auto d = blas::cdot(x, y);
    benchmark::DoNotOptimize(d);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_BlasCdotThreadScaling)->Apply(thread_sweep)->UseRealTime()->MeasureProcessCPUTime();

void BM_RestrictThreadScaling(benchmark::State& state) {
  auto& c = coarse_setup();
  const ThreadedScope scope(static_cast<int>(state.range(0)));
  auto fine_v = c.transfer->create_fine_vector();
  fine_v.gaussian(3);
  auto coarse_v = c.transfer->create_coarse_vector();
  for (auto _ : state) {
    c.transfer->restrict_to_coarse(coarse_v, fine_v);
    benchmark::DoNotOptimize(coarse_v.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RestrictThreadScaling)->Apply(thread_sweep)->UseRealTime()->MeasureProcessCPUTime();

void BM_CoarseDiagInverse(benchmark::State& state) {
  auto& c = coarse_setup();
  for (auto _ : state) {
    c.coarse->compute_diag_inverse();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CoarseDiagInverse);

}  // namespace
}  // namespace qmg

BENCHMARK_MAIN();
