// Fully-batched K-cycle ablation (paper sections 7.1 + 9 + 6.5): measures
// the two serial gaps this subsystem closed —
//
//   smoother:  N streamed single-rhs MR solves on the coarse Schur system
//              vs ONE masked block-MR solve (solvers/block_mr.h), the last
//              stage of the K-cycle to go batched;
//   cycle:     N streamed K-cycles, each on a block of one (a single
//              rhs), vs one batched cycle_block over all N,
//              then the batched cycle with its coarse levels dispatched
//              through DistributedCoarseOp splits (Sync and Overlapped
//              halo modes) — the virtual-rank run adds pack/copy work on
//              one box, so its value is the measured message counts and
//              overlap window of the latency-bound coarse regime, not
//              wall-clock.
//
// Results land in BENCH_kcycle.json with num_cpus embedded (wall-clock
// ratios on a 1-CPU container understate the batching effect; the message
// and byte columns are exact).
//
//   ./bench_kcycle [--l=8] [--lt=8] [--nvec=8] [--reps=5] [--ranks=2]
//                  [--json=BENCH_kcycle.json]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "solvers/block_mr.h"

using namespace qmg;

namespace {

struct SmootherRow {
  int nrhs = 0;
  double streamed_us_per_rhs = 0;
  double block_us_per_rhs = 0;
};

struct CycleRow {
  int nrhs = 0;
  double streamed_ms = 0;      // nrhs cycles on blocks of one
  double block_ms = 0;         // one batched cycle, replicated
  double dist_sync_ms = 0;     // batched cycle, distributed coarse, Sync
  double dist_overlap_ms = 0;  // batched cycle, distributed coarse, Overlapped
  long coarse_msgs = 0;        // coarse-level messages per batched cycle
  double coarse_kib_per_msg = 0;
  double exchange_ms = 0;      // coarse exchange wall time per cycle (overlap)
  double hidden_ms = 0;        // share hidden behind interior compute
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int l = static_cast<int>(args.get_int("l", 8));
  const int lt = static_cast<int>(args.get_int("lt", 8));
  const int nvec = static_cast<int>(args.get_int("nvec", 8));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const int ranks = static_cast<int>(args.get_int("ranks", 2));
  const std::string json_path = args.get("json", "BENCH_kcycle.json");

  ContextOptions options;
  options.dims = {l, l, l, lt};
  options.mass = -0.03;
  options.roughness = 0.5;
  QmgContext ctx(options);
  MgConfig mg_config;
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = nvec;
  level.null_iters = 30;
  mg_config.levels = {level};
  ctx.setup_multigrid(mg_config);
  Multigrid<float>& mg = ctx.multigrid();

  std::printf("kcycle bench: %d^3x%d, nvec=%d, %d virtual ranks, %d reps\n",
              l, lt, nvec, ranks, reps);

  const std::vector<int> rhs_counts{1, 4, 12};

  // --- smoother ablation: streamed MR vs masked block MR on the coarse
  // Schur system (4 fixed iterations, the paper's smoother budget).
  const SchurCoarseOp<float> schur(mg.coarse_op(0));
  SolverParams smoother;
  smoother.tol = 0;
  smoother.max_iter = 4;
  smoother.omega = 0.85;
  std::vector<SmootherRow> smoother_rows;
  for (const int nrhs : rhs_counts) {
    BlockSpinor<float> b(mg.coarse_op(0).geometry(), 2,
                         mg.coarse_op(0).ncolor(), nrhs, Subset::Even);
    for (int k = 0; k < nrhs; ++k) {
      auto f = schur.create_vector();
      f.gaussian(100 + static_cast<std::uint64_t>(k));
      b.insert_rhs(f, k);
    }
    SmootherRow row;
    row.nrhs = nrhs;
    // Warmup (autotune) + timed reps.
    for (int pass = -1; pass < reps; ++pass) {
      Timer t;
      auto b_k = schur.create_vector();
      auto x_k = schur.create_vector();
      for (int k = 0; k < nrhs; ++k) {
        b.extract_rhs(b_k, k);
        blas::zero(x_k);
        MrSolver<float>(schur, smoother).solve(x_k, b_k);
      }
      if (pass >= 0) row.streamed_us_per_rhs += t.seconds() * 1e6 / nrhs;
    }
    for (int pass = -1; pass < reps; ++pass) {
      Timer t;
      auto x = b.similar();
      BlockMrSolver<float>(schur, smoother).solve(x, b);
      if (pass >= 0) row.block_us_per_rhs += t.seconds() * 1e6 / nrhs;
    }
    row.streamed_us_per_rhs /= reps;
    row.block_us_per_rhs /= reps;
    smoother_rows.push_back(row);
    std::printf("  smoother nrhs=%-3d streamed %8.1f us/rhs   block %8.1f "
                "us/rhs   (%.2fx)\n",
                nrhs, row.streamed_us_per_rhs, row.block_us_per_rhs,
                row.streamed_us_per_rhs / row.block_us_per_rhs);
  }

  // --- cycle ablation: streamed vs batched vs distributed-coarse batched.
  std::vector<CycleRow> cycle_rows;
  for (const int nrhs : rhs_counts) {
    std::vector<ColorSpinorField<float>> b_fields;
    std::vector<BlockSpinor<float>> b_ones;
    for (int k = 0; k < nrhs; ++k) {
      b_fields.push_back(mg.op(0).create_vector());
      b_fields.back().gaussian(200 + static_cast<std::uint64_t>(k));
      b_ones.push_back(pack_block(std::vector{b_fields.back()}));
    }
    const BlockSpinor<float> b_block = pack_block(b_fields);
    CycleRow row;
    row.nrhs = nrhs;

    for (int pass = -1; pass < reps; ++pass) {
      Timer t;
      auto x_k = mg.op(0).create_block(1);
      for (const auto& b_k : b_ones) mg.cycle_block(0, x_k, b_k);
      if (pass >= 0) row.streamed_ms += t.seconds() * 1e3;
    }
    for (int pass = -1; pass < reps; ++pass) {
      Timer t;
      auto x = b_block.similar();
      mg.cycle_block(0, x, b_block);
      if (pass >= 0) row.block_ms += t.seconds() * 1e3;
    }

    auto dist_run = [&](HaloMode mode, double& acc_ms, bool meter) {
      if (mg.enable_distributed_coarse(ranks, mode) == 0) {
        mg.disable_distributed_coarse();
        return;
      }
      for (int pass = -1; pass < reps; ++pass) {
        if (pass == 0) mg.reset_distributed_comm_stats();
        Timer t;
        auto x = b_block.similar();
        mg.cycle_block(0, x, b_block);
        if (pass >= 0) acc_ms += t.seconds() * 1e3;
      }
      if (meter) {
        const CommStats s = mg.distributed_comm_stats();
        row.coarse_msgs = s.messages / reps;
        row.coarse_kib_per_msg =
            s.messages ? static_cast<double>(s.message_bytes) /
                             static_cast<double>(s.messages) / 1024.0
                       : 0.0;
        row.exchange_ms = s.exchange_seconds * 1e3 / reps;
        row.hidden_ms = s.hidden_seconds * 1e3 / reps;
      }
      mg.disable_distributed_coarse();
    };
    dist_run(HaloMode::Sync, row.dist_sync_ms, /*meter=*/false);
    dist_run(HaloMode::Overlapped, row.dist_overlap_ms, /*meter=*/true);

    row.streamed_ms /= reps;
    row.block_ms /= reps;
    row.dist_sync_ms /= reps;
    row.dist_overlap_ms /= reps;
    cycle_rows.push_back(row);
    std::printf("  cycle    nrhs=%-3d streamed %8.2f ms   block %8.2f ms   "
                "dist(sync) %8.2f ms   dist(ovl) %8.2f ms   coarse %ld "
                "msgs/cycle (%.1f KiB/msg, %.2f ms exch, %.2f ms hidden)\n",
                nrhs, row.streamed_ms, row.block_ms, row.dist_sync_ms,
                row.dist_overlap_ms, row.coarse_msgs, row.coarse_kib_per_msg,
                row.exchange_ms, row.hidden_ms);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"kcycle\",\n"
               "  \"dims\": [%d, %d, %d, %d],\n"
               "  \"nvec\": %d,\n"
               "  \"ranks\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"num_cpus\": %u,\n"
               "  \"note\": \"streamed vs masked-block MR smoother and "
               "replicated vs distributed-coarse batched K-cycle; virtual "
               "ranks share one box, so the distributed columns measure "
               "message amortization and overlap, not wall-clock speedup; "
               "on num_cpus=1 the CPU wall-clock understates the batching "
               "effect\",\n",
               l, l, l, lt, nvec, ranks, reps,
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"smoother\": [\n");
  for (size_t i = 0; i < smoother_rows.size(); ++i) {
    const auto& r = smoother_rows[i];
    std::fprintf(f,
                 "    {\"nrhs\": %d, \"streamed_us_per_rhs\": %.2f, "
                 "\"block_us_per_rhs\": %.2f, \"speedup\": %.3f}%s\n",
                 r.nrhs, r.streamed_us_per_rhs, r.block_us_per_rhs,
                 r.block_us_per_rhs > 0
                     ? r.streamed_us_per_rhs / r.block_us_per_rhs
                     : 0.0,
                 i + 1 < smoother_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"cycle\": [\n");
  for (size_t i = 0; i < cycle_rows.size(); ++i) {
    const auto& r = cycle_rows[i];
    std::fprintf(
        f,
        "    {\"nrhs\": %d, \"streamed_ms\": %.3f, \"block_ms\": %.3f, "
        "\"dist_sync_ms\": %.3f, \"dist_overlap_ms\": %.3f, "
        "\"coarse_msgs_per_cycle\": %ld, \"coarse_kib_per_msg\": %.2f, "
        "\"coarse_exchange_ms\": %.3f, \"coarse_hidden_ms\": %.3f}%s\n",
        r.nrhs, r.streamed_ms, r.block_ms, r.dist_sync_ms, r.dist_overlap_ms,
        r.coarse_msgs, r.coarse_kib_per_msg, r.exchange_ms, r.hidden_ms,
        i + 1 < cycle_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
