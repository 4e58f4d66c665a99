// FIG9 + TAB-THROUGHPUT — Figure 9: conversation end-to-end latency vs the
// number of online users (10 → 2M) for µ = 100K / 200K / 300K, 3 servers;
// plus §8.2's headline throughput numbers.
//
// Two series per curve:
//  * REAL: actual protocol rounds on this machine at 1/100 scale (µ and
//    users divided by 100), driven through the pipelined round engine
//    (engine::RoundScheduler) — every code path (onion crypto, noise,
//    shuffle, sharded dead drops) runs for real; the linear-with-offset
//    shape of Figure 9 is measured directly.
//  * MODEL: paper-scale latency from the calibrated cost model (constants
//    measured in-process; see src/sim/cost_model.h).
//
// The PIPELINE section compares lock-step rounds (the engine at K=1, one
// round in the chain at a time) against the engine with K rounds in flight
// on the same workload — the §8.3 mechanism behind the paper's 68k msgs/sec
// headline number. Every row's round latency is submit→complete. Run only
// this section with VUVUZELA_FIG9_SECTION=pipeline.
//
// VUVUZELA_BENCH_SCALE=full additionally runs a real paper-scale round
// (µ=300K, 1M users; takes minutes and ~8 GB).

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/round_runner.h"
#include "src/sim/cost_model.h"

using namespace vuvuzela;

namespace {

void PrintRealSection(const double* mus, size_t num_mus, const uint64_t* user_points,
                      size_t num_points, double scale) {
  std::printf("\n  REAL rounds at 1/100 scale (mu/100, users/100), driven through the\n"
              "  pipelined engine (K=3 rounds in flight, 3 rounds measured per point):\n");
  std::printf("  %-12s", "users/100");
  for (size_t m = 0; m < num_mus; ++m) {
    std::printf("  mu=%-6s", bench::Human(mus[m] / scale).c_str());
  }
  std::printf("   (mean seconds per round, submit to complete)\n");
  for (size_t p = 0; p < num_points; ++p) {
    uint64_t users = user_points[p];
    uint64_t scaled_users = std::max<uint64_t>(10, users / 100);
    std::printf("  %-12llu", static_cast<unsigned long long>(scaled_users));
    for (size_t m = 0; m < num_mus; ++m) {
      bench::MultiRound run = bench::RunPipelinedConversationRounds(
          scaled_users, 3, mus[m] / scale, /*rounds=*/3, /*max_in_flight=*/3, users ^ 77);
      std::printf("  %8.3f", run.mean_round_seconds);
    }
    std::printf("\n");
  }
}

void PrintPipelineSection() {
  bench::PrintHeader("PIPELINE", "lock-step (K=1) vs pipelined engine (§8.3)");
  // Smoke mode (CI trajectory tracking) runs the same code paths on a small
  // workload; the JSON rows below land in the BENCH_engine.json artifact.
  const bool smoke = bench::SmokeScale();
  const uint64_t kUsers = smoke ? 2000 : 10000;
  const double kMu = smoke ? 600 : 3000;
  const uint64_t kRounds = smoke ? 4 : 6;
  // Per-round client collection window (§3.1): every row pays it; only K > 1
  // overlaps it with earlier rounds' processing ("while the first server is
  // collecting messages for one round, other servers process previous
  // rounds", §8.3). 2 s is 1/100 of the paper's ~3.5-minute round
  // cadence at 1M users, matching the bench's 1/100 scale.
  const double kWindow = smoke ? 0.2 : 2.0;
  // Warm-up (page cache, allocator arenas) so row order doesn't bias the
  // comparison.
  bench::RunPipelinedConversationRounds(kUsers, 3, kMu, 1, /*max_in_flight=*/1, 4242);
  bench::MultiRound lock_step = bench::RunPipelinedConversationRounds(
      kUsers, 3, kMu, kRounds, /*max_in_flight=*/1, 4242, kWindow);
  std::printf("  workload: %llu users, mu=%s, %llu rounds, %.1f s collection window, "
              "3 servers\n",
              static_cast<unsigned long long>(kUsers), bench::Human(kMu).c_str(),
              static_cast<unsigned long long>(kRounds), kWindow);
  std::printf("  %-22s %10s %14s %16s\n", "driver", "wall (s)", "msgs/sec",
              "round latency (s)");
  std::printf("  %-22s %10.3f %14.0f %16.3f\n", "lock-step (K=1)", lock_step.wall_seconds,
              lock_step.messages_per_second, lock_step.mean_round_seconds);
  bench::EmitJson("fig9_pipeline_lockstep",
                  {{"msgs_per_sec", lock_step.messages_per_second},
                   {"round_latency_mean_s", lock_step.mean_round_seconds},
                   {"round_latency_p50_s", lock_step.p50_round_seconds},
                   {"round_latency_p99_s", lock_step.p99_round_seconds},
                   {"wall_s", lock_step.wall_seconds}});
  for (size_t k : {3u, 4u}) {
    bench::MultiRound pipelined =
        bench::RunPipelinedConversationRounds(kUsers, 3, kMu, kRounds, k, 4242, kWindow);
    std::printf("  %-22s %10.3f %14.0f %16.3f   (%.2fx lock-step throughput)\n",
                k == 3 ? "pipelined (K=3)" : "pipelined (K=4)", pipelined.wall_seconds,
                pipelined.messages_per_second, pipelined.mean_round_seconds,
                pipelined.messages_per_second / lock_step.messages_per_second);
    bench::EmitJson(k == 3 ? "fig9_pipeline_k3" : "fig9_pipeline_k4",
                    {{"msgs_per_sec", pipelined.messages_per_second},
                     {"round_latency_mean_s", pipelined.mean_round_seconds},
                     {"round_latency_p50_s", pipelined.p50_round_seconds},
                     {"round_latency_p99_s", pipelined.p99_round_seconds},
                     {"wall_s", pipelined.wall_seconds},
                     {"vs_lockstep",
                      pipelined.messages_per_second / lock_step.messages_per_second}});
  }
  std::printf("  (The gap widens further with core count: beyond overlapping the collection\n"
              "   window, s+ cores let every chain stage compute concurrently.)\n");
}

void PrintTransportSection() {
  bench::PrintHeader("TRANSPORT", "in-process vs loopback-TCP hops at the same K (§7)");
  const uint64_t kUsers = 10000;
  const double kMu = 3000;
  const uint64_t kRounds = 6;
  const size_t kInFlight = 3;
  std::printf("  workload: %llu users, mu=%s, %llu rounds, K=%zu, 3 servers\n",
              static_cast<unsigned long long>(kUsers), bench::Human(kMu).c_str(),
              static_cast<unsigned long long>(kRounds), kInFlight);
  // Warm-up, then each backend on the identical engine discipline. The TCP
  // rows pay serialization + loopback copies on every pass — the wire
  // overhead a real multi-process deployment adds before network latency.
  bench::RunPipelinedConversationRounds(kUsers, 3, kMu, 1, kInFlight, 4242);
  bench::MultiRound local =
      bench::RunPipelinedConversationRounds(kUsers, 3, kMu, kRounds, kInFlight, 4242);
  bench::MultiRound tcp =
      bench::RunTcpPipelinedConversationRounds(kUsers, 3, kMu, kRounds, kInFlight, 4242);
  std::printf("  %-26s %10s %14s %16s\n", "hop transport", "wall (s)", "msgs/sec",
              "round latency (s)");
  std::printf("  %-26s %10.3f %14.0f %16.3f\n", "in-process (Local)", local.wall_seconds,
              local.messages_per_second, local.mean_round_seconds);
  std::printf("  %-26s %10.3f %14.0f %16.3f   (%.2fx local throughput)\n",
              "loopback TCP (per-hop daemon)", tcp.wall_seconds, tcp.messages_per_second,
              tcp.mean_round_seconds,
              local.messages_per_second > 0 ? tcp.messages_per_second / local.messages_per_second
                                            : 0.0);
}

}  // namespace

int main() {
  bench::PrintHeader("FIG9", "conversation latency vs number of users (3 servers)");

  // VUVUZELA_FIG9_SECTION=pipeline runs only the driver comparison (quick
  // check of the §8.3 pipelining win without the full latency sweep);
  // =transport runs only the hop-transport comparison.
  const char* section = std::getenv("VUVUZELA_FIG9_SECTION");
  bool pipeline_only = section != nullptr && std::strcmp(section, "pipeline") == 0;
  bool transport_only = section != nullptr && std::strcmp(section, "transport") == 0;
  if (transport_only) {
    PrintTransportSection();
    return 0;
  }

  const double kScale = 100.0;
  const double mus[] = {100000, 200000, 300000};
  const uint64_t user_points[] = {10, 500000, 1000000, 1500000, 2000000};

  if (!pipeline_only) {
    PrintRealSection(mus, 3, user_points, 5, kScale);
  }

  PrintPipelineSection();
  if (pipeline_only) {
    return 0;
  }
  PrintTransportSection();

  sim::CostModel model = sim::CostModel::Measure();
  std::printf("\n  MODEL at paper scale (calibrated: %.0f unwraps/s aggregate):\n",
              model.dh_ops_per_sec);
  std::printf("  %-12s", "users");
  for (double mu : mus) {
    std::printf("  mu=%-6s", bench::Human(mu).c_str());
  }
  std::printf("   (seconds per round; paper Fig 9: 20 s floor, 37 s @1M, 55 s @2M for mu=300K)\n");
  for (uint64_t users : user_points) {
    std::printf("  %-12s", bench::Human(static_cast<double>(users)).c_str());
    for (double mu : mus) {
      std::printf("  %8.1f", model.ConversationRoundLatency(users, 3, mu));
    }
    std::printf("\n");
  }

  bench::PrintHeader("TAB-THROUGHPUT", "headline throughput (§1, §8.2)");
  const struct {
    uint64_t users;
    double paper_latency, paper_throughput;
  } anchors[] = {{1000000, 37.0, 68000.0}, {2000000, 55.0, 84000.0}};
  for (const auto& a : anchors) {
    double latency = model.ConversationRoundLatency(a.users, 3, 300000);
    double throughput = model.ConversationPipelinedThroughput(a.users, 3, 300000);
    std::printf("  %-4s users: latency %5.1f s (paper %4.1f s), pipelined throughput "
                "%6.0f msg/s (paper %6.0f)\n",
                bench::Human(static_cast<double>(a.users)).c_str(), latency, a.paper_latency,
                throughput, a.paper_throughput);
  }
  std::printf("  10   users: latency %5.1f s (paper ~20 s noise floor)\n",
              model.ConversationRoundLatency(10, 3, 300000));

  if (bench::FullScale()) {
    std::printf("\n  FULL-SCALE real round (mu=300K, 1M users)...\n");
    bench::RealRound round = bench::RunRealConversationRound(1000000, 3, 300000, 99);
    std::printf("  measured: %.1f s end-to-end, %llu requests at last server "
                "(paper: 37 s, 2.2M requests)\n",
                round.seconds,
                static_cast<unsigned long long>(round.requests_at_last_server));
  } else {
    std::printf("\n  (set VUVUZELA_BENCH_SCALE=full for a real 1M-user round)\n");
  }
  return 0;
}
