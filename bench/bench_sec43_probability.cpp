// §4.3: probability of a useful bitflip.
//
// Reproduces the paper's closed form p = F_v(F_v + 2F_a) / (4 C_v PB),
// its worked example (~7% per cycle, >50% after 10 cycles), validates
// the closed form against a Monte-Carlo simulation of flip placement,
// and sweeps the spray parameters.
//
// The Monte Carlo runs on the parallel experiment engine: trials are
// seeded per-index, so the estimates are identical for any thread
// count (set RHSD_THREADS to override the default).
#include <cstdio>

#include "attack/probability_model.hpp"
#include "bench_report.hpp"
#include "exec/experiment_engine.hpp"
#include "exec/thread_pool.hpp"

using namespace rhsd;

int main() {
  std::printf("== §4.3: probability of a useful bitflip ==\n\n");

  exec::ThreadPool pool;

  // The worked example: equal partitions, attacker fills 25% of the
  // victim partition and 100% of its own.
  const AttackParameters example = AttackParameters::PaperExample();
  const double p = SingleCycleSuccess(example);
  constexpr std::uint64_t kTrials = 4'000'000;
  const double t0 = bench::HostSeconds();
  const double mc = SimulateSingleCycleParallel(example, 20210727, kTrials, pool);
  const double mc_s = bench::HostSeconds() - t0;
  std::printf("paper example (C_a = C_v = PB/2, F_v = C_v/4, F_a = C_a):\n");
  std::printf("  closed form : %.4f   (paper: ~0.07)\n", p);
  std::printf("  monte carlo : %.4f   (4M trials, %u threads, %.1fM trials/s)\n\n",
              mc, pool.size(), kTrials / mc_s / 1e6);

  std::printf("cumulative success over attack cycles (1-(1-p)^n):\n");
  std::printf("  %-8s", "cycles");
  for (int n = 1; n <= 10; ++n) std::printf(" %6d", n);
  std::printf("\n  %-8s", "P(leak)");
  for (int n = 1; n <= 10; ++n) {
    std::printf(" %5.1f%%", 100 * CumulativeSuccess(p, n));
  }
  std::printf("\n  (paper: \"repeating the attack cycle for 10 times "
              "brings the chances\n   of success to more than 50%%\" — "
              "here %.1f%%)\n\n",
              100 * CumulativeSuccess(p, 10));

  std::printf("sweep: victim spray fraction F_v/C_v (F_a = C_a fixed):\n");
  std::printf("  %-12s %-14s %-14s %-12s\n", "F_v/C_v", "closed form",
              "monte carlo", "cycles->50%");
  for (const double fv_fraction : {0.05, 0.10, 0.25, 0.50, 1.00}) {
    AttackParameters sweep = AttackParameters::PaperExample();
    sweep.victim_spray = sweep.victim_blocks * fv_fraction;
    const double cf = SingleCycleSuccess(sweep);
    const double sim = SimulateSingleCycleParallel(
        sweep, static_cast<std::uint64_t>(fv_fraction * 1e6), 1'000'000, pool);
    int cycles_to_half = 0;
    while (CumulativeSuccess(cf, cycles_to_half) < 0.5 &&
           cycles_to_half < 1000) {
      ++cycles_to_half;
    }
    std::printf("  %10.0f%% %14.4f %14.4f %12d\n", 100 * fv_fraction, cf,
                sim, cycles_to_half);
  }

  std::printf("\nsweep: attacker spray F_a/C_a (F_v = C_v/4 fixed):\n");
  std::printf("  %-12s %-14s\n", "F_a/C_a", "closed form");
  for (const double fa_fraction : {0.0, 0.25, 0.50, 1.00}) {
    AttackParameters sweep = AttackParameters::PaperExample();
    sweep.attacker_spray = sweep.attacker_blocks * fa_fraction;
    std::printf("  %10.0f%% %14.4f\n", 100 * fa_fraction,
                SingleCycleSuccess(sweep));
  }
  std::printf(
      "\nshape check: ~7%% per cycle at the paper's parameters, >50%%\n"
      "within 10 cycles; success scales with both spray terms.\n");

  bench::BenchReport report;
  report.set("sec43_monte_carlo_trials_per_s", kTrials / mc_s);
  report.set("sec43_threads", static_cast<double>(pool.size()));
  report.write();
  return 0;
}
