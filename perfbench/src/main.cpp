// The repo benchmark: one workload per run, end-to-end metrics from
// untraced passes (--trace 0) or per-layer metrics from a traced pass
// (--trace 1).  The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Every pass's digest of simulated outputs must match the run's first
// pass, and on the default seed the pinned digest below; the traced run
// also checks the staged attack driver, and for `mitigations` the
// library's own MitigationStudy::Run on one thread, against the
// untraced pass.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mitigations/study.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;

/// Digests of the default seed's simulated outputs.  A speed-only change
/// must leave them bit-identical.
const std::map<std::string, std::string> kPinned = {
    {"exploit", "1133f66c2a6fd4a4"},
    {"mitigations", "89d310e28625c796"},
    {"cloud_read", "8ec1653e29370ab9"},
    {"cloud_rw", "b889a340b3978b4d"},
};

/// Set-up is measured at least this many times per run (median kept).
constexpr std::size_t kSetupSamples = 15;

using Factory = std::function<std::unique_ptr<Workload>(const Inputs&,
                                                        const Options&)>;

const std::map<std::string, Factory>& Workloads() {
  static const std::map<std::string, Factory> w = {
      {"exploit", MakeExploit},
      {"mitigations", MakeMitigations},
      {"cloud_read", MakeCloudRead},
      {"cloud_rw", MakeCloudRw},
  };
  return w;
}

unsigned CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Keeps a single-threaded run on the CPU it started on: migrating
/// between (virtual) CPUs costs the simulator its caches and adds
/// run-to-run noise.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

PassResult RunPass(const Factory& make, const Inputs& in,
                   const Options& opt) {
  PassResult r;
  std::unique_ptr<Workload> w = make(in, opt);
  const double t0 = HostNow();
  w->setup();
  const double t1 = HostNow();
  const double excluded = w->run(r);
  const double t2 = HostNow();
  r.setup_s = t1 - t0;
  r.run_s = t2 - t1 - excluded;
  return r;
}

double MeasureSetup(const Factory& make, const Inputs& in,
                    const Options& opt) {
  std::unique_ptr<Workload> w = make(in, opt);
  const double t0 = HostNow();
  w->setup();
  return HostNow() - t0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Checks `got` against `want`; on mismatch explains on stderr.
bool SameDigest(const char* what, const Digest& want, const Digest& got) {
  if (want.hash() == got.hash()) return true;
  std::fprintf(stderr, "perfbench: %s digest %s != %s\n", what,
               got.hex().c_str(), want.hex().c_str());
  // First differing key=value line, when the scalar fields differ.
  const std::string& a = want.text();
  const std::string& b = got.text();
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const std::size_t line = a.rfind('\n', i == 0 ? 0 : i - 1);
  const std::size_t from = line == std::string::npos ? 0 : line + 1;
  std::fprintf(stderr, "  expected: %s\n  got:      %s\n",
               a.substr(from, a.find('\n', from) - from).c_str(),
               b.substr(from, b.find('\n', from) - from).c_str());
  return false;
}

bool CheckPinned(const std::string& workload, const Inputs& in,
                 const Digest& d) {
  std::printf("digest %s\n", d.hex().c_str());
  if (in.seed != kDefaultSeed) return true;
  const auto it = kPinned.find(workload);
  if (it == kPinned.end()) return true;
  if (it->second == d.hex()) return true;
  std::fprintf(stderr, "perfbench: %s digest %s differs from pinned %s\n",
               workload.c_str(), d.hex().c_str(), it->second.c_str());
  return false;
}

int RunUntraced(const std::string& workload, const Inputs& in,
                double seconds, const Options& opt) {
  const Factory& make = Workloads().at(workload);
  const double start = HostNow();
  std::vector<PassResult> passes;
  do {
    passes.push_back(RunPass(make, in, opt));
  } while (passes.size() < 2 || HostNow() - start < seconds);

  bool correct = CheckPinned(workload, in, passes.front().digest);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> run_s;
  std::vector<double> rate;
  std::vector<double> setup_s;
  for (const PassResult& p : passes) {
    std::printf("pass setup_s %.6f run_s %.6f sim_cmds %llu\n", p.setup_s,
                p.run_s, static_cast<unsigned long long>(p.sim_cmds));
    correct = SameDigest("repeated pass", passes.front().digest, p.digest) &&
              correct;
    attempted += p.attempted;
    failed += p.failed;
    run_s.push_back(p.run_s);
    rate.push_back(static_cast<double>(p.sim_cmds) / p.run_s);
    setup_s.push_back(p.setup_s);
  }
  while (setup_s.size() < kSetupSamples) {
    setup_s.push_back(MeasureSetup(make, in, opt));
  }
  std::printf("passes %zu\n", passes.size());
  PrintResult(correct, attempted, failed,
              {{"run_s", Median(run_s), "s"},
               {"sim_cmds_per_s", Median(rate), "1/s"},
               {"setup_s", Median(setup_s), "s"},
               {"peak_rss_mib", PeakRssMiB(), "MiB"}});
  return correct ? 0 : 1;
}

/// Per-layer metrics of a traced pass.  Every workload reports every
/// metric; a layer the workload never calls reads 0.
std::vector<Metric> LayerMetrics(const Tracer& tr, const PassResult& traced,
                                 const PassResult& untraced,
                                 unsigned workers) {
  const Counts& c = traced.counts;
  const auto count = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto span_s = [&tr](const std::string& name) {
    return tr.total(name);
  };
  const double loop_cmds = count("nvme.loop_cmds");
  const double spray_files = count("attack.spray_files");
  const double hammer_reads = count("attack.hammer_reads");

  std::vector<Metric> m = {
      {"nvme.loop_s", span_s("nvme.loop"), "s"},
      {"nvme.loop_ns_per_cmd", ratio(span_s("nvme.loop") * 1e9, loop_cmds),
       "ns"},
      {"nvme.submit_ns_per_cmd",
       ratio(span_s("nvme.submit") * 1e9, loop_cmds), "ns"},
      {"nvme.poll_ns_per_cmd", ratio(span_s("nvme.poll") * 1e9, loop_cmds),
       "ns"},
      {"nvme.waves", count("nvme.waves"), "count"},
      {"nvme.read_cmds", count("nvme.read_cmds"), "count"},
      {"nvme.write_cmds", count("nvme.write_cmds"), "count"},
      {"nvme.trim_cmds", count("nvme.trim_cmds"), "count"},
      {"attack.spray_s", span_s("attack.spray"), "s"},
      {"attack.spray_us_per_file",
       ratio(span_s("attack.spray") * 1e6, spray_files), "us"},
      {"attack.spray_reads_per_file",
       ratio(count("attack.spray_reads"), spray_files), "count"},
      {"attack.spray_attacker_s", span_s("attack.spray_attacker"), "s"},
      {"attack.scan_s", span_s("attack.scan"), "s"},
      {"attack.dump_s", span_s("attack.dump"), "s"},
      {"attack.unspray_s", span_s("attack.unspray"), "s"},
      {"attack.hammer_s", span_s("attack.hammer"), "s"},
      {"attack.hammer_ns_per_read",
       ratio(span_s("attack.hammer") * 1e9, hammer_reads), "ns"},
      {"attack.find_s", span_s("attack.find"), "s"},
      {"attack.scan_hit_ratio",
       ratio(count("attack.scan_hits"), count("attack.scan_files")),
       "ratio"},
      {"attack.flips_per_mread",
       ratio(count("dram.bitflips"), hammer_reads / 1e6), "count/Mread"},
      {"cloud.host_ctor_s", span_s("cloud.host_ctor"), "s"},
      {"cloud.add_tenant_us",
       ratio(span_s("cloud.add_tenant") * 1e6,
             static_cast<double>(tr.count("cloud.add_tenant"))),
       "us"},
      {"sim.generate_s", span_s("sim.generate"), "s"},
      {"ftl.flash_reads", count("ftl.flash_reads"), "count"},
      {"ftl.unmapped_reads", count("ftl.unmapped_reads"), "count"},
      {"ftl.flash_programs", count("ftl.flash_programs"), "count"},
      {"ftl.gc_runs", count("ftl.gc_runs"), "count"},
      {"ftl.gc_relocations", count("ftl.gc_relocations"), "count"},
      {"ftl.write_amp",
       ratio(count("ftl.flash_programs"), count("ftl.host_writes")),
       "ratio"},
      {"ftl.l2p_dram_reads", count("ftl.l2p_dram_reads"), "count"},
      {"ftl.scrub_runs", count("ftl.scrub_runs"), "count"},
      {"dram.activations", count("dram.activations"), "count"},
      {"dram.bitflips", count("dram.bitflips"), "count"},
      {"dram.trr_refreshes", count("dram.trr_refreshes"), "count"},
      {"dram.para_refreshes", count("dram.para_refreshes"), "count"},
      {"dram.cache_hit_ratio",
       ratio(count("dram.cache_hits"),
             count("dram.cache_hits") + count("dram.cache_misses")),
       "ratio"},
      {"dram.ecc_corrected", count("dram.ecc_corrected"), "count"},
      {"nand.reads", count("nand.reads"), "count"},
      {"nand.programs", count("nand.programs"), "count"},
      {"nand.erases", count("nand.erases"), "count"},
  };
  double trials_s = 0.0;
  double critical_s = 0.0;
  for (const rhsd::MitigationScenario& s :
       rhsd::MitigationStudy::StandardScenarios()) {
    const std::string slug = ScenarioSlug(s.name);
    const double t = span_s("mitigations.trial." + slug);
    trials_s += t;
    critical_s = std::max(critical_s, t);
    m.push_back({"mitigations.trial_s." + slug, t, "s"});
  }
  m.push_back({"exec.critical_trial_s", critical_s, "s"});
  m.push_back({"exec.busy_share",
               ratio(trials_s, traced.run_s * static_cast<double>(workers)),
               "ratio"});
  m.push_back({"trace.overhead_share",
               ratio(traced.run_s - untraced.run_s, untraced.run_s),
               "ratio"});
  return m;
}

void PrintSpanTable(const Tracer& tr) {
  std::printf("%-40s %8s %11s %11s %11s %16s\n", "span", "count", "total-s",
              "self-s", "median-us", "tail-us");
  for (const auto& [name, st] : tr.stats()) {
    char tail[48] = "-";
    if (!st.tail_label.empty()) {
      std::snprintf(tail, sizeof tail, "%s %.1f", st.tail_label.c_str(),
                    st.tail_s * 1e6);
    }
    std::printf("%-40s %8llu %11.6f %11.6f %11.1f %16s\n", name.c_str(),
                static_cast<unsigned long long>(st.count), st.total_s,
                st.self_s, st.median_s * 1e6, tail);
  }
}

int RunTraced(const std::string& workload, const Inputs& in,
              const Options& opt, const std::string& trace_dir) {
  const Factory& make = Workloads().at(workload);
  const PassResult untraced = RunPass(make, in, opt);
  bool correct = CheckPinned(workload, in, untraced.digest);

  Options staged = opt;
  staged.staged = true;
  Tracer tracer;
  const PassResult traced = RunPass(make, in, staged);
  correct = SameDigest("traced", untraced.digest, traced.digest) && correct;
  std::uint64_t attempted = untraced.attempted + traced.attempted;
  std::uint64_t failed = untraced.failed + traced.failed;

  if (workload == "mitigations") {
    // The library's own matrix, one trial at a time.
    PassResult reference;
    MakeMitigationsReference()->run(reference);
    correct = SameDigest("MitigationStudy::Run", untraced.digest,
                         reference.digest) &&
              correct;
    attempted += reference.attempted;
  }

  PrintSpanTable(tracer);
  std::filesystem::create_directories(trace_dir);
  const std::string path = trace_dir + "/" + workload + "-seed" +
                           std::to_string(in.seed) + ".jsonl";
  if (!tracer.write_jsonl(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("spans written to %s\n", path.c_str());
  PrintResult(correct, attempted, failed,
              LayerMetrics(tracer, traced, untraced, opt.workers));
  return correct ? 0 : 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "exploit|mitigations|cloud_read|cloud_rw --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args = {
      {"--trace-dir", ".bench_build/traces"}};
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return Usage("arguments come in --flag value pairs");
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (args.count(required) == 0) {
      return Usage((std::string("missing ") + required).c_str());
    }
  }
  const std::string workload = args["--workload"];
  if (Workloads().count(workload) == 0) return Usage("unknown workload");
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), &end, 10);
  if (args["--seed"].empty() || *end != '\0') return Usage("bad --seed");
  const double seconds = std::strtod(args["--seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0) || seconds > 3600.0) {
    return Usage("bad --seconds");
  }
  const std::string trace = args["--trace"];
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");

  const Inputs in = DeriveInputs(seed);
  Options opt;
  opt.workers = CpuCount();
  if (workload != "mitigations") PinToCurrentCpu();
  std::printf("workload %s seed %llu workers %u\n", workload.c_str(),
              static_cast<unsigned long long>(seed), opt.workers);
  return trace == "0" ? RunUntraced(workload, in, seconds, opt)
                      : RunTraced(workload, in, opt, args["--trace-dir"]);
}
