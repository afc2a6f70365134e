// metablink_perfbench: one run of one benchmark workload.
//
//   metablink_perfbench --workload fit|serve_zipf|serve_large
//                       --seed N --seconds S --trace 0|1 --workdir DIR
//                       [--world-seed N] [--source-digest HEX]
//
// Prints the machine fingerprint, the per-phase operation ledger and every
// measured metric, then as its last line one JSON object: correct,
// attempted, failed and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). perfbench/run.py builds the binary and
// runs it; see perfbench/README.md.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "fingerprint.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly what BENCHMARK.json declares; run.py checks the match.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"fit_s", "s"},
    {"fit_uacc", "%"},
    {"link_rps_per_cpu", "req/cpu-s"},
    {"link_uacc", "%"},
    {"swap_publish_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"gen.rewriter_fit_s", "s"},
    {"gen.synthesize_s", "s"},
    {"gen.synthetic_pairs", "count"},
    {"train.warmup_s", "s"},
    {"eval.mine_s", "s"},
    {"train.meta_bi_s", "s"},
    {"train.meta_bi_step_ms", "ms"},
    {"train.meta_cross_s", "s"},
    {"train.meta_cross_step_ms", "ms"},
    {"train.cpu_per_wall", "ratio"},
    {"train.meta_bi_selected_ratio", "ratio"},
    {"train.meta_cross_selected_ratio", "ratio"},
    {"core.fit_self_s", "s"},
    {"serve.batch_size_mean", "req/batch"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.encode_ms_per_req", "ms"},
    {"serve.retrieve_ms_per_req", "ms"},
    {"serve.rerank_ms_per_req", "ms"},
    {"serve.server_p50_ms", "ms"},
    {"serve.queue_depth_high_water", "count"},
    {"load.start_lag_max_ms", "ms"},
    {"load.link_p50_ms", "ms"},
    {"load.link_p99_ms", "ms"},
    {"load.closed_rps", "req/s"},
    {"load.swap_p50_ms", "ms"},
    {"serve.tier_exited", "count"},
    {"serve.tier_distilled", "count"},
    {"serve.tier_full", "count"},
    {"model.mention_encode_us", "us"},
    {"retrieval.exhaustive_topk_us", "us"},
    {"retrieval.probe_topk_us", "us"},
    {"model.rerank_us", "us"},
    {"retrieval.recall_at_64", "ratio"},
    {"store.bundle_save_ms", "ms"},
    {"store.bundle_load_ms", "ms"},
    {"serve.from_bundle_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: metablink_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--world-seed N] "
               "[--source-digest HEX]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, workdir, digest;
  long long seed = -1;
  long long world_seed = 1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--world-seed") {
      world_seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (workload != "fit" && workload != "serve_zipf" &&
      workload != "serve_large") {
    return Usage("unknown or missing --workload");
  }
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      workdir.empty()) {
    return Usage("--seed, --seconds, --trace and --workdir are required");
  }

  const Fingerprint fp = TakeFingerprint(digest);
  PrintFingerprint(fp);
  const std::string problem = BuildProblem(fp);
  if (!problem.empty()) {
    std::fprintf(stderr, "refusing to measure: %s\n", problem.c_str());
    return 3;
  }
  ::mkdir(workdir.c_str(), 0755);

  RunContext ctx;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.world_seed = static_cast<std::uint64_t>(world_seed);
  ctx.seconds = seconds;
  ctx.traced = trace == 1;
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.workdir = workdir;

  Progress("start");
  RunReport report;
  if (ctx.traced) {
    // Layers a workload does not exercise read 0.
    for (const MetricSpec& m : kPerLayer) report.PerLayer(m.name, 0.0, m.unit);
  }
  std::printf("workload %s seed %lld world_seed %lld seconds %g trace %d\n",
              workload.c_str(), seed, world_seed, seconds, trace);
  std::fflush(stdout);
  if (workload == "fit") {
    RunFit(ctx, &report);
  } else {
    RunServe(workload, ctx, &report);
  }
  Progress("done");
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  if (ctx.traced) {
    const std::string path =
        workdir + "/trace-" + workload + "-" + std::to_string(seed) + ".json";
    if (Tracer::Get().WriteChromeTrace(path)) {
      std::printf("trace %zu spans -> %s\n", Tracer::Get().size(),
                  path.c_str());
    } else {
      report.CheckFailed("cannot write " + path);
    }
  }
  for (const MetricSpec& m : kEndToEnd) {
    auto it = report.end_to_end().find(m.name);
    if (it == report.end_to_end().end() || !std::isfinite(it->second.value) ||
        it->second.value <= 0.0) {
      report.CheckFailed(std::string("end-to-end metric missing or not "
                                     "positive: ") + m.name);
    }
  }
  report.PrintDetails();
  std::printf("%s\n", report.ResultLine(ctx.traced).c_str());
  return 0;
}
