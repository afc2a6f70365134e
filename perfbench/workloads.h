#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "load/workload.h"
#include "model/bi_encoder.h"
#include "model/cascade.h"
#include "model/cross_encoder.h"
#include "reference.h"
#include "report.h"
#include "retrieval/clustered_index.h"
#include "retrieval/dense_index.h"
#include "serve/linking_server.h"
#include "serving.h"

namespace perfbench {

/// Command-line parameters of one run.
struct RunContext {
  /// --seed: the traffic draws, the arrival process and the few-shot split.
  std::uint64_t seed = 1;
  /// --world-seed: the generated worlds. Fixed for benchmark runs, so the
  /// models and their accuracy are the same in every run.
  std::uint64_t world_seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::size_t nproc = 1;
  /// Scratch directory inside the checkout (bundles, the trace file).
  std::string workdir;
};

void RunFit(const RunContext& ctx, RunReport* report);
/// `name` is serve_zipf or serve_large.
void RunServe(const std::string& name, const RunContext& ctx,
              RunReport* report);

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 5;

// ---- Pieces shared by every workload's serving half ----------------------

/// Candidates requested per Link: the whole retrieved list, so the checks
/// see every candidate and its score.
inline constexpr std::size_t kTopK = 64;

/// The traffic of one workload.
struct TrafficSpec {
  metablink::load::MixKind mix = metablink::load::MixKind::kUniform;
  /// Open-loop Poisson rate, fixed below the capacity of the reference box.
  double open_qps = 100.0;
};

/// What the serving phases measured. `open` and `closed` hold every round's
/// requests and answers; the round_* vectors hold one figure per round.
struct TrafficOutcome {
  PhaseResult warm;
  PhaseResult open;
  PhaseResult closed;
  std::vector<double> round_p50_ms;
  std::vector<double> round_rps;
  std::vector<double> round_rps_per_cpu;

  /// The phases whose answers the checks read.
  std::vector<const PhaseResult*> phases() const {
    return {&warm, &open, &closed};
  }
  std::size_t answered() const {
    return warm.attempted + open.attempted + closed.attempted;
  }
  /// Server counters over the open and closed phases together.
  StatsDelta delta;
  /// Server-side latencies (enqueue to completion) of the open phase.
  std::vector<double> server_ms;
  metablink::serve::ServerStats after;
};

/// Runs the serving phases through `client`: an untimed closed-loop
/// warm-up, then eight rounds of an open-loop Poisson slice followed by a
/// closed-loop slice, one client thread per core. `server`, when not null,
/// is the server behind `client`, whose counters the outcome snapshots.
TrafficOutcome DriveTraffic(const Client& client, std::size_t pool_size,
                            metablink::serve::LinkingServer* server,
                            const TrafficSpec& spec, const RunContext& ctx,
                            RunReport* report);

/// Records link_rps_per_cpu (the median over the rounds) and (traced) the
/// serving per-layer metrics, among them the open-loop p50 (median over
/// the rounds) and p99 (over all rounds) and the closed loop's wall-clock
/// throughput (load.closed_rps).
void ReportTraffic(const TrafficOutcome& traffic, const RunContext& ctx,
                   RunReport* report);

/// Traced runs: replays the open-loop requests of `traffic` as one open
/// loop, twice, tracing off then on (no swaps), and records how much the
/// spans moved its p50 (trace.overhead_pct). Leaves tracing on.
void ReportTraceOverhead(const Client& client, const TrafficSpec& spec,
                         const TrafficOutcome& traffic, const RunContext& ctx,
                         RunReport* report);

/// Every layer a serving answer passes through, built over one model the
/// way a serving epoch builds them: the exhaustive index, its clustered
/// probe form and the rerank entity cache.
struct ServingLayers {
  /// Cells the probe visits per query (0: the index's default).
  std::size_t nprobe = 0;
  metablink::retrieval::DenseIndex index;
  metablink::retrieval::ClusteredIndex clustered;
  metablink::model::CrossEntityCache rerank_cache;
};
metablink::util::Status BuildServingLayers(
    const metablink::model::BiEncoder& bi,
    const metablink::model::CrossEncoder& cross,
    const metablink::kb::KnowledgeBase& kb, const std::string& domain,
    const metablink::retrieval::ClusteredIndexOptions& clustered_options,
    ServingLayers* out);

/// Packages one model version as a bundle directory.
metablink::util::Status SaveBundle(
    std::uint64_t version, const std::string& domain,
    const metablink::model::BiEncoder& bi,
    const metablink::model::CrossEncoder& cross,
    const metablink::kb::KnowledgeBase& kb, const ServingLayers& layers,
    bool with_clustered, const metablink::model::CascadeModel* cascade,
    const std::string& dir);

/// Traced runs: replays each distinct request through the public layer
/// calls one at a time and records their mean cost (model.mention_encode_us,
/// retrieval.exhaustive_topk_us, retrieval.probe_topk_us, model.rerank_us)
/// and the probe's recall against the exhaustive scan.
void ReplayLayers(const metablink::model::BiEncoder& bi,
                  const metablink::model::CrossEncoder& cross,
                  const ServingLayers& layers,
                  const std::vector<metablink::data::LinkingExample>& requests,
                  RunReport* report);

/// Share of the exhaustive top-k the clustered probe finds, over `requests`.
double ProbeRecall(const metablink::model::BiEncoder& bi,
                   const ServingLayers& layers,
                   const std::vector<metablink::data::LinkingExample>& requests,
                   std::size_t k);

/// Times `n` alternating SwapModel calls over `dirs` (ms each); counts
/// them under "swap". Every call must publish.
std::vector<double> TimeSwaps(metablink::serve::LinkingServer* server,
                              const std::vector<std::string>& dirs,
                              std::size_t n, RunReport* report);

/// Traced runs: the store and publish costs of one bundle
/// (store.bundle_load_ms, serve.from_bundle_ms), each the median of three.
void ReportBundleCosts(const std::string& dir, RunReport* report);

/// Top-1 accuracy (%) over the distinct requests `phase` answered, each
/// counted once (its first answer): U.Acc through the serving path, not
/// weighted by how hot a mention is.
double TopOneAccuracy(const PhaseResult& phase,
                      const std::vector<metablink::data::LinkingExample>& pool);

/// Checks every answer of every phase of `traffic` against the reference
/// answers `refs` (aligned with `pool`); returns the number of mismatches,
/// describing the first one in the report.
std::size_t CheckAnswers(
    const TrafficOutcome& traffic,
    const std::vector<metablink::data::LinkingExample>& pool,
    const ReferenceLinker& linker, const std::vector<ReferenceAnswer>& refs,
    RunReport* report);

/// Pool indices that `phases` served, each once, in first-served order.
std::vector<std::size_t> DistinctServed(
    const std::vector<const PhaseResult*>& phases);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
