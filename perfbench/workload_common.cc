// Serving-half pieces every workload shares: the traffic phases, the
// layer replays, bundle packaging and the answer checks.

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "store/model_bundle.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"
#include "worlds.h"

namespace perfbench {

namespace mb = metablink;

TrafficOutcome DriveTraffic(const Client& client, std::size_t pool_size,
                            mb::serve::LinkingServer* server,
                            const TrafficSpec& spec, const RunContext& ctx,
                            RunReport* report) {
  const std::size_t clients = ctx.nproc;
  // Shares of the run: warm-up 10%, open loop 50%, closed loop 40%. The
  // timed phases are cut into kRounds alternating open and closed slices,
  // and each metric is the median over the rounds: on a shared host a
  // stall of a second or two then spoils one round, not the figure.
  constexpr std::size_t kRounds = 8;
  const double open_s = 0.5 * ctx.seconds / kRounds;
  const double closed_s = 0.4 * ctx.seconds / kRounds;
  const auto open_n = static_cast<std::size_t>(spec.open_qps * open_s);
  auto draw = [&](const std::string& stream, std::size_t n) {
    return DrawRequests(spec.mix, pool_size, n,
                        SubSeed(ctx.seed, stream.c_str()));
  };

  // Warm-up: caches, allocator and the scheduler reach steady state before
  // anything is timed; its answers are checked but never timed.
  TrafficOutcome out;
  out.warm = RunClosedLoop(client, draw("warmup", 1 << 16), clients,
                           0.1 * ctx.seconds);
  report->Ops("warmup", out.warm.attempted, out.warm.failed);

  const mb::serve::ServerStats before =
      server != nullptr ? server->Stats() : mb::serve::ServerStats{};
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::string round = std::to_string(r);
    const std::size_t served_before =
        server != nullptr ? server->LatenciesMs().size() : 0;
    PhaseResult open =
        RunOpenLoop(client, draw("open-" + round, open_n), spec.open_qps,
                    SubSeed(ctx.seed, ("arrivals-" + round).c_str()), clients);
    if (server != nullptr) {
      const std::vector<double> server_ms = server->LatenciesMs();
      out.server_ms.insert(out.server_ms.end(),
                           server_ms.begin() +
                               std::min(served_before, server_ms.size()),
                           server_ms.end());
    }
    out.round_p50_ms.push_back(Quantile(open.latency_ms, 0.50));
    Append(std::move(open), &out.open);

    PhaseResult closed = RunClosedLoop(
        client, draw("closed-" + round, 1 << 16), clients, closed_s);
    out.round_rps.push_back(closed.rps());
    out.round_rps_per_cpu.push_back(closed.per_cpu_s());
    Append(std::move(closed), &out.closed);
  }
  report->Ops("open_loop", out.open.attempted, out.open.failed);
  report->Ops("closed_loop", out.closed.attempted, out.closed.failed);
  if (server != nullptr) {
    out.after = server->Stats();
    out.delta = Delta(before, out.after);
  }
  return out;
}

void ReportTraffic(const TrafficOutcome& t, const RunContext& ctx,
                   RunReport* report) {
  report->EndToEnd("link_rps_per_cpu", Median(t.round_rps_per_cpu),
                   "req/cpu-s");
  std::printf("serving open_loop n=%zu wall=%.3fs  closed_loop n=%zu "
              "wall=%.3fs cpu=%.3fs\nrounds p50_ms",
              t.open.attempted, t.open.wall_s, t.closed.attempted,
              t.closed.wall_s, t.closed.cpu_s);
  for (double v : t.round_p50_ms) std::printf(" %.3f", v);
  std::printf("  rps");
  for (double v : t.round_rps) std::printf(" %.0f", v);
  std::printf("  rps_per_cpu");
  for (double v : t.round_rps_per_cpu) std::printf(" %.0f", v);
  std::printf("\n");
  if (!ctx.traced) return;
  report->PerLayer("load.closed_rps", Median(t.round_rps), "req/s");
  // Open-loop latency is reported without a bound: on a shared VM it is set
  // by how fast the host wakes idle vCPUs, and over ten runs of fixed code
  // the p50's spread reached the largest bound allowed (the p99's is wider).
  report->PerLayer("load.link_p50_ms", Median(t.round_p50_ms), "ms");
  report->PerLayer("load.link_p99_ms", Quantile(t.open.latency_ms, 0.99),
                   "ms");
  const StatsDelta& d = t.delta;
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report->PerLayer("serve.batch_size_mean", ratio(d.requests, d.batches),
                   "req/batch");
  report->PerLayer("serve.cache_hit_ratio",
                   ratio(d.cache_hits, d.cache_hits + d.cache_misses),
                   "ratio");
  report->PerLayer("serve.encode_ms_per_req", ratio(d.encode_ms, d.requests),
                   "ms");
  report->PerLayer("serve.retrieve_ms_per_req",
                   ratio(d.retrieve_ms, d.requests), "ms");
  report->PerLayer("serve.rerank_ms_per_req", ratio(d.rerank_ms, d.requests),
                   "ms");
  report->PerLayer("serve.server_p50_ms", Quantile(t.server_ms, 0.50), "ms");
  report->PerLayer("serve.queue_depth_high_water",
                   static_cast<double>(t.after.queue_depth_high_water),
                   "count");
  report->PerLayer("load.start_lag_max_ms", t.open.max_start_lag_ms, "ms");
  report->PerLayer("serve.tier_exited", d.exited, "count");
  report->PerLayer("serve.tier_distilled", d.distilled, "count");
  report->PerLayer("serve.tier_full", d.full, "count");
}

void ReportTraceOverhead(const Client& client, const TrafficSpec& spec,
                         const TrafficOutcome& traffic, const RunContext& ctx,
                         RunReport* report) {
  double p50[2] = {0.0, 0.0};
  for (int traced = 0; traced < 2; ++traced) {
    Tracer::Get().set_enabled(traced == 1);
    const PhaseResult replay =
        RunOpenLoop(client, traffic.open.sequence, spec.open_qps,
                    SubSeed(ctx.seed, "arrivals"), ctx.nproc);
    report->Ops(traced == 1 ? "traced_replay" : "untraced_replay",
                replay.attempted, replay.failed);
    p50[traced] = Quantile(replay.latency_ms, 0.50);
  }
  std::printf("trace overhead: open-loop replay p50 %.4f ms traced vs %.4f "
              "ms untraced\n",
              p50[1], p50[0]);
  report->PerLayer("trace.overhead_pct",
                   p50[0] > 0.0 ? 100.0 * (p50[1] - p50[0]) / p50[0] : 0.0,
                   "%");
}

mb::util::Status BuildServingLayers(
    const mb::model::BiEncoder& bi, const mb::model::CrossEncoder& cross,
    const mb::kb::KnowledgeBase& kb, const std::string& domain,
    const mb::retrieval::ClusteredIndexOptions& clustered_options,
    ServingLayers* out) {
  const std::vector<mb::kb::EntityId>& ids = kb.EntitiesInDomain(domain);
  std::vector<mb::kb::Entity> entities;
  entities.reserve(ids.size());
  for (mb::kb::EntityId id : ids) entities.push_back(kb.entity(id));
  mb::model::EncodeScratch scratch;
  mb::tensor::Tensor emb;
  bi.EncodeEntitiesInference(entities, &scratch, &emb);
  METABLINK_RETURN_IF_ERROR(out->index.Build(std::move(emb), ids));
  // Offline preparation, so the k-means assignment may use every core.
  mb::util::ThreadPool pool;
  METABLINK_RETURN_IF_ERROR(
      out->clustered.Build(out->index, clustered_options, &pool));
  cross.PrecomputeEntities(entities, &out->rerank_cache);
  return mb::util::Status::OK();
}

mb::util::Status SaveBundle(std::uint64_t version, const std::string& domain,
                            const mb::model::BiEncoder& bi,
                            const mb::model::CrossEncoder& cross,
                            const mb::kb::KnowledgeBase& kb,
                            const ServingLayers& layers, bool with_clustered,
                            const mb::model::CascadeModel* cascade,
                            const std::string& dir) {
  mb::store::ModelBundleParts parts;
  parts.model_version = version;
  parts.domain = domain;
  parts.bi = &bi;
  parts.cross = &cross;
  parts.kb = &kb;
  parts.index = &layers.index;
  parts.rerank_cache = &layers.rerank_cache;
  parts.clustered = with_clustered ? &layers.clustered : nullptr;
  parts.cascade = cascade;
  ScopedSpan span("store.bundle_save");
  return mb::store::SaveModelBundle(parts, dir);
}

void ReplayLayers(const mb::model::BiEncoder& bi,
                  const mb::model::CrossEncoder& cross,
                  const ServingLayers& layers,
                  const std::vector<mb::data::LinkingExample>& requests,
                  RunReport* report) {
  const std::size_t n = requests.size();
  if (n == 0) return;
  const std::size_t k = kTopK;
  mb::model::EncodeScratch encode_scratch;
  std::vector<mb::tensor::Tensor> queries(n);
  auto t0 = Clock::now();
  {
    ScopedSpan span("model.mention_encode");
    for (std::size_t i = 0; i < n; ++i) {
      bi.EncodeMentionsInference({requests[i]}, &encode_scratch, &queries[i]);
    }
  }
  const double encode_s = SecondsSince(t0);

  mb::retrieval::TopKScratch topk_scratch;
  std::vector<mb::retrieval::ScoredEntity> hits;
  std::vector<std::vector<std::size_t>> rows(n);
  t0 = Clock::now();
  {
    ScopedSpan span("retrieval.exhaustive_topk");
    for (std::size_t i = 0; i < n; ++i) {
      layers.index.TopKInto(queries[i].row_data(0), k, &topk_scratch, &hits);
      rows[i].reserve(hits.size());
      for (const auto& h : hits) rows[i].push_back(h.id);
    }
  }
  const double exhaustive_s = SecondsSince(t0);

  mb::retrieval::ClusteredScratch probe_scratch;
  t0 = Clock::now();
  {
    ScopedSpan span("retrieval.probe_topk");
    for (std::size_t i = 0; i < n; ++i) {
      layers.clustered.TopKInto(queries[i].row_data(0), k, layers.nprobe,
                                &probe_scratch, &hits);
    }
  }
  const double probe_s = SecondsSince(t0);

  // Entity ids to cache rows, as a serving epoch maps them.
  std::vector<std::size_t> row_of;
  const auto& ids = layers.index.ids();
  for (std::size_t r = 0; r < ids.size(); ++r) {
    if (ids[r] >= row_of.size()) row_of.resize(ids[r] + 1, 0);
    row_of[ids[r]] = r;
  }
  for (auto& list : rows) {
    for (std::size_t& id : list) id = row_of[id];
  }
  mb::model::CrossScoreScratch cross_scratch;
  std::vector<float> scores;
  t0 = Clock::now();
  {
    ScopedSpan span("model.rerank");
    for (std::size_t i = 0; i < n; ++i) {
      cross.ScoreCachedInference(requests[i], rows[i], layers.rerank_cache,
                                 &cross_scratch, &scores);
    }
  }
  const double rerank_s = SecondsSince(t0);

  const double per = 1e6 / static_cast<double>(n);
  report->PerLayer("model.mention_encode_us", encode_s * per, "us");
  report->PerLayer("retrieval.exhaustive_topk_us", exhaustive_s * per, "us");
  report->PerLayer("retrieval.probe_topk_us", probe_s * per, "us");
  report->PerLayer("model.rerank_us", rerank_s * per, "us");
  report->PerLayer("retrieval.recall_at_64",
                   ProbeRecall(bi, layers, requests, k), "ratio");
}

double ProbeRecall(const mb::model::BiEncoder& bi, const ServingLayers& layers,
                   const std::vector<mb::data::LinkingExample>& requests,
                   std::size_t k) {
  mb::model::EncodeScratch encode_scratch;
  mb::tensor::Tensor q;
  mb::retrieval::TopKScratch topk_scratch;
  mb::retrieval::ClusteredScratch probe_scratch;
  std::vector<mb::retrieval::ScoredEntity> exact, probed;
  std::size_t found = 0, total = 0;
  for (const auto& ex : requests) {
    bi.EncodeMentionsInference({ex}, &encode_scratch, &q);
    layers.index.TopKInto(q.row_data(0), k, &topk_scratch, &exact);
    layers.clustered.TopKInto(q.row_data(0), k, layers.nprobe, &probe_scratch,
                              &probed);
    std::unordered_set<mb::kb::EntityId> got;
    for (const auto& h : probed) got.insert(h.id);
    for (const auto& h : exact) found += got.count(h.id);
    total += exact.size();
  }
  return total > 0 ? static_cast<double>(found) / static_cast<double>(total)
                   : 0.0;
}

std::vector<double> TimeSwaps(mb::serve::LinkingServer* server,
                              const std::vector<std::string>& dirs,
                              std::size_t n, RunReport* report) {
  std::vector<double> ms;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    const mb::util::Status s = server->SwapModel(dirs[i % dirs.size()]);
    const Clock::time_point t1 = Clock::now();
    Tracer::Get().Record("serve.swap", 0, 0, 0, t0, t1);
    if (s.ok()) {
      ms.push_back(MsBetween(t0, t1));
    } else {
      ++failed;
      report->CheckFailed("SwapModel: " + s.ToString());
    }
  }
  report->Ops("swap", n, failed);
  return ms;
}

void ReportBundleCosts(const std::string& dir, RunReport* report) {
  std::vector<double> load_ms, from_bundle_ms;
  for (int r = 0; r < 3; ++r) {
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("store.bundle_load");
      auto bundle = mb::store::LoadModelBundle(dir);
      report->Expect(bundle.ok(), "LoadModelBundle " + dir);
    }
    load_ms.push_back(MsBetween(t0, Clock::now()));
    t0 = Clock::now();
    {
      ScopedSpan span("serve.from_bundle");
      auto server = mb::serve::LinkingServer::FromBundle(dir);
      report->Expect(server.ok(), "FromBundle " + dir);
    }
    from_bundle_ms.push_back(MsBetween(t0, Clock::now()));
  }
  report->PerLayer("store.bundle_load_ms", Median(load_ms), "ms");
  report->PerLayer("serve.from_bundle_ms", Median(from_bundle_ms), "ms");
}

double TopOneAccuracy(const PhaseResult& phase,
                      const std::vector<mb::data::LinkingExample>& pool) {
  std::size_t answered = 0, correct = 0;
  std::vector<bool> seen(pool.size(), false);
  for (std::size_t i = 0; i < phase.answers.size(); ++i) {
    const std::size_t p = phase.sequence[i];
    if (phase.answers[i].empty() || seen[p]) continue;
    seen[p] = true;
    ++answered;
    if (phase.answers[i][0].id == pool[p].entity_id) ++correct;
  }
  return answered > 0 ? 100.0 * static_cast<double>(correct) /
                            static_cast<double>(answered)
                      : 0.0;
}

std::size_t CheckAnswers(const TrafficOutcome& traffic,
                         const std::vector<mb::data::LinkingExample>& pool,
                         const ReferenceLinker& linker,
                         const std::vector<ReferenceAnswer>& refs,
                         RunReport* report) {
  std::size_t mismatches = 0;
  for (const PhaseResult* phase : traffic.phases()) {
    for (std::size_t i = 0; i < phase->answers.size(); ++i) {
      if (phase->answers[i].empty()) continue;  // failed: in the ledger
      const std::size_t p = phase->sequence[i];
      const std::string diff =
          linker.Compare(pool[p], refs[p], phase->answers[i]);
      if (!diff.empty()) {
        if (mismatches == 0) {
          report->CheckFailed("pool request " + std::to_string(p) + ": " +
                              diff);
        }
        ++mismatches;
      }
    }
  }
  return mismatches;
}

std::vector<std::size_t> DistinctServed(
    const std::vector<const PhaseResult*>& phases) {
  std::vector<std::size_t> out;
  std::unordered_set<std::size_t> seen;
  for (const PhaseResult* phase : phases) {
    for (std::size_t p : phase->sequence) {
      if (seen.insert(p).second) out.push_back(p);
    }
  }
  return out;
}

}  // namespace perfbench
