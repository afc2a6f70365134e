// The `fit` workload: the offline half. FewShotLinker::Fit (Algorithm 2)
// on the quickstart-shaped world, held-out evaluation checked against the
// reference linker and against BLINK trained on the seeds alone, then the
// fitted linker served and hot-swapped with the baseline.

#include <cstdio>
#include <memory>

#include "core/few_shot_linker.h"
#include "core/pipeline.h"
#include "eval/evaluator.h"
#include "train/bi_trainer.h"
#include "train/cross_trainer.h"
#include "train/meta_trainer.h"
#include "trace.h"
#include "workloads.h"
#include "worlds.h"

namespace perfbench {

namespace mb = metablink;

namespace {

/// Parameter checksums of a fitted pipeline's two encoders.
struct Checksums {
  std::uint32_t bi = 0;
  std::uint32_t cross = 0;
  bool operator==(const Checksums& o) const {
    return bi == o.bi && cross == o.cross;
  }
};

Checksums ChecksumsOf(const mb::core::MetaBlinkPipeline& p) {
  return {p.bi_encoder()->params()->ValuesCrc32(),
          p.cross_encoder()->params()->ValuesCrc32()};
}

double SelectedRatio(const mb::train::MetaTrainResult& result) {
  std::size_t seen = 0, selected = 0;
  for (const auto& [source, stats] : result.selection) {
    if (source == mb::data::ExampleSource::kGold) continue;
    seen += stats.seen;
    selected += stats.selected;
  }
  return seen > 0 ? static_cast<double>(selected) / static_cast<double>(seen)
                  : 0.0;
}

/// Candidates for cross-encoder training, mined per domain with the
/// current bi-encoder, as MetaBlinkPipeline::TrainMeta mines them.
mb::util::Result<std::vector<mb::train::CrossInstance>> Mine(
    const mb::eval::TwoStageEvaluator& evaluator,
    const mb::model::BiEncoder& bi, const mb::kb::KnowledgeBase& kb,
    const std::vector<mb::data::LinkingExample>& examples,
    std::size_t max_candidates) {
  std::vector<std::string> domains;
  for (const auto& ex : examples) {
    if (std::find(domains.begin(), domains.end(), ex.domain) ==
        domains.end()) {
      domains.push_back(ex.domain);
    }
  }
  std::vector<mb::train::CrossInstance> out;
  for (const std::string& domain : domains) {
    std::vector<mb::data::LinkingExample> group;
    for (const auto& ex : examples) {
      if (ex.domain == domain) group.push_back(ex);
    }
    auto lists = evaluator.RetrieveCandidates(bi, kb, domain, group);
    if (!lists.ok()) return lists.status();
    for (auto& inst :
         mb::train::MineCrossTrainingSet(group, *lists, max_candidates)) {
      out.push_back(std::move(inst));
    }
  }
  return out;
}

/// Algorithm 2 through the public trainers, one span per stage, on a fresh
/// pipeline built from the same config as the untraced Fit. Ends with the
/// same encoder weights as FewShotLinker::Fit (checked by the caller), so
/// the per-stage times describe the work fit_s timed.
struct TracedFit {
  Checksums checksums;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t synthetic = 0;
  mb::train::MetaTrainResult meta_bi;
  mb::train::MetaTrainResult meta_cross;
};

mb::util::Result<TracedFit> RunTracedFit(
    const FitWorld& world, const mb::core::PipelineConfig& config) {
  TracedFit out;
  const mb::kb::KnowledgeBase& kb = world.corpus.kb;
  const auto& seeds = world.split.train;
  mb::core::MetaBlinkPipeline pipeline(config);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  ScopedSpan fit_span("core.fit");
  {
    ScopedSpan span("gen.rewriter_fit", fit_span.id());
    METABLINK_RETURN_IF_ERROR(
        pipeline.TrainRewriter(world.corpus, world.sources));
  }
  std::vector<mb::data::LinkingExample> synthetic;
  {
    ScopedSpan span("gen.synthesize", fit_span.id());
    auto built = pipeline.BuildSyntheticData(world.corpus, world.target,
                                             /*adapt_to_domain=*/true);
    if (!built.ok()) return built.status();
    synthetic = std::move(built).value();
  }
  out.synthetic = synthetic.size();
  mb::model::BiEncoder* bi = pipeline.bi_encoder();
  mb::model::CrossEncoder* cross = pipeline.cross_encoder();
  if (config.meta_warmup_epochs > 0) {
    ScopedSpan span("train.warmup", fit_span.id());
    mb::train::TrainOptions warm = config.bi_train;
    warm.epochs = config.meta_warmup_epochs;
    auto r = mb::train::BiEncoderTrainer(warm).Train(bi, kb, seeds);
    if (!r.ok()) return r.status();
  }
  {
    ScopedSpan span("train.meta_bi", fit_span.id());
    mb::train::MetaReweightTrainer meta(
        config.meta_bi, bi->params(),
        [bi, &kb](mb::tensor::Graph* graph,
                  const std::vector<mb::data::LinkingExample>& batch) {
          return bi->InBatchLoss(graph, batch, kb);
        });
    auto r = meta.Train(synthetic, seeds);
    if (!r.ok()) return r.status();
    out.meta_bi = *r;
  }
  std::vector<mb::train::CrossInstance> syn_instances, seed_instances;
  {
    ScopedSpan span("eval.mine", fit_span.id());
    const mb::eval::TwoStageEvaluator evaluator(config.eval);
    auto a = Mine(evaluator, *bi, kb, synthetic, config.cross_train_candidates);
    if (!a.ok()) return a.status();
    auto b = Mine(evaluator, *bi, kb, seeds, config.cross_train_candidates);
    if (!b.ok()) return b.status();
    syn_instances = std::move(a).value();
    seed_instances = std::move(b).value();
  }
  if (syn_instances.size() >= 2 && !seed_instances.empty()) {
    ScopedSpan span("train.meta_cross", fit_span.id());
    mb::train::CrossMetaTrainer meta(
        config.meta_cross, cross->params(),
        [cross, &kb](mb::tensor::Graph* graph,
                     const std::vector<mb::train::CrossInstance>& batch) {
          std::vector<mb::tensor::Var> losses;
          losses.reserve(batch.size());
          for (const auto& inst : batch) {
            std::vector<mb::kb::Entity> entities;
            entities.reserve(inst.candidates.size());
            for (mb::kb::EntityId id : inst.candidates) {
              entities.push_back(kb.entity(id));
            }
            losses.push_back(cross->RankingLoss(graph, inst.example, entities,
                                                inst.gold_index));
          }
          return graph->ConcatRows(losses);
        });
    auto r = meta.Train(syn_instances, seed_instances);
    if (!r.ok()) return r.status();
    out.meta_cross = *r;
  }
  fit_span.Close();
  out.wall_s = SecondsSince(t0);
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.checksums = ChecksumsOf(pipeline);
  return out;
}

/// Index, rerank cache and clustered probe over the target domain for one
/// fitted pipeline.
mb::util::Status LayersFor(const mb::core::MetaBlinkPipeline& p,
                           const FitWorld& world, ServingLayers* out) {
  return BuildServingLayers(*p.bi_encoder(), *p.cross_encoder(),
                            world.corpus.kb, world.target, {}, out);
}

/// Open-loop rate of FewShotLinker::Link calls, well below the rate four
/// callers complete on the reference box.
constexpr double kLinkerOpenQps = 50.0;

/// The library's default config with the meta loops shortened: 175 bi and
/// 75 cross meta steps (defaults 350 and 150) keep one fit near 15 s on a
/// 4-core box, so a run fits the benchmark's time budget. Every other knob,
/// MetaGrad included, is the default a user gets.
mb::core::PipelineConfig FitConfig() {
  mb::core::PipelineConfig config;
  config.meta_bi.steps = 175;
  config.meta_cross.steps = 75;
  return config;
}

}  // namespace

void RunFit(const RunContext& ctx, RunReport* report) {
  const mb::core::PipelineConfig config = FitConfig();

  // ---- Set-up: the world and a fresh linker, kSetups times (median).
  std::vector<double> setup_s;
  std::unique_ptr<FitWorld> world;
  std::unique_ptr<mb::core::FewShotLinker> linker;
  for (std::size_t r = 0; r < kSetups; ++r) {
    const Clock::time_point t0 = Clock::now();
    auto made = MakeFitWorld(ctx.world_seed, ctx.seed);
    if (!made.ok()) {
      report->Ops("setup", 1, 1);
      report->CheckFailed("MakeFitWorld: " + made.status().ToString());
      return;
    }
    world = std::make_unique<FitWorld>(std::move(made).value());
    linker = std::make_unique<mb::core::FewShotLinker>(config);
    setup_s.push_back(SecondsSince(t0));
  }
  report->Ops("setup", kSetups, 0);
  report->EndToEnd("setup_s", Median(setup_s), "s");
  const mb::kb::KnowledgeBase& kb = world->corpus.kb;
  const auto& seeds = world->split.train;
  const auto& test = world->split.test;
  Progress("set up");

  // ---- The fit, untraced.
  const Clock::time_point fit0 = Clock::now();
  const mb::util::Status fit_status =
      linker->Fit(world->corpus, world->sources, world->target, seeds);
  const double fit_s = SecondsSince(fit0);
  report->Ops("fit", 1, fit_status.ok() ? 0 : 1);
  if (!fit_status.ok()) {
    report->CheckFailed("Fit: " + fit_status.ToString());
    return;
  }
  report->EndToEnd("fit_s", fit_s, "s");
  const mb::core::MetaBlinkPipeline& fitted = *linker->pipeline();
  const Checksums fit_sums = ChecksumsOf(fitted);
  std::printf("fit %.3fs synthetic=%zu seeds=%zu crc bi=%08x cross=%08x\n",
              fit_s, linker->num_synthetic(), linker->num_seeds(), fit_sums.bi,
              fit_sums.cross);
  Progress("fitted");

  // ---- Held-out evaluation, checked against the reference linker.
  auto eval = linker->Evaluate(test);
  report->Ops("evaluate", 1, eval.ok() ? 0 : 1);
  if (!eval.ok()) {
    report->CheckFailed("Evaluate: " + eval.status().ToString());
    return;
  }
  report->EndToEnd("fit_uacc", 100.0 * eval->unnormalized_acc, "%");
  const ReferenceLinker ref(fitted.bi_encoder(), fitted.cross_encoder(), &kb,
                            world->target, config.eval.k);
  const std::vector<ReferenceAnswer> refs = ref.AnswerAll(test, ctx.nproc);
  {
    std::size_t in = 0, top1 = 0, near_tie = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      // A gold entity at the k-th score may fall either side of a float
      // scan's cut.
      const double gold = ref.RetrievalScore(test[i], test[i].entity_id);
      if (std::abs(gold - refs[i].kth_score) <= ReferenceLinker::kTieEpsilon) {
        ++near_tie;
      }
      if (!refs[i].gold_retrieved) continue;
      ++in;
      if (refs[i].ranked[0].id == test[i].entity_id) ++top1;
    }
    const auto diff = [](std::size_t a, std::size_t b) {
      return a > b ? a - b : b - a;
    };
    std::printf("evaluate R@64 %zu/%zu N.Acc %zu/%zu; reference %zu, %zu\n",
                eval->num_in_candidates, eval->num_examples, eval->num_top1,
                eval->num_in_candidates, in, top1);
    report->Expect(diff(eval->num_in_candidates, in) <= near_tie,
                   "Evaluate R@64 disagrees with the reference linker");
    report->Expect(diff(eval->num_top1, top1) <= near_tie,
                   "Evaluate N.Acc disagrees with the reference linker");
  }
  Progress("evaluated");

  // ---- BLINK on the seeds alone: the Table V ordering.
  mb::core::MetaBlinkPipeline blink(config);
  const mb::util::Status blink_status = blink.TrainSupervised(kb, seeds);
  auto blink_eval = blink_status.ok()
                        ? blink.Evaluate(kb, world->target, test)
                        : mb::util::Result<mb::eval::EvalResult>(blink_status);
  report->Ops("baseline", 1, blink_eval.ok() ? 0 : 1);
  if (blink_eval.ok()) {
    std::printf("U.Acc MetaBLINK %.2f%%  BLINK(seeds) %.2f%%\n",
                100.0 * eval->unnormalized_acc,
                100.0 * blink_eval->unnormalized_acc);
    report->Expect(eval->unnormalized_acc > blink_eval->unnormalized_acc,
                   "MetaBLINK U.Acc does not beat BLINK on the seeds alone");
  } else {
    report->CheckFailed("BLINK baseline: " + blink_eval.status().ToString());
  }
  Progress("baseline fitted");

  // ---- Package both models as bundles (the fitted one is version 1).
  ServingLayers meta_layers, blink_layers;
  const std::string dir_a = ctx.workdir + "/fit-metablink";
  const std::string dir_b = ctx.workdir + "/fit-blink";
  {
    mb::util::Status s = LayersFor(fitted, *world, &meta_layers);
    if (s.ok()) s = LayersFor(blink, *world, &blink_layers);
    std::vector<double> save_ms;
    for (int r = 0; r < (ctx.traced ? 3 : 1) && s.ok(); ++r) {
      const Clock::time_point t0 = Clock::now();
      s = SaveBundle(1, world->target, *fitted.bi_encoder(),
                     *fitted.cross_encoder(), kb, meta_layers, false, nullptr,
                     dir_a);
      save_ms.push_back(MsBetween(t0, Clock::now()));
    }
    if (s.ok()) {
      s = SaveBundle(2, world->target, *blink.bi_encoder(),
                     *blink.cross_encoder(), kb, blink_layers, false, nullptr,
                     dir_b);
    }
    report->Ops("bundle_save", save_ms.size() + 1, s.ok() ? 0 : 1);
    if (!s.ok()) {
      report->CheckFailed("bundle: " + s.ToString());
      return;
    }
    if (ctx.traced) {
      report->PerLayer("store.bundle_save_ms", Median(save_ms), "ms");
    }
  }
  Progress("bundles saved");

  // ---- Link through the fitted linker itself (FewShotLinker::Link, the
  // API a user of Fit calls; the serve_* workloads cover LinkingServer).
  // Every answer must be the reference's.
  TrafficSpec spec;
  spec.mix = mb::load::MixKind::kUniform;
  spec.open_qps = kLinkerOpenQps;
  const Client client(linker.get(), &test, kTopK);
  const TrafficOutcome traffic =
      DriveTraffic(client, test.size(), nullptr, spec, ctx, report);
  ReportTraffic(traffic, ctx, report);
  report->EndToEnd("link_uacc", TopOneAccuracy(traffic.open, test), "%");
  const std::size_t bad = CheckAnswers(traffic, test, ref, refs, report);
  report->Ops("answer_check", traffic.answered(), 0);
  report->Expect(bad == 0, std::to_string(bad) + " answers differ from the "
                                                 "reference");
  Progress("traffic served and checked");

  // ---- Hot swap between the two bundles on a server over the fitted
  // linker.
  auto server = mb::serve::LinkingServer::FromLinker(*linker);
  if (!server.ok()) {
    report->Ops("serve", 1, 1);
    report->CheckFailed("FromLinker: " + server.status().ToString());
    return;
  }
  constexpr std::size_t kSwaps = 5;
  const std::vector<double> swap_ms =
      TimeSwaps(server->get(), {dir_b, dir_a}, kSwaps, report);
  report->EndToEnd("swap_publish_ms", Median(swap_ms), "ms");
  const mb::serve::ServerStats stats = (*server)->Stats();
  report->Expect(stats.swaps == kSwaps, "not every swap published");
  report->Expect(LedgerBalances(stats), "admission ledger does not balance");

  Progress("swaps timed");
  if (ctx.traced) {
    Tracer::Get().set_enabled(true);
    ReportBundleCosts(dir_a, report);
    ReplayLayers(*fitted.bi_encoder(), *fitted.cross_encoder(), meta_layers,
                 test, report);
    auto traced = RunTracedFit(*world, config);
    report->Ops("traced_fit", 1, traced.ok() ? 0 : 1);
    if (!traced.ok()) {
      report->CheckFailed("traced fit: " + traced.status().ToString());
    } else {
      report->Expect(traced->checksums == fit_sums,
                     "traced fit weights differ from the untraced Fit");
      Tracer& tr = Tracer::Get();
      const double bi_steps = static_cast<double>(traced->meta_bi.steps);
      const double cross_steps = static_cast<double>(traced->meta_cross.steps);
      report->PerLayer("gen.rewriter_fit_s",
                       tr.TotalSeconds("gen.rewriter_fit"), "s");
      report->PerLayer("gen.synthesize_s", tr.TotalSeconds("gen.synthesize"),
                       "s");
      report->PerLayer("gen.synthetic_pairs",
                       static_cast<double>(traced->synthetic), "count");
      report->PerLayer("train.warmup_s", tr.TotalSeconds("train.warmup"), "s");
      report->PerLayer("eval.mine_s", tr.TotalSeconds("eval.mine"), "s");
      const double bi_s = tr.TotalSeconds("train.meta_bi");
      const double cross_s = tr.TotalSeconds("train.meta_cross");
      report->PerLayer("train.meta_bi_s", bi_s, "s");
      report->PerLayer("train.meta_bi_step_ms",
                       bi_steps > 0 ? 1e3 * bi_s / bi_steps : 0.0, "ms");
      report->PerLayer("train.meta_cross_s", cross_s, "s");
      report->PerLayer("train.meta_cross_step_ms",
                       cross_steps > 0 ? 1e3 * cross_s / cross_steps : 0.0,
                       "ms");
      report->PerLayer("train.meta_bi_selected_ratio",
                       SelectedRatio(traced->meta_bi), "ratio");
      report->PerLayer("train.meta_cross_selected_ratio",
                       SelectedRatio(traced->meta_cross), "ratio");
      report->PerLayer("train.cpu_per_wall", traced->cpu_s / traced->wall_s,
                       "ratio");
      report->PerLayer("core.fit_self_s", tr.SelfSeconds("core.fit"), "s");
      report->PerLayer("trace.overhead_pct",
                       100.0 * (traced->wall_s - fit_s) / fit_s, "%");
    }
  }
}

}  // namespace perfbench
