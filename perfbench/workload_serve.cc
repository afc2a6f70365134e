// The serving workloads: serve_zipf (Create, exhaustive retrieval, full
// rerank, LRU under Zipf traffic, then hot swaps between two model versions
// under the same traffic) and serve_large (IVF-PQ probe and calibrated
// cascade over a large KB, uniform traffic).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "eval/evaluator.h"
#include "store/model_bundle.h"
#include "train/cascade_distiller.h"
#include "trace.h"
#include "workloads.h"
#include "worlds.h"

namespace perfbench {

namespace mb = metablink;

namespace {

/// serve_large's output checks (README.md): on a sample of the distinct
/// requests served, the probe finds at least kRecallFloor of the exhaustive
/// top 64, and the served top-1 accuracy is within kAccuracyTolerance
/// points of the reference linker's full rerank.
constexpr std::size_t kCheckSample = 512;
constexpr double kRecallFloor = 0.92;
constexpr double kAccuracyTolerance = 4.0;

/// The fixed make-up of each serving workload (see README.md).
struct ServePlan {
  ServeWorldSpec world;
  TrafficSpec traffic;
  bool large = false;  // IVF-PQ probe + cascade, served from a bundle
  bool swap = false;   // a second version, swapped in under load
  std::size_t nprobe = 0;
};

/// serve_zipf's publish phase: kSwaps SwapModel calls, one every
/// kSwapPeriod, alternating the second version and the first (so it ends
/// on the first).
constexpr std::size_t kSwaps = 6;
constexpr std::chrono::milliseconds kSwapPeriod{400};

ServePlan PlanFor(const std::string& name) {
  ServePlan plan;
  if (name == "serve_large") {
    plan.world = {.entities = 32768, .train = 2048, .heldout = 512,
                  .pool = 16384};
    plan.traffic.mix = mb::load::MixKind::kUniform;
    plan.traffic.open_qps = 250.0;
    plan.large = true;
    plan.nprobe = 64;
  } else {
    plan.world = {.entities = 4096, .train = 1024, .heldout = 512,
                  .pool = 4096};
    plan.traffic.mix = mb::load::MixKind::kScrambledZipfian;
    plan.traffic.open_qps = 250.0;
    plan.swap = true;
  }
  return plan;
}

/// Reference answers for the pool entries `indices` (others stay empty).
std::vector<ReferenceAnswer> ReferenceFor(
    const ReferenceLinker& linker,
    const std::vector<mb::data::LinkingExample>& pool,
    const std::vector<std::size_t>& indices, std::size_t threads) {
  std::vector<mb::data::LinkingExample> subset;
  subset.reserve(indices.size());
  for (std::size_t p : indices) subset.push_back(pool[p]);
  std::vector<ReferenceAnswer> answers = linker.AnswerAll(subset, threads);
  std::vector<ReferenceAnswer> out(pool.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    out[indices[i]] = std::move(answers[i]);
  }
  return out;
}

/// The publish phase's traffic and swap durations.
struct SwapPhase {
  PhaseResult traffic;
  std::vector<double> swap_ms;
  std::size_t failed = 0;
};

/// Runs the kSwaps swaps on a thread of their own while open-loop slices at
/// the workload's rate keep serving until the last swap returns.
SwapPhase RunSwapPhase(mb::serve::LinkingServer* server, const Client& client,
                       std::size_t pool_size, const TrafficSpec& spec,
                       const RunContext& ctx, const std::string& dir_a,
                       const std::string& dir_b) {
  SwapPhase out;
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    Clock::time_point next = Clock::now() + kSwapPeriod;
    for (std::size_t i = 0; i < kSwaps; ++i) {
      std::this_thread::sleep_until(next);
      next += kSwapPeriod;
      const Clock::time_point t0 = Clock::now();
      const mb::util::Status s = server->SwapModel(i % 2 == 0 ? dir_b : dir_a);
      const Clock::time_point t1 = Clock::now();
      Tracer::Get().Record("serve.swap", 0, 0, 0, t0, t1);
      if (s.ok()) {
        out.swap_ms.push_back(MsBetween(t0, t1));
      } else {
        ++out.failed;
      }
    }
    done.store(true);
  });
  constexpr double kSliceS = 0.2;
  const auto n = static_cast<std::size_t>(spec.open_qps * kSliceS);
  for (std::size_t r = 0; !done.load(); ++r) {
    const std::string round = std::to_string(r);
    const std::vector<std::size_t> requests = DrawRequests(
        spec.mix, pool_size, n, SubSeed(ctx.seed, ("swap-" + round).c_str()));
    Append(RunOpenLoop(client, requests, spec.open_qps,
                       SubSeed(ctx.seed, ("swap-arrivals-" + round).c_str()),
                       ctx.nproc),
           &out.traffic);
  }
  swapper.join();
  return out;
}

/// Answers served while the versions swapped must each be exactly one
/// version's reference answer. Returns the number that are not.
std::size_t CheckTwoVersions(const PhaseResult& phase,
                             const std::vector<mb::data::LinkingExample>& pool,
                             const ReferenceLinker& ref_a,
                             const std::vector<ReferenceAnswer>& refs_a,
                             const ReferenceLinker& ref_b,
                             const std::vector<ReferenceAnswer>& refs_b,
                             RunReport* report) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < phase.answers.size(); ++i) {
    const Answer& answer = phase.answers[i];
    if (answer.empty()) continue;
    const std::size_t p = phase.sequence[i];
    const bool a = ref_a.Compare(pool[p], refs_a[p], answer).empty();
    const bool b = ref_b.Compare(pool[p], refs_b[p], answer).empty();
    if (a == b) {
      if (bad == 0) {
        report->CheckFailed("pool request " + std::to_string(p) +
                            " matches " + (a ? "both" : "neither") +
                            " model version");
      }
      ++bad;
    }
  }
  return bad;
}

}  // namespace

void RunServe(const std::string& name, const RunContext& ctx,
              RunReport* report) {
  const ServePlan plan = PlanFor(name);
  auto made = MakeServeWorld(plan.world, ctx.world_seed);
  report->Ops("world", 1, made.ok() ? 0 : 1);
  if (!made.ok()) {
    report->CheckFailed("MakeServeWorld: " + made.status().ToString());
    return;
  }
  const ServeWorld world = std::move(made).value();
  const mb::kb::KnowledgeBase& kb = world.corpus.kb;
  Progress("world made");

  // ---- Offline half: fit the served model (and, for serve_large, its
  // cascade); serve_zipf fits a second version from another init.
  const Clock::time_point fit0 = Clock::now();
  auto fitted = FitSupervised(kb, world.domain, world.train, {});
  mb::model::CascadeModel cascade;
  mb::util::Status fit_status = fitted.ok() ? mb::util::Status::OK()
                                            : fitted.status();
  if (fit_status.ok() && plan.large) {
    const std::size_t n_calibration =
        std::min<std::size_t>(256, world.heldout.size());
    const std::vector<mb::data::LinkingExample> calibration(
        world.heldout.begin(), world.heldout.begin() + n_calibration);
    auto calibrated = mb::train::CalibrateCascade(
        *fitted->bi, *fitted->cross, kb, world.domain, calibration);
    if (calibrated.ok()) {
      cascade = std::move(calibrated).value();
    } else {
      fit_status = calibrated.status();
    }
  }
  const double fit_s = SecondsSince(fit0);
  report->Ops("fit", 1, fit_status.ok() ? 0 : 1);
  if (!fit_status.ok()) {
    report->CheckFailed("fit: " + fit_status.ToString());
    return;
  }
  const mb::model::BiEncoder& bi = *fitted->bi;
  const mb::model::CrossEncoder& cross = *fitted->cross;
  Progress("fitted");
  {
    const mb::eval::TwoStageEvaluator evaluator;
    auto eval = evaluator.Evaluate(bi, &cross, kb, world.domain, world.heldout);
    report->Ops("evaluate", 1, eval.ok() ? 0 : 1);
    if (!eval.ok()) {
      report->CheckFailed("Evaluate: " + eval.status().ToString());
      return;
    }
    report->EndToEnd("fit_uacc", 100.0 * eval->unnormalized_acc, "%");
  }
  Progress("evaluated");
  // serve_zipf fits its second version with the same work from another
  // init; fit_s is then the median (the mean) of the two fit times.
  EncoderPair second;
  std::vector<double> fits_s = {fit_s};
  if (plan.swap) {
    SupervisedFitSpec spec;
    spec.init_seed = 2;
    const Clock::time_point t0 = Clock::now();
    auto b = FitSupervised(kb, world.domain, world.train, spec);
    fits_s.push_back(SecondsSince(t0));
    report->Ops("fit", 1, b.ok() ? 0 : 1);
    if (!b.ok()) {
      report->CheckFailed("second version: " + b.status().ToString());
      return;
    }
    second = std::move(b).value();
    Progress("second version fitted");
  }
  report->EndToEnd("fit_s", Median(fits_s), "s");

  // ---- Package the model(s).
  mb::retrieval::ClusteredIndexOptions clustered_options;
  clustered_options.use_pq = plan.large;
  ServingLayers layers;
  ServingLayers layers_b;
  layers.nprobe = plan.nprobe;
  const std::string dir_a = ctx.workdir + "/" + name + "-a";
  const std::string dir_b = ctx.workdir + "/" + name + "-b";
  {
    mb::util::Status s = BuildServingLayers(bi, cross, kb, world.domain,
                                            clustered_options, &layers);
    std::vector<double> save_ms;
    for (int r = 0; r < (ctx.traced ? 3 : 1) && s.ok(); ++r) {
      const Clock::time_point t0 = Clock::now();
      s = SaveBundle(1, world.domain, bi, cross, kb, layers, plan.large,
                     plan.large ? &cascade : nullptr, dir_a);
      save_ms.push_back(MsBetween(t0, Clock::now()));
    }
    std::size_t saves = save_ms.size();
    if (s.ok() && plan.swap) {
      s = BuildServingLayers(*second.bi, *second.cross, kb, world.domain,
                             clustered_options, &layers_b);
      if (s.ok()) {
        s = SaveBundle(2, world.domain, *second.bi, *second.cross, kb,
                       layers_b, false, nullptr, dir_b);
      }
      ++saves;
    }
    report->Ops("bundle_save", saves, s.ok() ? 0 : 1);
    if (!s.ok()) {
      report->CheckFailed("bundle: " + s.ToString());
      return;
    }
    if (ctx.traced) {
      report->PerLayer("store.bundle_save_ms", Median(save_ms), "ms");
    }
  }
  Progress("bundles saved");

  // ---- Set-up: bring the server up kSetups times (median); keep the last.
  mb::serve::ServerOptions options;
  if (plan.large) {
    options.use_pq = true;
    options.use_cascade = true;
    options.nprobe = plan.nprobe;
  }
  std::unique_ptr<mb::serve::LinkingServer> server;
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSetups; ++r) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    auto created =
        plan.large
            ? mb::serve::LinkingServer::FromBundle(dir_a, options)
            : mb::serve::LinkingServer::Create(&bi, &cross, &kb, world.domain,
                                               options);
    setup_s.push_back(SecondsSince(t0));
    report->Ops("setup", 1, created.ok() ? 0 : 1);
    if (!created.ok()) {
      report->CheckFailed("server: " + created.status().ToString());
      return;
    }
    server = std::move(created).value();
  }
  report->EndToEnd("setup_s", Median(setup_s), "s");
  Progress("set up");

  // ---- Traffic, then (serve_zipf) the swaps under load.
  const Client client(server.get(), &world.pool, kTopK);
  const TrafficOutcome traffic =
      DriveTraffic(client, world.pool.size(), server.get(), plan.traffic, ctx,
                   report);
  ReportTraffic(traffic, ctx, report);
  report->EndToEnd("link_uacc", TopOneAccuracy(traffic.open, world.pool), "%");
  Progress("traffic served");
  SwapPhase swaps;
  if (plan.swap) {
    swaps = RunSwapPhase(server.get(), client, world.pool.size(),
                         plan.traffic, ctx, dir_a, dir_b);
    report->Ops("swap_traffic", swaps.traffic.attempted,
                swaps.traffic.failed);
    if (ctx.traced) {
      report->PerLayer("load.swap_p50_ms",
                       Quantile(swaps.traffic.latency_ms, 0.50), "ms");
    }
    Progress("swapped under load");
  }

  // ---- Checks against the reference linker.
  const std::size_t threads = ctx.nproc;
  const ReferenceLinker ref_a(&bi, &cross, &kb, world.domain, kTopK);
  const std::size_t answers = traffic.answered();
  if (plan.large) {
    const mb::serve::ServerStats& st = traffic.after;
    report->Expect(st.rerank_exited + st.rerank_distilled + st.rerank_full ==
                       st.requests,
                   "cascade tier counters do not sum to requests");
    // A sample of the distinct requests served: probe recall, and the
    // served top-1 accuracy against the reference's full rerank.
    std::vector<std::size_t> sample = DistinctServed({&traffic.open});
    sample.resize(std::min<std::size_t>(sample.size(), kCheckSample));
    std::vector<mb::data::LinkingExample> sample_ex;
    for (std::size_t p : sample) sample_ex.push_back(world.pool[p]);
    const double recall = ProbeRecall(bi, layers, sample_ex, kTopK);
    report->Expect(recall >= kRecallFloor,
                   "probe recall@64 " + std::to_string(recall) +
                       " is below the floor");
    const std::vector<ReferenceAnswer> refs =
        ref_a.AnswerAll(sample_ex, threads);
    std::vector<int> served_top1(world.pool.size(), -1);
    for (std::size_t i = 0; i < traffic.open.answers.size(); ++i) {
      const auto& a = traffic.open.answers[i];
      const std::size_t p = traffic.open.sequence[i];
      if (!a.empty() && served_top1[p] < 0) {
        served_top1[p] = a[0].id == world.pool[p].entity_id ? 1 : 0;
      }
    }
    std::size_t served_ok = 0, ref_ok = 0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      served_ok += served_top1[sample[i]] == 1 ? 1 : 0;
      ref_ok += refs[i].ranked[0].id == sample_ex[i].entity_id ? 1 : 0;
    }
    const double n =
        static_cast<double>(std::max<std::size_t>(1, sample.size()));
    const double served_acc = 100.0 * static_cast<double>(served_ok) / n;
    const double ref_acc = 100.0 * static_cast<double>(ref_ok) / n;
    std::printf("serve_large sample %zu: recall@64 %.4f top-1 served %.2f%% "
                "reference %.2f%%  tiers exited=%llu distilled=%llu "
                "full=%llu\n",
                sample.size(), recall, served_acc, ref_acc,
                static_cast<unsigned long long>(st.rerank_exited),
                static_cast<unsigned long long>(st.rerank_distilled),
                static_cast<unsigned long long>(st.rerank_full));
    report->Expect(std::abs(served_acc - ref_acc) <= kAccuracyTolerance,
                   "served top-1 accuracy is further from the reference's "
                   "full rerank than the tolerance");
    report->Ops("answer_check", sample.size(), 0);
  } else {
    // Before the swaps every answer is the first version's; while they run,
    // exactly one version's.
    std::vector<const PhaseResult*> served = traffic.phases();
    served.push_back(&swaps.traffic);
    const std::vector<std::size_t> distinct = DistinctServed(served);
    const std::vector<ReferenceAnswer> refs_a =
        ReferenceFor(ref_a, world.pool, distinct, threads);
    std::size_t bad = CheckAnswers(traffic, world.pool, ref_a, refs_a, report);
    if (plan.swap) {
      const std::vector<std::size_t> swapped =
          DistinctServed({&swaps.traffic});
      const ReferenceLinker ref_b(second.bi.get(), second.cross.get(), &kb,
                                  world.domain, kTopK);
      const std::vector<ReferenceAnswer> refs_b =
          ReferenceFor(ref_b, world.pool, swapped, threads);
      bad += CheckTwoVersions(swaps.traffic, world.pool, ref_a, refs_a, ref_b,
                              refs_b, report);
    }
    const std::size_t checked = answers + swaps.traffic.attempted;
    std::printf("%s: %zu answers over %zu distinct requests checked, %zu "
                "differ\n",
                name.c_str(), checked, distinct.size(), bad);
    report->Ops("answer_check", checked, 0);
    report->Expect(bad == 0, std::to_string(bad) +
                                 " answers differ from the reference");
  }
  Progress("answers checked");

  // ---- Publish cost: the swaps under load (serve_zipf) or after it.
  std::vector<double> swap_ms = swaps.swap_ms;
  if (plan.swap) {
    report->Ops("swap", kSwaps, swaps.failed);
    report->Expect(swaps.failed == 0, "a swap under load failed");
  } else {
    swap_ms = TimeSwaps(server.get(), {dir_a}, 3, report);
  }
  report->Expect(server->Stats().swaps == swap_ms.size(),
                 "not every swap published");
  report->EndToEnd("swap_publish_ms", Median(swap_ms), "ms");
  report->Expect(LedgerBalances(server->Stats()),
                 "admission ledger does not balance");

  Progress("swaps timed");
  if (ctx.traced) {
    ReportTraceOverhead(client, plan.traffic, traffic, ctx, report);
    ReportBundleCosts(dir_a, report);
    std::vector<mb::data::LinkingExample> replay;
    for (std::size_t p : DistinctServed({&traffic.open})) {
      if (replay.size() >= 2048) break;
      replay.push_back(world.pool[p]);
    }
    ReplayLayers(bi, cross, layers, replay, report);
  }
}

}  // namespace perfbench
