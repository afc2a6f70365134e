// Serving benchmark: times end-to-end Link (encode -> retrieve -> rerank)
// under several serving strategies over the same request stream and writes
// BENCH_serving.json (argv override; --smoke shrinks every dimension for
// the CI smoke stage; --cascade-smoke runs only the cascade gates).
//
//   tape_single:     one request at a time through the autodiff-tape
//                    forward paths (Graph-building EmbedMentions + Score),
//                    against a prebuilt domain index. This is the serving
//                    cost of the training code paths.
//   tapefree_single: one request at a time through the tape-free kernels
//                    (EncodeMentionsInference + ScoreInference).
//   server_batched:  LinkingServer micro-batching scheduler, 8 concurrent
//                    client threads.
//   server_cascade:  the batched server with the calibrated three-tier
//                    rerank cascade (early exit / distilled / partial full
//                    rerank), reported with per-tier counts and the
//                    exact-match accuracy delta vs full rerank.
//
// Also verifies the serving-path contracts the speedup is not allowed to
// buy with accuracy: tape vs tape-free scores match to 1e-6 and the int8
// scan (DenseIndex::TopKQuantizedInto, the substrate of the clustered list
// scan) reproduces the exact fp32 top-64 at a full candidate pool.
//
// Unlike earlier revisions, the encoders are briefly TRAINED first (bi on
// in-batch negatives, cross on mined candidate lists). Serving cost still
// depends only on shapes, but the cascade's margin gate and the
// accuracy-delta acceptance are only meaningful when retrieval and rerank
// are correlated, which random weights do not provide.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "experiment_common.h"
#include "load/workload.h"
#include "model/bi_encoder.h"
#include "model/cascade.h"
#include "model/cross_encoder.h"
#include "retrieval/dense_index.h"
#include "serve/linking_server.h"
#include "train/bi_trainer.h"
#include "train/cascade_distiller.h"
#include "train/cross_trainer.h"
#include "util/rng.h"

using namespace metablink;

namespace {

double g_sink = 0.0;

using Clock = std::chrono::steady_clock;
using bench::MsSince;
using bench::Percentile;

struct ModeResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
};

ModeResult Summarize(const std::vector<double>& latencies, double wall_ms) {
  ModeResult r;
  r.p50_ms = Percentile(latencies, 0.50);
  r.p99_ms = Percentile(latencies, 0.99);
  r.qps = wall_ms > 0.0 ? 1000.0 * latencies.size() / wall_ms : 0.0;
  return r;
}

struct BenchScale {
  std::size_t num_entities = 4000;
  std::size_t distinct_requests = 256;
  std::size_t total_requests = 2000;
  std::size_t retrieve_k = 64;
  std::size_t client_threads = 8;
  /// At full scale the encoders train until margins are meaningful — the
  /// cascade's whole premise is that margin predicts correctness, and a
  /// half-trained bi-encoder's margins are noise. The smoke scales train
  /// less so calibration keeps all three tiers populated (fully trained
  /// encoders on the tiny world exit everything, leaving the distilled
  /// tier unexercised).
  std::size_t train_epochs = 4;
};

/// Bounded candidate pool at which the int8 scan's overlap with the exact
/// fp32 top-64 is reported (exactness at the full pool is the parity gate).
constexpr std::size_t kInt8BoundedPool = 256;

/// One fully-served request stream: per-request latencies plus the
/// exact-match count against each request's gold entity.
struct StreamResult {
  ModeResult mode;
  serve::ServerStats stats;
  std::size_t correct = 0;
  /// Top-1 (entity id, score) per request, in stream order; used by the
  /// byte-identity gates.
  std::vector<kb::EntityId> top1_id;
  std::vector<float> top1_score;
};

/// Drives `total` requests from `requests` through `server` with
/// `threads` concurrent clients (thread t owns the contiguous slice
/// [t*per, (t+1)*per), so top1 vectors are comparable across runs).
StreamResult DriveServer(serve::LinkingServer* server,
                         const std::vector<data::LinkingExample>& requests,
                         std::size_t threads) {
  StreamResult out;
  const std::size_t per_thread = requests.size() / threads;
  const std::size_t total = per_thread * threads;
  out.top1_id.assign(total, kb::kInvalidEntityId);
  out.top1_score.assign(total, 0.0f);
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> correct{0};
  std::vector<std::vector<double>> lat(threads);
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      lat[t].reserve(per_thread);
      for (std::size_t r = 0; r < per_thread; ++r) {
        const std::size_t idx = t * per_thread + r;
        const auto& ex = requests[idx];
        const auto q0 = Clock::now();
        auto got = server->Link(ex.mention, ex.left_context, ex.right_context,
                                5);
        if (!got.ok() || got->empty()) {
          failures.fetch_add(1);
          continue;
        }
        out.top1_id[idx] = (*got)[0].entity_id;
        out.top1_score[idx] = (*got)[0].score;
        if ((*got)[0].entity_id == ex.entity_id) correct.fetch_add(1);
        g_sink += (*got)[0].score;
        lat[t].push_back(MsSince(q0));
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall_ms = MsSince(t0);
  if (failures.load() != 0) {
    std::fprintf(stderr, "%zu server requests failed\n", failures.load());
    std::exit(1);
  }
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  out.mode = Summarize(all, wall_ms);
  out.stats = server->Stats();
  out.correct = correct.load();
  return out;
}

bool SameTop1(const StreamResult& a, const StreamResult& b) {
  return a.top1_id == b.top1_id &&
         std::memcmp(a.top1_score.data(), b.top1_score.data(),
                     a.top1_score.size() * sizeof(float)) == 0;
}

bool TiersSum(const serve::ServerStats& s) {
  return s.rerank_exited + s.rerank_distilled + s.rerank_full == s.requests;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool cascade_smoke = false;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--cascade-smoke") == 0) {
      cascade_smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  BenchScale scale;
  if (smoke || cascade_smoke) {
    scale.num_entities = 250;
    scale.distinct_requests = 24;
    scale.total_requests = 96;
    scale.retrieve_k = 16;
    scale.train_epochs = 2;
  }

  // ---- World: one domain, its examples as the request pool. ----------------
  data::GeneratorOptions gopts;
  gopts.seed = 404;
  gopts.shared_vocab_size = 600;
  gopts.domain_vocab_size = 300;
  data::ZeshelLikeGenerator gen(gopts);
  std::vector<data::DomainSpec> specs(1);
  specs[0].name = "serving";
  specs[0].num_entities = scale.num_entities;
  specs[0].num_examples = std::max<std::size_t>(scale.distinct_requests, 64);
  specs[0].num_documents = 32;
  data::Corpus corpus = std::move(*gen.Generate(specs));
  const kb::KnowledgeBase& kb = corpus.kb;
  const auto& pool_examples = corpus.ExamplesIn("serving");

  model::BiEncoderConfig bi_cfg;
  bi_cfg.features.hasher.num_buckets = 16384;
  bi_cfg.dim = 64;
  model::CrossEncoderConfig cross_cfg;
  cross_cfg.features.hasher.num_buckets = 16384;
  cross_cfg.dim = 64;
  cross_cfg.hidden = 64;
  util::Rng bi_rng(11), cross_rng(12);
  model::BiEncoder bi(bi_cfg, &bi_rng);
  model::CrossEncoder cross(cross_cfg, &cross_rng);

  // The request stream, drawn through the load subsystem's generators. The
  // timed and gated modes use kRoundRobin, which reproduces the historical
  // `i % distinct` replay byte for byte (repeats are what the LRU cache
  // monetizes); the full run adds a Zipf-skewed stream below to show the
  // cascade's tier mix under realistic popularity.
  auto MakeRequests = [&](load::MixKind kind,
                          std::uint64_t seed) {
    load::WorkloadConfig wl;
    wl.kind = kind;
    wl.pool_size = scale.distinct_requests;
    wl.seed = seed;
    auto stream = load::RequestStream::Make(wl);
    if (!stream.ok()) {
      std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
      std::exit(1);
    }
    std::vector<data::LinkingExample> out;
    out.reserve(scale.total_requests);
    for (std::size_t i = 0; i < scale.total_requests; ++i) {
      out.push_back(pool_examples[stream->Next()]);
    }
    return out;
  };
  const std::vector<data::LinkingExample> requests =
      MakeRequests(load::MixKind::kRoundRobin, 1);
  const std::size_t k = scale.retrieve_k;

  // ---- Brief supervised training so retrieval and rerank correlate. --------
  {
    train::TrainOptions bopts;
    bopts.epochs = scale.train_epochs;
    train::BiEncoderTrainer bi_trainer(bopts);
    auto trained = bi_trainer.Train(&bi, kb, pool_examples);
    if (!trained.ok()) {
      std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
      return 1;
    }
  }

  // Prebuilt index shared by the single-query modes (the server builds its
  // own identical one). Built after bi training so every mode serves the
  // same weights.
  retrieval::DenseIndex index;
  {
    const auto& ids = kb.EntitiesInDomain("serving");
    std::vector<kb::Entity> entities;
    entities.reserve(ids.size());
    for (kb::EntityId id : ids) entities.push_back(kb.entity(id));
    model::EncodeScratch scratch;
    tensor::Tensor emb;
    bi.EncodeEntitiesInference(entities, &scratch, &emb);
    auto status = index.Build(std::move(emb), ids);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Cross-encoder training on candidates mined from the trained retriever
  // (the BLINK protocol: train the ranker on the retriever's output
  // distribution).
  {
    model::EncodeScratch scratch;
    retrieval::TopKScratch topk_scratch;
    tensor::Tensor q;
    std::vector<std::vector<retrieval::ScoredEntity>> lists(
        pool_examples.size());
    for (std::size_t i = 0; i < pool_examples.size(); ++i) {
      bi.EncodeMentionsInference({pool_examples[i]}, &scratch, &q);
      index.TopKInto(q.row_data(0), std::min<std::size_t>(k, index.size()),
                     &topk_scratch, &lists[i]);
    }
    const auto instances = train::MineCrossTrainingSet(pool_examples, lists,
                                                       16);
    train::TrainOptions copts;
    copts.epochs = scale.train_epochs;
    train::CrossEncoderTrainer cross_trainer(copts);
    auto trained = cross_trainer.Train(&cross, kb, instances);
    if (!trained.ok()) {
      std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
      return 1;
    }
  }

  // ---- Cascade calibration (offline, on the request pool's domain). --------
  train::CascadeCalibrationOptions calib_opts;
  calib_opts.retrieve_k = k;
  train::CascadeCalibrationReport calib_report;
  auto calibrated = train::CalibrateCascade(bi, cross, kb, "serving",
                                            pool_examples, calib_opts,
                                            &calib_report);
  if (!calibrated.ok()) {
    std::fprintf(stderr, "%s\n", calibrated.status().ToString().c_str());
    return 1;
  }
  const model::CascadeModel cascade = *std::move(calibrated);

  serve::ServerOptions base_opts;
  base_opts.max_batch = 16;
  base_opts.flush_deadline_us = 500;
  base_opts.retrieve_k = k;
  base_opts.cache_capacity = 1024;

  auto MakeServer = [&](const serve::ServerOptions& sopts) {
    auto server = serve::LinkingServer::Create(&bi, &cross, &kb, "serving",
                                               sopts);
    if (!server.ok()) {
      std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(*server);
  };

  auto PrintCalibration = [&] {
    std::printf("[calibrate]  margin_tau=%.4g distill_tau=%.4g "
                "band=%.4g head_k=%zu exit=%zu/%zu distill=%zu mse=%.3e\n",
                cascade.config.margin_tau, cascade.config.distill_tau,
                cascade.config.band_epsilon, calib_report.head_k,
                calib_report.exit_eligible, calib_report.examples,
                calib_report.distill_eligible, calib_report.distill_mse);
  };

  if (cascade_smoke) {
    // ---- Reduced cascade gate run (check.sh stage 9): no timings, only
    // the correctness contracts of the cascade.
    std::printf("=== Cascade smoke gates (%zu entities, %zu requests, "
                "k=%zu) ===\n\n",
                scale.num_entities, scale.total_requests, k);
    PrintCalibration();

    // Serial single-client streams so responses are position-comparable.
    const auto base = DriveServer(MakeServer(base_opts).get(), requests, 1);

    serve::ServerOptions off_opts = base_opts;
    off_opts.cascade = &cascade;  // present but disabled
    const auto off = DriveServer(MakeServer(off_opts).get(), requests, 1);

    // Cascade machinery forced to "never exit, full head": must reproduce
    // the full-rerank responses byte for byte through the cascade code
    // path itself.
    model::CascadeModel fullhead;
    fullhead.config.rerank_head_k = k;
    serve::ServerOptions fullhead_opts = base_opts;
    fullhead_opts.use_cascade = true;
    fullhead_opts.cascade = &fullhead;
    const auto full =
        DriveServer(MakeServer(fullhead_opts).get(), requests, 1);

    serve::ServerOptions on_opts = base_opts;
    on_opts.use_cascade = true;
    on_opts.cascade = &cascade;
    const auto on_serial = DriveServer(MakeServer(on_opts).get(), requests, 1);
    const auto on_pooled =
        DriveServer(MakeServer(on_opts).get(), requests,
                    scale.client_threads);

    const bool gate_off_identical = SameTop1(base, off);
    const bool gate_fullhead_identical = SameTop1(base, full);
    const bool gate_counters = TiersSum(on_serial.stats) &&
                               TiersSum(on_pooled.stats) &&
                               TiersSum(base.stats) &&
                               base.stats.rerank_full == base.stats.requests;
    const bool gate_deterministic =
        SameTop1(on_serial, on_pooled) &&
        on_serial.stats.rerank_exited == on_pooled.stats.rerank_exited &&
        on_serial.stats.rerank_distilled == on_pooled.stats.rerank_distilled &&
        on_serial.stats.rerank_full == on_pooled.stats.rerank_full;
    const double acc_full =
        static_cast<double>(base.correct) / requests.size();
    const double acc_cascade =
        static_cast<double>(on_serial.correct) / requests.size();
    const double delta_pts = (acc_full - acc_cascade) * 100.0;
    const bool gate_accuracy = delta_pts <= 0.2;

    std::printf("[gate] cascade-off byte-identical:      %s\n",
                gate_off_identical ? "PASS" : "FAIL");
    std::printf("[gate] forced-full-head byte-identical: %s\n",
                gate_fullhead_identical ? "PASS" : "FAIL");
    std::printf("[gate] tier counters sum to requests:   %s "
                "(exited=%llu distilled=%llu full=%llu)\n",
                gate_counters ? "PASS" : "FAIL",
                static_cast<unsigned long long>(on_serial.stats.rerank_exited),
                static_cast<unsigned long long>(
                    on_serial.stats.rerank_distilled),
                static_cast<unsigned long long>(on_serial.stats.rerank_full));
    std::printf("[gate] serial == pooled (tiers+bytes):  %s\n",
                gate_deterministic ? "PASS" : "FAIL");
    std::printf("[gate] accuracy delta <= 0.2 pts:       %s "
                "(full=%.4f cascade=%.4f delta=%.3f pts)\n",
                gate_accuracy ? "PASS" : "FAIL", acc_full, acc_cascade,
                delta_pts);

    const bool ok = gate_off_identical && gate_fullhead_identical &&
                    gate_counters && gate_deterministic && gate_accuracy;
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\n");
      std::fprintf(f,
                   "  \"cascade_smoke\": {\"off_identical\": %s, "
                   "\"fullhead_identical\": %s, \"counters_ok\": %s, "
                   "\"deterministic\": %s, \"accuracy_full\": %.4f, "
                   "\"accuracy_cascade\": %.4f, \"accuracy_delta_pts\": "
                   "%.4f, \"exited\": %llu, \"distilled\": %llu, "
                   "\"full\": %llu},\n",
                   gate_off_identical ? "true" : "false",
                   gate_fullhead_identical ? "true" : "false",
                   gate_counters ? "true" : "false",
                   gate_deterministic ? "true" : "false", acc_full,
                   acc_cascade, delta_pts,
                   static_cast<unsigned long long>(
                       on_serial.stats.rerank_exited),
                   static_cast<unsigned long long>(
                       on_serial.stats.rerank_distilled),
                   static_cast<unsigned long long>(
                       on_serial.stats.rerank_full));
      std::fprintf(f, "  \"pass\": %s\n", ok ? "true" : "false");
      std::fprintf(f, "}\n");
      std::fclose(f);
    }
    std::printf("\n  cascade smoke gates: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  std::printf("=== Serving benchmark (%zu entities, %zu requests, k=%zu) ===\n\n",
              scale.num_entities, scale.total_requests, k);
  PrintCalibration();

  // ---- Mode 1: single-query, tape forward paths. ---------------------------
  retrieval::TopKScratch topk_scratch;
  std::vector<retrieval::ScoredEntity> hits;
  std::vector<kb::Entity> candidates;
  std::vector<double> tape_lat;
  tape_lat.reserve(requests.size());
  const auto tape_t0 = Clock::now();
  for (const auto& ex : requests) {
    const auto q0 = Clock::now();
    tensor::Tensor q = bi.EmbedMentions({ex});
    index.TopKInto(q.row_data(0), k, &topk_scratch, &hits);
    candidates.clear();
    for (const auto& h : hits) candidates.push_back(kb.entity(h.id));
    const std::vector<float> scores = cross.Score(ex, candidates);
    g_sink += scores[0];
    tape_lat.push_back(MsSince(q0));
  }
  const ModeResult tape = Summarize(tape_lat, MsSince(tape_t0));
  std::printf("[tape_single]      p50 %7.3f ms  p99 %7.3f ms  %8.1f qps\n",
              tape.p50_ms, tape.p99_ms, tape.qps);

  // ---- Mode 2: single-query, tape-free kernels. ----------------------------
  model::EncodeScratch encode_scratch;
  model::CrossScoreScratch cross_scratch;
  tensor::Tensor q_free;
  std::vector<float> free_scores;
  std::vector<double> free_lat;
  free_lat.reserve(requests.size());
  const auto free_t0 = Clock::now();
  for (const auto& ex : requests) {
    const auto q0 = Clock::now();
    bi.EncodeMentionsInference({ex}, &encode_scratch, &q_free);
    index.TopKInto(q_free.row_data(0), k, &topk_scratch, &hits);
    candidates.clear();
    for (const auto& h : hits) candidates.push_back(kb.entity(h.id));
    cross.ScoreInference(ex, candidates, &cross_scratch, &free_scores);
    g_sink += free_scores[0];
    free_lat.push_back(MsSince(q0));
  }
  const ModeResult tapefree = Summarize(free_lat, MsSince(free_t0));
  std::printf("[tapefree_single]  p50 %7.3f ms  p99 %7.3f ms  %8.1f qps  (%.2fx)\n",
              tapefree.p50_ms, tapefree.p99_ms, tapefree.qps,
              tapefree.qps / tape.qps);

  // ---- Parity: tape vs tape-free scores over the distinct pool. ------------
  double max_score_diff = 0.0;
  for (std::size_t i = 0; i < scale.distinct_requests; ++i) {
    const auto& ex = pool_examples[i];
    tensor::Tensor qt = bi.EmbedMentions({ex});
    bi.EncodeMentionsInference({ex}, &encode_scratch, &q_free);
    for (std::size_t j = 0; j < qt.cols(); ++j) {
      max_score_diff = std::max<double>(
          max_score_diff, std::fabs(qt.at(0, j) - q_free.at(0, j)));
    }
    index.TopKInto(q_free.row_data(0), k, &topk_scratch, &hits);
    candidates.clear();
    for (const auto& h : hits) candidates.push_back(kb.entity(h.id));
    const std::vector<float> st = cross.Score(ex, candidates);
    cross.ScoreInference(ex, candidates, &cross_scratch, &free_scores);
    for (std::size_t c = 0; c < st.size(); ++c) {
      max_score_diff = std::max<double>(max_score_diff,
                                        std::fabs(st[c] - free_scores[c]));
    }
  }
  std::printf("[parity]           max |tape - tapefree| = %.2e\n",
              max_score_diff);

  // ---- Parity: int8 retrieval reproduces the fp32 top-64. ------------------
  // Exactness gate at the full pool (pool >= index size guarantees the
  // true top-k survives the int8 scan) plus the measured overlap at a
  // bounded pool.
  index.Quantize();
  double int8_overlap = 0.0;
  double int8_overlap_serve_pool = 0.0;
  {
    std::vector<retrieval::ScoredEntity> exact, quant, quant_served;
    std::size_t agree = 0, agree_served = 0, total = 0;
    const std::size_t probes = std::min<std::size_t>(64, index.size());
    for (std::size_t i = 0; i < scale.distinct_requests; ++i) {
      bi.EncodeMentionsInference({pool_examples[i]}, &encode_scratch, &q_free);
      index.TopKInto(q_free.row_data(0), probes, &topk_scratch, &exact);
      index.TopKQuantizedInto(q_free.row_data(0), probes, index.size(),
                              &topk_scratch, &quant);
      index.TopKQuantizedInto(q_free.row_data(0), probes, kInt8BoundedPool,
                              &topk_scratch, &quant_served);
      std::set<kb::EntityId> a, b, c;
      for (const auto& e : exact) a.insert(e.id);
      for (const auto& e : quant) b.insert(e.id);
      for (const auto& e : quant_served) c.insert(e.id);
      for (kb::EntityId id : a) {
        agree += b.count(id);
        agree_served += c.count(id);
      }
      total += a.size();
    }
    int8_overlap = total > 0 ? static_cast<double>(agree) / total : 0.0;
    int8_overlap_serve_pool =
        total > 0 ? static_cast<double>(agree_served) / total : 0.0;
  }
  std::printf("[parity]           int8 R@64 overlap vs fp32 = %.4f "
              "(pool=%zu: %.4f)\n\n",
              int8_overlap, kInt8BoundedPool, int8_overlap_serve_pool);

  // ---- Mode 3: micro-batching server, concurrent clients. ------------------
  const StreamResult server = DriveServer(MakeServer(base_opts).get(),
                                          requests, scale.client_threads);
  std::printf("[server_batched]   p50 %7.3f ms  p99 %7.3f ms  %8.1f qps  (%.2fx)\n",
              server.mode.p50_ms, server.mode.p99_ms, server.mode.qps,
              server.mode.qps / tape.qps);

  const serve::ServerStats& stats = server.stats;
  const double cache_hit_rate =
      stats.cache_hits + stats.cache_misses > 0
          ? static_cast<double>(stats.cache_hits) /
                (stats.cache_hits + stats.cache_misses)
          : 0.0;
  std::printf("  batches=%llu cache_hit_rate=%.2f encode=%.1fms retrieve=%.1fms "
              "rerank=%.1fms queue_hw=%zu accepted=%llu\n",
              static_cast<unsigned long long>(stats.batches), cache_hit_rate,
              stats.encode_ms, stats.retrieve_ms, stats.rerank_ms,
              stats.queue_depth_high_water,
              static_cast<unsigned long long>(stats.accepted));

  // ---- Mode 4: the batched server behind the calibrated cascade. -----------
  serve::ServerOptions cascade_opts = base_opts;
  cascade_opts.use_cascade = true;
  cascade_opts.cascade = &cascade;
  const StreamResult server_cascade =
      DriveServer(MakeServer(cascade_opts).get(), requests,
                  scale.client_threads);
  const double acc_full =
      static_cast<double>(server.correct) / requests.size();
  const double acc_cascade =
      static_cast<double>(server_cascade.correct) / requests.size();
  const double accuracy_delta_pts = (acc_full - acc_cascade) * 100.0;
  const double cascade_speedup = server.mode.qps > 0.0
                                     ? server_cascade.mode.qps /
                                           server.mode.qps
                                     : 0.0;
  std::printf("[server_cascade]   p50 %7.3f ms  p99 %7.3f ms  %8.1f qps  "
              "(%.2fx over full rerank)\n",
              server_cascade.mode.p50_ms, server_cascade.mode.p99_ms,
              server_cascade.mode.qps, cascade_speedup);
  std::printf("  tiers: exited=%llu distilled=%llu full=%llu | "
              "accuracy full=%.4f cascade=%.4f delta=%.3f pts\n",
              static_cast<unsigned long long>(
                  server_cascade.stats.rerank_exited),
              static_cast<unsigned long long>(
                  server_cascade.stats.rerank_distilled),
              static_cast<unsigned long long>(
                  server_cascade.stats.rerank_full),
              acc_full, acc_cascade, accuracy_delta_pts);

  // ---- Mode 5: the cascade under a Zipf-skewed request stream. -------------
  // Same server configuration, same pool, but requests drawn Zipf(0.99)
  // instead of round-robin: the tier mix and the cache hit rate shift
  // because hot mentions dominate (and repeat within LRU reach).
  const std::vector<data::LinkingExample> zipf_requests =
      MakeRequests(load::MixKind::kZipfian, 7);
  const StreamResult cascade_zipf =
      DriveServer(MakeServer(cascade_opts).get(), zipf_requests,
                  scale.client_threads);
  const double zipf_hit_rate =
      cascade_zipf.stats.cache_hits + cascade_zipf.stats.cache_misses > 0
          ? static_cast<double>(cascade_zipf.stats.cache_hits) /
                (cascade_zipf.stats.cache_hits +
                 cascade_zipf.stats.cache_misses)
          : 0.0;
  std::printf("[cascade_zipf]     p50 %7.3f ms  p99 %7.3f ms  %8.1f qps  "
              "(theta=0.99)\n",
              cascade_zipf.mode.p50_ms, cascade_zipf.mode.p99_ms,
              cascade_zipf.mode.qps);
  std::printf("  tiers: exited=%llu distilled=%llu full=%llu | "
              "cache_hit_rate=%.2f (uniform %.2f)\n",
              static_cast<unsigned long long>(
                  cascade_zipf.stats.rerank_exited),
              static_cast<unsigned long long>(
                  cascade_zipf.stats.rerank_distilled),
              static_cast<unsigned long long>(cascade_zipf.stats.rerank_full),
              zipf_hit_rate, cache_hit_rate);

  const double speedup = server.mode.qps / tape.qps;
  const bool parity_ok = max_score_diff <= 1e-6 && int8_overlap == 1.0;
  const bool counters_ok = TiersSum(server_cascade.stats) &&
                           TiersSum(server.stats) &&
                           server.stats.rerank_full == server.stats.requests;
  const bool cascade_ok = counters_ok && accuracy_delta_pts <= 0.2;
  if (smoke) {
    // The smoke scale is too small for throughput numbers to mean
    // anything; only the parity + cascade gates are enforced (exit code).
    std::printf("\n  smoke parity gate: %s\n",
                (parity_ok && cascade_ok) ? "PASS" : "FAIL");
  } else {
    std::printf("\n  acceptance (>= 5x batched tape-free vs tape, parity): %s\n",
                (speedup >= 5.0 && parity_ok) ? "PASS" : "FAIL");
    std::printf("  acceptance (cascade >= 2x batched full rerank, "
                "delta <= 0.2 pts): %s\n",
                (cascade_speedup >= 2.0 && cascade_ok) ? "PASS" : "FAIL");
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"entities\": %zu, \"distinct_requests\": %zu, "
               "\"total_requests\": %zu, \"retrieve_k\": %zu, "
               "\"client_threads\": %zu, \"smoke\": %s},\n",
               scale.num_entities, scale.distinct_requests,
               scale.total_requests, k, scale.client_threads,
               smoke ? "true" : "false");
  std::fprintf(f,
               "  \"tape_single\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
               "\"qps\": %.1f},\n",
               tape.p50_ms, tape.p99_ms, tape.qps);
  std::fprintf(f,
               "  \"tapefree_single\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
               "\"qps\": %.1f},\n",
               tapefree.p50_ms, tapefree.p99_ms, tapefree.qps);
  std::fprintf(f,
               "  \"server_batched\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
               "\"qps\": %.1f, \"batches\": %llu, \"cache_hit_rate\": %.4f, "
               "\"encode_ms\": %.3f, \"retrieve_ms\": %.3f, "
               "\"rerank_ms\": %.3f, \"accepted\": %llu, "
               "\"queue_depth_high_water\": %zu, \"oldest_wait_us\": %.1f},\n",
               server.mode.p50_ms, server.mode.p99_ms, server.mode.qps,
               static_cast<unsigned long long>(stats.batches), cache_hit_rate,
               stats.encode_ms, stats.retrieve_ms, stats.rerank_ms,
               static_cast<unsigned long long>(stats.accepted),
               stats.queue_depth_high_water, stats.oldest_wait_us);
  std::fprintf(f,
               "  \"server_cascade\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
               "\"qps\": %.1f, \"rerank_exited\": %llu, "
               "\"rerank_distilled\": %llu, \"rerank_full\": %llu, "
               "\"margin_tau\": %.6g, \"distill_tau\": %.6g, "
               "\"band_epsilon\": %.6g, \"rerank_head_k\": %zu, "
               "\"accuracy_full\": %.4f, \"accuracy_cascade\": %.4f, "
               "\"accuracy_delta_pts\": %.4f},\n",
               server_cascade.mode.p50_ms, server_cascade.mode.p99_ms,
               server_cascade.mode.qps,
               static_cast<unsigned long long>(
                   server_cascade.stats.rerank_exited),
               static_cast<unsigned long long>(
                   server_cascade.stats.rerank_distilled),
               static_cast<unsigned long long>(
                   server_cascade.stats.rerank_full),
               cascade.config.margin_tau, cascade.config.distill_tau,
               cascade.config.band_epsilon, cascade.config.rerank_head_k,
               acc_full, acc_cascade, accuracy_delta_pts);
  std::fprintf(f,
               "  \"server_cascade_zipf\": {\"theta\": 0.99, \"p50_ms\": "
               "%.4f, \"p99_ms\": %.4f, \"qps\": %.1f, "
               "\"rerank_exited\": %llu, \"rerank_distilled\": %llu, "
               "\"rerank_full\": %llu, \"cache_hit_rate\": %.4f, "
               "\"cache_hit_rate_uniform\": %.4f},\n",
               cascade_zipf.mode.p50_ms, cascade_zipf.mode.p99_ms,
               cascade_zipf.mode.qps,
               static_cast<unsigned long long>(
                   cascade_zipf.stats.rerank_exited),
               static_cast<unsigned long long>(
                   cascade_zipf.stats.rerank_distilled),
               static_cast<unsigned long long>(
                   cascade_zipf.stats.rerank_full),
               zipf_hit_rate, cache_hit_rate);
  std::fprintf(f,
               "  \"parity\": {\"max_score_diff\": %.3e, "
               "\"int8_r64_overlap\": %.6f, "
               "\"int8_r64_overlap_serve_pool\": %.6f},\n",
               max_score_diff, int8_overlap, int8_overlap_serve_pool);
  std::fprintf(f, "  \"speedup_batched_vs_tape\": %.2f,\n", speedup);
  std::fprintf(f, "  \"speedup_cascade_vs_batched\": %.2f,\n",
               cascade_speedup);
  std::fprintf(f, "  \"meets_5x\": %s,\n",
               (speedup >= 5.0 && parity_ok) ? "true" : "false");
  std::fprintf(f, "  \"meets_cascade_2x\": %s,\n",
               (cascade_speedup >= 2.0 && cascade_ok) ? "true" : "false");
  std::fprintf(f, "  \"checksum\": %.6f\n", g_sink);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return (smoke && !(parity_ok && cascade_ok)) ? 1 : 0;
}
