// Performance-substrate benchmark: times the blocked GEMM kernels, one
// meta-reweighting Step() under each gradient strategy, and batched dense
// retrieval, then writes the measurements as JSON (default
// BENCH_perf_substrate.json in the current directory, argv[1] overrides).
//
// The headline number is the meta Step speedup of the fast path (JVP) over
// the serial per-example reference (one sparsity-aware backward pass per
// example); the acceptance bar is >= 3x. The JVP step is timed both with no
// pool and with a pool of hardware_concurrency() threads, and the bar is
// taken against whichever of the two is faster on the machine at hand (on
// small core counts the pool's dispatch overhead can outweigh its gain).
// The output and the JSON name the configuration that won.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "model/bi_encoder.h"
#include "retrieval/dense_index.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "train/meta_trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace metablink;

namespace {

double g_sink = 0.0;  // defeats dead-code elimination across timed regions

template <typename Fn>
double BestOfMs(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

tensor::Tensor RandomTensor(std::size_t rows, std::size_t cols,
                            util::Rng* rng) {
  tensor::Tensor t(rows, cols);
  for (float& v : t.data()) v = rng->NextFloat(-1.0f, 1.0f);
  return t;
}

// ---- Section 1: kernel GEMM ------------------------------------------------

struct GemmTimes {
  double naive_ms = 0.0;
  double kernel_ms = 0.0;
  double pooled_ms = 0.0;
};

GemmTimes BenchGemm(util::ThreadPool* pool) {
  const std::size_t n = 384, k = 384, m = 384;
  util::Rng rng(101);
  tensor::Tensor a = RandomTensor(n, k, &rng);
  tensor::Tensor b = RandomTensor(k, m, &rng);
  tensor::Tensor out(n, m);

  GemmTimes t;
  t.naive_ms = BestOfMs(3, [&] {
    out.SetZero();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
        out.at(i, j) = acc;
      }
    }
    g_sink += out.at(0, 0);
  });
  t.kernel_ms = BestOfMs(5, [&] {
    out.SetZero();
    tensor::Gemm(a, b, &out, nullptr);
    g_sink += out.at(0, 0);
  });
  t.pooled_ms = BestOfMs(5, [&] {
    out.SetZero();
    tensor::Gemm(a, b, &out, pool);
    g_sink += out.at(0, 0);
  });
  return t;
}

// ---- Section 2: meta Step --------------------------------------------------

struct MetaBench {
  data::Corpus corpus;
  model::BiEncoder model;
  std::vector<float> initial;
  std::vector<data::LinkingExample> syn;
  std::vector<data::LinkingExample> seed;

  explicit MetaBench(util::Rng* rng)
      : corpus(MakeCorpus()), model(Config(), rng) {
    initial = model.params()->FlattenValues();
    const auto& examples = corpus.ExamplesIn("d");
    syn.assign(examples.begin(), examples.begin() + 64);
    seed.assign(examples.begin() + 64, examples.begin() + 80);
  }

  static model::BiEncoderConfig Config() {
    model::BiEncoderConfig cfg;
    cfg.features.hasher.num_buckets = 16384;
    cfg.dim = 64;
    return cfg;
  }

  static data::Corpus MakeCorpus() {
    data::GeneratorOptions opts;
    opts.seed = 202;
    opts.shared_vocab_size = 600;
    opts.domain_vocab_size = 300;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(1);
    specs[0].name = "d";
    specs[0].num_entities = 120;
    specs[0].num_examples = 480;
    specs[0].num_documents = 120;
    return std::move(*gen.Generate(specs));
  }

  double TimeStep(train::MetaGrad mode, util::ThreadPool* pool,
                  int reps = 5) {
    train::MetaTrainOptions opts;
    opts.meta_grad = mode;
    opts.pool = pool;
    model::BiEncoder* m = &model;
    const kb::KnowledgeBase* kb = &corpus.kb;
    train::MetaReweightTrainer meta(
        opts, model.params(),
        [m, kb](tensor::Graph* g,
                const std::vector<data::LinkingExample>& batch) {
          return m->InBatchLoss(g, batch, *kb);
        });
    // Warm up once (allocators, feature caches), then time from identical
    // starting weights each rep: Step takes an optimizer step, so reload
    // outside the timed region.
    (void)model.params()->LoadValues(initial);
    (void)meta.Step(syn, seed);
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
      (void)model.params()->LoadValues(initial);
      const auto t0 = std::chrono::steady_clock::now();
      auto w = meta.Step(syn, seed);
      const auto t1 = std::chrono::steady_clock::now();
      if (!w.ok()) {
        std::fprintf(stderr, "meta step failed: %s\n",
                     w.status().ToString().c_str());
        std::exit(1);
      }
      g_sink += (*w)[0];
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return best;
  }
};

// ---- Section 3: retrieval --------------------------------------------------

struct TopKTimes {
  double old_style_ms = 0.0;
  double batch_serial_ms = 0.0;
  double batch_pooled_ms = 0.0;
};

TopKTimes BenchTopK(util::ThreadPool* pool) {
  const std::size_t n = 20000, d = 128, nq = 128, k = 64;
  util::Rng rng(303);
  tensor::Tensor embeddings = RandomTensor(n, d, &rng);
  tensor::Tensor queries = RandomTensor(nq, d, &rng);
  std::vector<kb::EntityId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<kb::EntityId>(i);

  retrieval::DenseIndex index;
  {
    tensor::Tensor copy = embeddings;
    auto status = index.Build(std::move(copy), ids);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  }

  TopKTimes t;
  // The pre-optimization retrieval loop: per query, allocate and fill an
  // O(N) score vector, then partial_sort.
  t.old_style_ms = BestOfMs(3, [&] {
    for (std::size_t q = 0; q < nq; ++q) {
      std::vector<retrieval::ScoredEntity> scored(n);
      for (std::size_t i = 0; i < n; ++i) {
        scored[i].id = ids[i];
        scored[i].score =
            tensor::Dot(queries.row_data(q), embeddings.row_data(i), d);
      }
      std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                        [](const retrieval::ScoredEntity& a,
                           const retrieval::ScoredEntity& b) {
                          if (a.score != b.score) return a.score > b.score;
                          return a.id < b.id;
                        });
      g_sink += scored[0].score;
    }
  });
  t.batch_serial_ms = BestOfMs(3, [&] {
    auto hits = index.BatchTopK(queries, k, nullptr);
    g_sink += hits[0][0].score;
  });
  t.batch_pooled_ms = BestOfMs(3, [&] {
    auto hits = index.BatchTopK(queries, k, pool);
    g_sink += hits[0][0].score;
  });
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_perf_substrate.json";
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  util::ThreadPool pool(threads);

  std::printf("=== Performance substrate benchmark (pool of %zu threads) "
              "===\n\n",
              threads);

  const GemmTimes gemm = BenchGemm(&pool);
  std::printf("[gemm 384x384x384]\n");
  std::printf("  naive triple loop   %8.2f ms\n", gemm.naive_ms);
  std::printf("  blocked kernel      %8.2f ms  (%.2fx vs naive)\n",
              gemm.kernel_ms, gemm.naive_ms / gemm.kernel_ms);
  std::printf("  blocked + pool      %8.2f ms  (%.2fx vs naive)\n\n",
              gemm.pooled_ms, gemm.naive_ms / gemm.pooled_ms);

  util::Rng model_rng(9);
  MetaBench meta(&model_rng);
  const double sparse_ms =
      meta.TimeStep(train::MetaGrad::kPerExample, nullptr);
  const double jvp_ms = meta.TimeStep(train::MetaGrad::kJvp, nullptr);
  const double jvp_pool_ms = meta.TimeStep(train::MetaGrad::kJvp, &pool);
  const bool pool_wins = jvp_pool_ms < jvp_ms;
  const char* fastest = pool_wins ? "jvp_pool" : "jvp_serial";
  const double fastest_ms = pool_wins ? jvp_pool_ms : jvp_ms;
  const double meta_speedup = sparse_ms / fastest_ms;
  std::printf("[meta step, n=64 synthetic / m=16 seed, dim=64]\n");
  std::printf("  per-example backward (serial)         %8.2f ms\n", sparse_ms);
  std::printf("  JVP fast path (serial)                %8.2f ms  (%.2fx)\n",
              jvp_ms, sparse_ms / jvp_ms);
  std::printf("  JVP + pool(%zu)                        %8.2f ms  (%.2fx)\n",
              threads, jvp_pool_ms, sparse_ms / jvp_pool_ms);
  std::printf("  acceptance (>= 3x, fastest = %s): %s\n\n", fastest,
              meta_speedup >= 3.0 ? "PASS" : "FAIL");

  const TopKTimes topk = BenchTopK(&pool);
  std::printf("[retrieval, 128 queries x 20000 entities x d=128, k=64]\n");
  std::printf("  old per-query alloc + partial_sort    %8.2f ms\n",
              topk.old_style_ms);
  std::printf("  blocked BatchTopK (serial)            %8.2f ms  (%.2fx)\n",
              topk.batch_serial_ms, topk.old_style_ms / topk.batch_serial_ms);
  std::printf("  blocked BatchTopK + pool              %8.2f ms  (%.2fx)\n\n",
              topk.batch_pooled_ms, topk.old_style_ms / topk.batch_pooled_ms);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"pool_threads\": %zu,\n", threads);
  std::fprintf(f,
               "  \"gemm_384\": {\"naive_ms\": %.3f, \"kernel_ms\": %.3f, "
               "\"pooled_ms\": %.3f},\n",
               gemm.naive_ms, gemm.kernel_ms, gemm.pooled_ms);
  std::fprintf(
      f,
      "  \"meta_step\": {\"sparse_ms\": %.3f, \"jvp_ms\": %.3f, "
      "\"jvp_pool_ms\": %.3f, \"fastest\": \"%s\", "
      "\"speedup_fastest_vs_sparse\": %.2f, \"meets_3x\": %s},\n",
      sparse_ms, jvp_ms, jvp_pool_ms, fastest, meta_speedup,
      meta_speedup >= 3.0 ? "true" : "false");
  std::fprintf(f,
               "  \"batch_topk\": {\"old_style_ms\": %.3f, "
               "\"batch_serial_ms\": %.3f, \"batch_pool_ms\": %.3f, "
               "\"speedup_serial\": %.2f},\n",
               topk.old_style_ms, topk.batch_serial_ms, topk.batch_pooled_ms,
               topk.old_style_ms / topk.batch_serial_ms);
  std::fprintf(f, "  \"checksum\": %.6f\n", g_sink);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
