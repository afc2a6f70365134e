// Clustered-retrieval benchmark: measures the IVF index against the
// exhaustive scans it replaces and writes BENCH_retrieval.json (argv
// override; --smoke shrinks every dimension for the CI smoke stage).
//
// Per scale (4k / 100k / 1M entities, mixture-of-Gaussians embeddings so
// the data has cluster structure for a coarse probe to exploit):
//   build ms:        seeded k-means + inverted-list construction;
//   latency ms/q:    exhaustive fp32 TopKInto, exhaustive int8
//                    TopKQuantizedInto, clustered probe at the default
//                    nprobe, and the KB-sharded probe over a thread pool;
//   R@64 vs nprobe:  mean overlap with the exact fp32 top-64 across a
//                    sweep of nprobe values up to probe-all.
//
// Always-on correctness gates (exit 1 on violation, any scale):
//   - probe-all (nprobe == num_clusters) is bit-identical to the
//     exhaustive fp32 scan — ids, scores, and tie order;
//   - the same holds for the PQ scan with a full re-score pool;
//   - the KB-sharded index (ShardedIndex, 4 shards) is bit-identical to
//     the single index at equal nprobe, serial and pool-parallel;
//   - the int8 entry point dispatches to the exact scan below the
//     crossover size (bit-identical results there);
//   - rebuilding with the same seed yields byte-identical serialization;
//   - R@64 >= 0.98 at the default nprobe on the gate scale;
//   - PQ marginal bytes/entity (the M code bytes) <= 25% of int8's d+4.
// Full mode additionally gates the headline numbers: at 100k entities the
// clustered probe, at its cheapest nprobe meeting R@64 >= 0.98 (the
// operating point a deployment would pick from the sweep), must be >= 5x
// faster than the exhaustive int8 scan; at 100k+ the PQ index total
// bytes/entity (codes + codebooks) must be <= 25% of int8's, with an
// operating point at R@64 >= 0.98 and, at 1M, ms/query <= 1.5x the
// non-PQ clustered operating point.
//
// --pq-smoke runs the same reduced scale as --smoke; it exists as a
// separately named CI stage so a PQ gate failure is attributed to the PQ
// subsystem rather than the base retrieval stage.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "retrieval/clustered_index.h"
#include "retrieval/dense_index.h"
#include "retrieval/sharded_index.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

using namespace metablink;

namespace {

using Clock = std::chrono::steady_clock;
using bench::Gate;
using bench::MsSince;

// Mixture-of-Gaussians rows: well-separated centers with isotropic noise
// (same recipe as the recall tests — uniform random data has no cluster
// structure for an IVF probe to exploit).
tensor::Tensor MixtureEmbeddings(std::size_t n, std::size_t d,
                                 std::size_t components, float noise,
                                 std::uint64_t seed,
                                 tensor::Tensor* centers_out) {
  util::Rng rng(seed);
  tensor::Tensor centers(components, d);
  for (float& v : centers.data()) v = rng.NextFloat(-1.0f, 1.0f);
  tensor::Tensor t(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % components;
    for (std::size_t j = 0; j < d; ++j) {
      t.at(i, j) =
          centers.at(c, j) + noise * static_cast<float>(rng.NextGaussian());
    }
  }
  if (centers_out != nullptr) *centers_out = std::move(centers);
  return t;
}

std::vector<kb::EntityId> Iota(std::size_t n) {
  std::vector<kb::EntityId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<kb::EntityId>(i);
  return ids;
}

double Overlap(const std::vector<retrieval::ScoredEntity>& truth,
               const std::vector<retrieval::ScoredEntity>& got) {
  if (truth.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& t : truth)
    for (const auto& g : got)
      if (g.id == t.id) {
        ++hit;
        break;
      }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

bool SameHits(const std::vector<retrieval::ScoredEntity>& a,
              const std::vector<retrieval::ScoredEntity>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  return true;
}

struct SweepPoint {
  std::size_t nprobe = 0;
  double recall = 0.0;
  double ms_per_query = 0.0;
};

struct ScaleResult {
  std::size_t entities = 0;
  std::size_t dim = 0;
  std::size_t num_clusters = 0;
  std::size_t default_nprobe = 0;
  double build_ms = 0.0;
  double fp32_ms_per_query = 0.0;
  double int8_ms_per_query = 0.0;
  double clustered_ms_per_query = 0.0;
  double recall_at_default = 0.0;
  double speedup_vs_int8 = 0.0;
  /// Cheapest sweep point meeting the R@64 >= 0.98 target — the operating
  /// point an IVF deployment would actually pick. The default nprobe
  /// (ceil(sqrt(kc))) is deliberately conservative; on clusterable data
  /// recall saturates well below it.
  SweepPoint operating;
  double operating_speedup_vs_int8 = 0.0;
  std::vector<SweepPoint> sweep;
  // PQ (product-quantized residual) form of the same clustered index.
  double pq_build_ms = 0.0;
  double pq_ms_per_query = 0.0;  // at the default nprobe
  double pq_recall_at_default = 0.0;
  SweepPoint pq_operating;
  std::vector<SweepPoint> pq_sweep;
  // Scan-storage cost per entity. fp32/int8 are marginal (per-row) costs;
  // pq_bytes is the TOTAL amortized cost including the shared codebooks
  // (which dominate at small n and vanish at 1M), pq_code_bytes the
  // marginal M code bytes.
  double fp32_bytes_per_entity = 0.0;
  double int8_bytes_per_entity = 0.0;
  double pq_bytes_per_entity = 0.0;
  double pq_code_bytes_per_entity = 0.0;
  // KB-sharded (ShardedIndex) probe over the PQ form, pool-parallel.
  std::size_t sharded_index_shards = 0;
  double sharded_index_ms_per_query = 0.0;
};

constexpr std::size_t kTopK = 64;

ScaleResult RunScale(std::size_t n, std::size_t d, std::size_t num_queries,
                     std::size_t rounds, util::ThreadPool* pool,
                     bool check_determinism) {
  ScaleResult r;
  r.entities = n;
  r.dim = d;
  const std::size_t k = std::min<std::size_t>(kTopK, n);

  // World: one mixture component per ~250 rows so the true neighbors of a
  // query concentrate in a handful of coarse cells.
  const std::size_t components =
      std::max<std::size_t>(16, std::min<std::size_t>(4096, n / 250));
  tensor::Tensor centers;
  tensor::Tensor rows =
      MixtureEmbeddings(n, d, components, 0.10f, 0xB0B0 + n, &centers);
  retrieval::DenseIndex base;
  if (!base.Build(std::move(rows), Iota(n)).ok()) {
    Gate(false, "base index builds");
    return r;
  }
  base.Quantize();

  // Queries: near component centers, like real mentions near real entities.
  util::Rng qrng(0xDADA + n);
  tensor::Tensor queries(num_queries, d);
  for (std::size_t i = 0; i < num_queries; ++i) {
    const std::size_t c = static_cast<std::size_t>(
        qrng.NextUint64(components));
    for (std::size_t j = 0; j < d; ++j)
      queries.at(i, j) = centers.at(c, j) +
                         0.10f * static_cast<float>(qrng.NextGaussian());
  }

  // ---- Build ---------------------------------------------------------------
  retrieval::ClusteredIndex clustered;
  {
    const auto t0 = Clock::now();
    if (!clustered.Build(base, {}, pool).ok()) {
      Gate(false, "clustered index builds");
      return r;
    }
    r.build_ms = MsSince(t0);
  }
  r.num_clusters = clustered.num_clusters();
  r.default_nprobe = clustered.default_nprobe();

  // ---- PQ build + storage cost ----------------------------------------------
  retrieval::ClusteredIndex pq;
  {
    retrieval::ClusteredIndexOptions popts;
    popts.use_pq = true;
    const auto t0 = Clock::now();
    if (!pq.Build(base, popts, pool).ok()) {
      Gate(false, "pq index builds");
      return r;
    }
    r.pq_build_ms = MsSince(t0);
  }
  r.fp32_bytes_per_entity = static_cast<double>(d * sizeof(float));
  r.int8_bytes_per_entity =
      static_cast<double>(base.QuantizedMemoryBytes()) /
      static_cast<double>(n);
  r.pq_bytes_per_entity =
      static_cast<double>(pq.PqMemoryBytes()) / static_cast<double>(n);
  r.pq_code_bytes_per_entity = static_cast<double>(pq.pq_m());
  Gate(r.pq_code_bytes_per_entity <= 0.25 * r.int8_bytes_per_entity,
       "pq marginal bytes/entity <= 25% of int8");

  if (check_determinism) {
    retrieval::ClusteredIndex again;
    if (!again.Build(base, {}, nullptr).ok()) {
      Gate(false, "serial clustered rebuild");
    }
    util::BinaryWriter wa, wb;
    clustered.Save(&wa);
    again.Save(&wb);
    Gate(wa.buffer() == wb.buffer(),
         "same-seed rebuild is byte-identical (serial vs pooled)");
    retrieval::ClusteredIndexOptions popts;
    popts.use_pq = true;
    retrieval::ClusteredIndex pq_again;
    if (!pq_again.Build(base, popts, nullptr).ok()) {
      Gate(false, "serial pq rebuild");
    }
    util::BinaryWriter pa, pb;
    pq.Save(&pa);
    pq_again.Save(&pb);
    Gate(pa.buffer() == pb.buffer(),
         "same-seed PQ rebuild is byte-identical (serial vs pooled)");
  }

  // ---- Exhaustive baselines + ground truth ---------------------------------
  retrieval::TopKScratch flat_scratch;
  std::vector<std::vector<retrieval::ScoredEntity>> truth(num_queries);
  {
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < rounds; ++it)
      for (std::size_t i = 0; i < num_queries; ++i)
        base.TopKInto(queries.row_data(i), k, &flat_scratch, &truth[i]);
    r.fp32_ms_per_query =
        MsSince(t0) / static_cast<double>(rounds * num_queries);
  }
  // Pool width matched to the clustered probe's default re-score pool so
  // the comparison isolates the scan, not the re-score budget.
  const std::size_t int8_pool = std::max<std::size_t>(2 * k, k + 64);
  std::vector<retrieval::ScoredEntity> hits;
  {
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < rounds; ++it)
      for (std::size_t i = 0; i < num_queries; ++i)
        base.TopKQuantizedInto(queries.row_data(i), k, int8_pool,
                               &flat_scratch, &hits);
    r.int8_ms_per_query =
        MsSince(t0) / static_cast<double>(rounds * num_queries);
  }
  if (n < retrieval::DenseIndex::kQuantizedDispatchMinRows) {
    // Below the crossover the int8 entry point must have answered with the
    // exact scan (the small-KB regression fix): bit-identical to fp32.
    bool same = true;
    for (std::size_t i = 0; i < num_queries; ++i) {
      base.TopKQuantizedInto(queries.row_data(i), k, int8_pool,
                             &flat_scratch, &hits);
      if (!SameHits(truth[i], hits)) same = false;
    }
    Gate(same, "int8 entry dispatches to exact below crossover");
  }

  // ---- Probe-all parity gate ------------------------------------------------
  retrieval::ClusteredScratch cscratch;
  {
    // Exact parity holds on the fp32 scan path (on a quantized base the
    // probe pools int8 candidates, and a bounded pool is allowed to miss),
    // so gate it on a dedicated fp32 index — capped at 4096 rows to keep
    // the check cheap at the million-entity scale.
    bool parity = true;
    retrieval::DenseIndex fp32_base;
    tensor::Tensor rows2 = MixtureEmbeddings(std::min<std::size_t>(n, 4096), d,
                                             components, 0.10f, 0xB0B0 + n,
                                             nullptr);
    const std::size_t n2 = rows2.rows();
    if (!fp32_base.Build(std::move(rows2), Iota(n2)).ok()) parity = false;
    retrieval::ClusteredIndex exact;
    if (parity && !exact.Build(fp32_base, {}, pool).ok()) parity = false;
    // PQ with a full re-score pool: every probed row survives to the exact
    // fp32 re-score, so probe-all must match the exhaustive scan too.
    bool pq_parity = parity;
    retrieval::ClusteredIndex pq_exact;
    {
      retrieval::ClusteredIndexOptions popts;
      popts.use_pq = true;
      popts.rescore_pool = n2;
      if (pq_parity && !pq_exact.Build(fp32_base, popts, pool).ok())
        pq_parity = false;
    }
    retrieval::TopKScratch ref_scratch;
    std::vector<retrieval::ScoredEntity> ref;
    for (std::size_t i = 0; i < num_queries && (parity || pq_parity); ++i) {
      fp32_base.TopKInto(queries.row_data(i), k, &ref_scratch, &ref);
      if (parity) {
        exact.TopKInto(queries.row_data(i), k, exact.num_clusters(),
                       &cscratch, &hits);
        parity = SameHits(ref, hits);
      }
      if (pq_parity) {
        pq_exact.TopKInto(queries.row_data(i), k, pq_exact.num_clusters(),
                          &cscratch, &hits);
        pq_parity = SameHits(ref, hits);
      }
    }
    Gate(parity, "probe-all == exhaustive fp32 (ids, scores, ties)");
    Gate(pq_parity, "pq probe-all full-pool == exhaustive fp32");
  }

  // ---- nprobe sweep ---------------------------------------------------------
  std::vector<std::size_t> nprobes = {1, 2, 4, 8, 16, 32, 64,
                                      r.default_nprobe, r.num_clusters};
  std::sort(nprobes.begin(), nprobes.end());
  nprobes.erase(std::unique(nprobes.begin(), nprobes.end()), nprobes.end());
  for (std::size_t np : nprobes) {
    if (np == 0 || np > r.num_clusters) continue;
    SweepPoint pt;
    pt.nprobe = np;
    double overlap = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < rounds; ++it)
      for (std::size_t i = 0; i < num_queries; ++i) {
        clustered.TopKInto(queries.row_data(i), k, np, &cscratch, &hits);
        if (it == 0) overlap += Overlap(truth[i], hits);
      }
    pt.ms_per_query = MsSince(t0) / static_cast<double>(rounds * num_queries);
    pt.recall = overlap / static_cast<double>(num_queries);
    r.sweep.push_back(pt);
    if (np == r.default_nprobe) {
      r.clustered_ms_per_query = pt.ms_per_query;
      r.recall_at_default = pt.recall;
    }
  }
  r.speedup_vs_int8 = r.clustered_ms_per_query > 0.0
                          ? r.int8_ms_per_query / r.clustered_ms_per_query
                          : 0.0;
  for (const SweepPoint& pt : r.sweep)
    if (pt.recall >= 0.98 &&
        (r.operating.nprobe == 0 ||
         pt.ms_per_query < r.operating.ms_per_query))
      r.operating = pt;
  if (r.operating.nprobe != 0 && r.operating.ms_per_query > 0.0)
    r.operating_speedup_vs_int8 =
        r.int8_ms_per_query / r.operating.ms_per_query;

  // ---- PQ nprobe sweep ------------------------------------------------------
  for (std::size_t np : nprobes) {
    if (np == 0 || np > r.num_clusters) continue;
    SweepPoint pt;
    pt.nprobe = np;
    double overlap = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < rounds; ++it)
      for (std::size_t i = 0; i < num_queries; ++i) {
        pq.TopKInto(queries.row_data(i), k, np, &cscratch, &hits);
        if (it == 0) overlap += Overlap(truth[i], hits);
      }
    pt.ms_per_query = MsSince(t0) / static_cast<double>(rounds * num_queries);
    pt.recall = overlap / static_cast<double>(num_queries);
    r.pq_sweep.push_back(pt);
    if (np == r.default_nprobe) {
      r.pq_ms_per_query = pt.ms_per_query;
      r.pq_recall_at_default = pt.recall;
    }
  }
  for (const SweepPoint& pt : r.pq_sweep)
    if (pt.recall >= 0.98 &&
        (r.pq_operating.nprobe == 0 ||
         pt.ms_per_query < r.pq_operating.ms_per_query))
      r.pq_operating = pt;
  Gate(r.pq_operating.nprobe != 0, "pq reaches R@64 >= 0.98 at some nprobe");

  // ---- KB-sharded index: bit-for-bit + timing -------------------------------
  {
    r.sharded_index_shards = 4;
    retrieval::ShardedIndex shards_fp32, shards_pq;
    retrieval::ShardedIndexScratch sh;
    bool same = true;
    if (!shards_fp32.Build(&clustered, r.sharded_index_shards).ok() ||
        !shards_pq.Build(&pq, r.sharded_index_shards).ok()) {
      same = false;
    }
    std::vector<retrieval::ScoredEntity> serial;
    for (std::size_t i = 0; i < num_queries && same; ++i) {
      clustered.TopKInto(queries.row_data(i), k, 0, &cscratch, &serial);
      shards_fp32.TopKInto(queries.row_data(i), k, 0, &sh, &hits);
      same = same && SameHits(serial, hits);
      shards_fp32.TopKParallel(queries.row_data(i), k, 0, pool, &sh, &hits);
      same = same && SameHits(serial, hits);
      pq.TopKInto(queries.row_data(i), k, 0, &cscratch, &serial);
      shards_pq.TopKInto(queries.row_data(i), k, 0, &sh, &hits);
      same = same && SameHits(serial, hits);
      shards_pq.TopKParallel(queries.row_data(i), k, 0, pool, &sh, &hits);
      same = same && SameHits(serial, hits);
    }
    Gate(same, "KB-sharded (4) == single index bit-for-bit");
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < rounds; ++it)
      for (std::size_t i = 0; i < num_queries; ++i)
        shards_pq.TopKParallel(queries.row_data(i), k, 0, pool, &sh, &hits);
    r.sharded_index_ms_per_query =
        MsSince(t0) / static_cast<double>(rounds * num_queries);
  }

  std::printf(
      "[%7zu x %zu]  build %8.1f ms  kc %4zu  nprobe %3zu  |  "
      "fp32 %8.3f  int8 %8.3f  clustered %8.3f ms/q  |  "
      "R@%zu %.4f  speedup_vs_int8 %.2fx\n",
      n, d, r.build_ms, r.num_clusters, r.default_nprobe,
      r.fp32_ms_per_query, r.int8_ms_per_query, r.clustered_ms_per_query, k,
      r.recall_at_default, r.speedup_vs_int8);
  std::printf("    operating point: nprobe %zu  R@%zu %.4f  %8.3f ms/q  "
              "speedup_vs_int8 %.2fx\n",
              r.operating.nprobe, k, r.operating.recall,
              r.operating.ms_per_query, r.operating_speedup_vs_int8);
  std::printf(
      "    pq: build %8.1f ms  M %zu  |  %8.3f ms/q  R@%zu %.4f @ default  "
      "|  op nprobe %zu  R %.4f  %8.3f ms/q  |  kb-sharded(4) %8.3f ms/q\n",
      r.pq_build_ms, pq.pq_m(), r.pq_ms_per_query, k, r.pq_recall_at_default,
      r.pq_operating.nprobe, r.pq_operating.recall,
      r.pq_operating.ms_per_query, r.sharded_index_ms_per_query);
  std::printf(
      "    bytes/entity: fp32 %.1f  int8 %.1f  pq_total %.2f  "
      "pq_marginal %.1f  (pq %.1f%% of int8)\n",
      r.fp32_bytes_per_entity, r.int8_bytes_per_entity, r.pq_bytes_per_entity,
      r.pq_code_bytes_per_entity,
      r.int8_bytes_per_entity > 0.0
          ? 100.0 * r.pq_bytes_per_entity / r.int8_bytes_per_entity
          : 0.0);
  for (const SweepPoint& pt : r.sweep)
    std::printf("    nprobe %4zu  R@%zu %.4f  %8.3f ms/q\n", pt.nprobe, k,
                pt.recall, pt.ms_per_query);
  for (const SweepPoint& pt : r.pq_sweep)
    std::printf("    pq nprobe %4zu  R@%zu %.4f  %8.3f ms/q\n", pt.nprobe, k,
                pt.recall, pt.ms_per_query);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool pq_smoke = false;
  std::string out_path = "BENCH_retrieval.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--pq-smoke") == 0) {
      smoke = true;
      pq_smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const std::size_t dim = smoke ? 32 : 64;
  std::vector<std::size_t> scales =
      smoke ? std::vector<std::size_t>{4000}
            : std::vector<std::size_t>{4000, 100000, 1000000};
  const std::size_t num_queries = smoke ? 16 : 32;
  util::ThreadPool pool;  // hardware concurrency

  std::printf("=== Clustered retrieval benchmark (dim %zu, %zu queries%s) "
              "===\n\n",
              dim, num_queries,
              pq_smoke ? ", pq-smoke" : (smoke ? ", smoke" : ""));

  std::vector<ScaleResult> results;
  for (std::size_t n : scales) {
    // Enough repetitions for a stable per-query time at small scales; one
    // pass at a million entities.
    const std::size_t rounds =
        std::max<std::size_t>(1, std::min<std::size_t>(20, 200000 / n));
    results.push_back(
        RunScale(n, dim, num_queries, rounds, &pool,
                 /*check_determinism=*/n == scales.front()));
    std::printf("\n");
  }

  // Headline gates: recall on every scale; the 5x-vs-int8 latency gate on
  // the 100k scale (full mode only — the smoke scale is too small for the
  // probe to amortize the centroid pass, and CI boxes are noisy).
  const ScaleResult* gate_scale = nullptr;
  for (const ScaleResult& r : results)
    if (r.entities == 100000) gate_scale = &r;
  for (const ScaleResult& r : results)
    Gate(r.recall_at_default >= 0.98,
         "R@64 >= 0.98 at default nprobe");
  if (gate_scale != nullptr)
    Gate(gate_scale->operating_speedup_vs_int8 >= 5.0,
         "clustered >= 5x exhaustive int8 @ 100k (R@64 >= 0.98)");
  // PQ memory gate: at 100k+ the shared codebooks amortize away and the
  // TOTAL PQ bytes/entity must undercut int8 by 4x. The latency guardrail
  // binds at the memory-bound 1M scale.
  for (const ScaleResult& r : results) {
    if (r.entities >= 100000)
      Gate(r.pq_bytes_per_entity <= 0.25 * r.int8_bytes_per_entity,
           "pq total bytes/entity <= 25% of int8 @ 100k+");
    if (r.entities >= 1000000)
      Gate(r.pq_operating.nprobe != 0 && r.operating.nprobe != 0 &&
               r.pq_operating.ms_per_query <=
                   1.5 * r.operating.ms_per_query,
           "pq operating ms/q <= 1.5x clustered operating @ 1M");
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"dim\": %zu, \"queries\": %zu, \"k\": %zu, "
               "\"smoke\": %s},\n",
               dim, num_queries, kTopK, smoke ? "true" : "false");
  std::fprintf(f, "  \"scales\": [\n");
  for (std::size_t s = 0; s < results.size(); ++s) {
    const ScaleResult& r = results[s];
    std::fprintf(f,
                 "    {\"entities\": %zu, \"num_clusters\": %zu, "
                 "\"default_nprobe\": %zu, \"build_ms\": %.1f,\n"
                 "     \"fp32_ms_per_query\": %.4f, "
                 "\"int8_ms_per_query\": %.4f, "
                 "\"clustered_ms_per_query\": %.4f,\n"
                 "     \"recall_at_64\": %.4f, \"speedup_vs_int8\": %.2f,\n"
                 "     \"operating_point\": {\"nprobe\": %zu, "
                 "\"recall\": %.4f, \"ms_per_query\": %.4f, "
                 "\"speedup_vs_int8\": %.2f},\n"
                 "     \"recall_vs_nprobe\": [",
                 r.entities, r.num_clusters, r.default_nprobe, r.build_ms,
                 r.fp32_ms_per_query, r.int8_ms_per_query,
                 r.clustered_ms_per_query, r.recall_at_default,
                 r.speedup_vs_int8, r.operating.nprobe, r.operating.recall,
                 r.operating.ms_per_query, r.operating_speedup_vs_int8);
    for (std::size_t i = 0; i < r.sweep.size(); ++i)
      std::fprintf(f, "%s{\"nprobe\": %zu, \"recall\": %.4f, "
                   "\"ms_per_query\": %.4f}",
                   i == 0 ? "" : ", ", r.sweep[i].nprobe, r.sweep[i].recall,
                   r.sweep[i].ms_per_query);
    std::fprintf(f,
                 "],\n     \"bytes_per_entity\": {\"fp32\": %.1f, "
                 "\"int8\": %.1f, \"pq_total\": %.3f, "
                 "\"pq_marginal\": %.1f},\n"
                 "     \"pq\": {\"build_ms\": %.1f, "
                 "\"ms_per_query\": %.4f, \"recall_at_64\": %.4f,\n"
                 "            \"operating_point\": {\"nprobe\": %zu, "
                 "\"recall\": %.4f, \"ms_per_query\": %.4f},\n"
                 "            \"recall_vs_nprobe\": [",
                 r.fp32_bytes_per_entity, r.int8_bytes_per_entity,
                 r.pq_bytes_per_entity, r.pq_code_bytes_per_entity,
                 r.pq_build_ms, r.pq_ms_per_query, r.pq_recall_at_default,
                 r.pq_operating.nprobe, r.pq_operating.recall,
                 r.pq_operating.ms_per_query);
    for (std::size_t i = 0; i < r.pq_sweep.size(); ++i)
      std::fprintf(f, "%s{\"nprobe\": %zu, \"recall\": %.4f, "
                   "\"ms_per_query\": %.4f}",
                   i == 0 ? "" : ", ", r.pq_sweep[i].nprobe,
                   r.pq_sweep[i].recall, r.pq_sweep[i].ms_per_query);
    std::fprintf(f,
                 "]},\n     \"sharded_index\": {\"num_shards\": %zu, "
                 "\"ms_per_query\": %.4f}}%s\n",
                 r.sharded_index_shards, r.sharded_index_ms_per_query,
                 s + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"gates_ok\": %s\n",
               bench::GatesOk() ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return bench::GatesOk() ? 0 : 1;
}
