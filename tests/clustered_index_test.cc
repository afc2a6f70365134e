#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <thread>

#include "retrieval/clustered_index.h"
#include "retrieval/dense_index.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace metablink::retrieval {
namespace {

tensor::Tensor RandomEmbeddings(std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t(n, d);
  for (float& v : t.data()) v = rng.NextFloat(-1, 1);
  return t;
}

// Mixture-of-Gaussians rows: `components` well-separated centers with
// isotropic noise. Uniform random data has no cluster structure for an IVF
// probe to exploit, so recall tests use this instead.
tensor::Tensor MixtureEmbeddings(std::size_t n, std::size_t d,
                                 std::size_t components, float noise,
                                 std::uint64_t seed,
                                 tensor::Tensor* centers_out = nullptr) {
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

void ExpectSameHits(const std::vector<ScoredEntity>& a,
                    const std::vector<ScoredEntity>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;  // bit-identical fp32
  }
}

TEST(ClusteredIndexTest, BuildValidatesInput) {
  DenseIndex base;
  ClusteredIndex clustered;
  EXPECT_FALSE(clustered.Build(base, {}).ok());  // unbuilt base
  ASSERT_TRUE(base.Build(RandomEmbeddings(50, 8, 1), Iota(50)).ok());
  EXPECT_TRUE(clustered.Build(base, {}).ok());
  EXPECT_TRUE(clustered.built());
  EXPECT_EQ(clustered.size(), 50u);
  EXPECT_EQ(clustered.dim(), 8u);
  EXPECT_EQ(clustered.num_clusters(), 7u);  // round(sqrt(50))
  EXPECT_GE(clustered.default_nprobe(), 1u);
  EXPECT_LE(clustered.default_nprobe(), clustered.num_clusters());
  // Every row lands in exactly one inverted list.
  EXPECT_EQ(clustered.list_entries().size(), 50u);
  EXPECT_EQ(clustered.list_offsets().front(), 0u);
  EXPECT_EQ(clustered.list_offsets().back(), 50u);
}

TEST(ClusteredIndexTest, ProbeAllMatchesExhaustiveExactly) {
  // With nprobe == num_clusters every row is visited, and both paths select
  // under the same (score desc, id asc) total order: ids AND scores must be
  // bit-identical to the exhaustive scan — including exact ties from
  // duplicated rows.
  const std::size_t n = 600, d = 16;
  tensor::Tensor emb = RandomEmbeddings(n, d, 2);
  for (std::size_t j = 0; j < d; ++j) {
    emb.at(1, j) = emb.at(0, j);    // duplicate rows -> exact score ties
    emb.at(300, j) = emb.at(0, j);
  }
  DenseIndex base;
  ASSERT_TRUE(base.Build(emb, Iota(n)).ok());
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, {}).ok());

  util::Rng rng(3);
  TopKScratch base_scratch;
  ClusteredScratch probe_scratch;
  std::vector<ScoredEntity> exact, probed;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> q(d);
    for (float& v : q) v = rng.NextFloat(-1, 1);
    base.TopKInto(q.data(), 33, &base_scratch, &exact);
    clustered.TopKInto(q.data(), 33, clustered.num_clusters(), &probe_scratch,
                       &probed);
    ExpectSameHits(exact, probed);
  }
}

TEST(ClusteredIndexTest, QuantizedProbeAllFullPoolMatchesExact) {
  // Int8 per-cell scan + full-size rescore pool + probe-all: the true top-k
  // cannot fall out of the pool, so the fp32-rescored result equals the
  // exhaustive fp32 scan exactly.
  const std::size_t n = 500, d = 24;
  DenseIndex base;
  ASSERT_TRUE(base.Build(RandomEmbeddings(n, d, 7), Iota(n)).ok());
  base.Quantize();
  ClusteredIndexOptions options;
  options.rescore_pool = n;
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, options).ok());

  util::Rng rng(8);
  TopKScratch base_scratch;
  ClusteredScratch probe_scratch;
  std::vector<ScoredEntity> exact, probed;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(d);
    for (float& v : q) v = rng.NextFloat(-1, 1);
    base.TopKInto(q.data(), 12, &base_scratch, &exact);
    clustered.TopKInto(q.data(), 12, clustered.num_clusters(), &probe_scratch,
                       &probed);
    ExpectSameHits(exact, probed);
  }
}

TEST(ClusteredIndexTest, RecallAt64AtDefaultNprobe) {
  // The acceptance gate in miniature: clustered data, default nprobe, R@64
  // overlap with the exhaustive top-64 must stay >= 0.98.
  const std::size_t n = 4000, d = 32, k = 64;
  tensor::Tensor centers;
  tensor::Tensor emb = MixtureEmbeddings(n, d, 16, 0.10f, 11, &centers);
  DenseIndex base;
  ASSERT_TRUE(base.Build(emb, Iota(n)).ok());
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, {}).ok());

  util::Rng rng(12);
  TopKScratch base_scratch;
  ClusteredScratch probe_scratch;
  std::vector<ScoredEntity> exact, probed;
  double overlap_sum = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<float> q(d);
    const std::size_t c = rng.NextUint64(centers.rows());
    for (std::size_t j = 0; j < d; ++j) {
      q[j] = centers.at(c, j) + 0.10f * static_cast<float>(rng.NextGaussian());
    }
    base.TopKInto(q.data(), k, &base_scratch, &exact);
    clustered.TopKInto(q.data(), k, /*nprobe=*/0, &probe_scratch, &probed);
    std::set<kb::EntityId> exact_ids;
    for (const auto& e : exact) exact_ids.insert(e.id);
    std::size_t overlap = 0;
    for (const auto& e : probed) overlap += exact_ids.count(e.id);
    overlap_sum += static_cast<double>(overlap) / static_cast<double>(k);
  }
  EXPECT_GE(overlap_sum / trials, 0.98);
}

TEST(ClusteredIndexTest, DeterministicBuildIsByteIdentical) {
  // Same seed, same rows -> byte-identical clustering, with or without a
  // thread pool (assignment is per-point independent; accumulation is a
  // serial point-order pass).
  const std::size_t n = 1200, d = 16;
  tensor::Tensor emb = MixtureEmbeddings(n, d, 10, 0.2f, 21);
  DenseIndex base;
  ASSERT_TRUE(base.Build(emb, Iota(n)).ok());

  util::ThreadPool pool(4);
  ClusteredIndexOptions options;
  options.seed = 99;
  ClusteredIndex serial, pooled;
  ASSERT_TRUE(serial.Build(base, options, nullptr).ok());
  ASSERT_TRUE(pooled.Build(base, options, &pool).ok());

  EXPECT_EQ(serial.list_offsets(), pooled.list_offsets());
  EXPECT_EQ(serial.list_entries(), pooled.list_entries());
  util::BinaryWriter wa, wb;
  serial.Save(&wa);
  pooled.Save(&wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());

  // A different seed draws different init rows -> a different clustering
  // (sanity check that the seed actually reaches the build).
  options.seed = 100;
  ClusteredIndex other;
  ASSERT_TRUE(other.Build(base, options).ok());
  util::BinaryWriter wc;
  other.Save(&wc);
  EXPECT_NE(wa.buffer(), wc.buffer());
}

TEST(ClusteredIndexTest, EdgeCaseKZeroAndKOversized) {
  DenseIndex base;
  ASSERT_TRUE(base.Build(RandomEmbeddings(40, 8, 51), Iota(40)).ok());
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, {}).ok());
  float q[8] = {1, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_TRUE(clustered.TopK(q, 0).empty());
  // Oversized k clamps to a full ranking of the probed rows (probe-all ->
  // every row, exactly once).
  auto all = clustered.TopK(q, 1000, clustered.num_clusters());
  ASSERT_EQ(all.size(), 40u);
  std::set<kb::EntityId> ids;
  for (const auto& hit : all) ids.insert(hit.id);
  EXPECT_EQ(ids.size(), 40u);
}

TEST(ClusteredIndexTest, SaveLoadRoundTripAndAttach) {
  const std::size_t n = 800, d = 16;
  DenseIndex base;
  ASSERT_TRUE(base.Build(MixtureEmbeddings(n, d, 8, 0.2f, 61), Iota(n)).ok());
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, {}).ok());

  const std::string path = "/tmp/metablink_clustered_index_test.ckpt";
  ASSERT_TRUE(clustered.SaveToFile(path).ok());
  ClusteredIndex restored;
  ASSERT_TRUE(restored.LoadFromFile(path, &base).ok());
  std::remove(path.c_str());

  EXPECT_EQ(restored.num_clusters(), clustered.num_clusters());
  EXPECT_EQ(restored.default_nprobe(), clustered.default_nprobe());
  EXPECT_EQ(restored.list_offsets(), clustered.list_offsets());
  EXPECT_EQ(restored.list_entries(), clustered.list_entries());

  util::Rng rng(62);
  ClusteredScratch sa, sb;
  std::vector<ScoredEntity> a, b;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<float> q(d);
    for (float& v : q) v = rng.NextFloat(-1, 1);
    clustered.TopKInto(q.data(), 10, 0, &sa, &a);
    restored.TopKInto(q.data(), 10, 0, &sb, &b);
    ExpectSameHits(a, b);
  }

  // Attach rejects a base whose shape does not match the clustering.
  DenseIndex wrong;
  ASSERT_TRUE(wrong.Build(RandomEmbeddings(10, d, 63), Iota(10)).ok());
  EXPECT_FALSE(restored.Attach(&wrong).ok());
  ASSERT_TRUE(restored.Attach(&base).ok());
}

TEST(ClusteredIndexTest, LoadSurvivesBitFlipsWithCleanStatus) {
  DenseIndex base;
  ASSERT_TRUE(base.Build(RandomEmbeddings(200, 8, 71), Iota(200)).ok());
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, {}).ok());
  const std::string path = "/tmp/metablink_clustered_corrupt_test.ckpt";
  ASSERT_TRUE(clustered.SaveToFile(path).ok());

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  // Flip one bit at positions spread across header, section table, and
  // payload: each corruption must surface as a clean non-OK Status (CRC,
  // magic, or shape validation), never a crash or a silently wrong index.
  for (std::size_t pos = 0; pos < bytes.size(); pos += bytes.size() / 23 + 1) {
    std::vector<char> corrupt = bytes;
    corrupt[pos] ^= 0x20;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    ClusteredIndex victim;
    EXPECT_FALSE(victim.LoadFromFile(path, &base).ok())
        << "bit flip at byte " << pos << " was not detected";
  }
  // Truncation is also a clean failure.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  ClusteredIndex victim;
  EXPECT_FALSE(victim.LoadFromFile(path, &base).ok());
  std::remove(path.c_str());
}

TEST(ClusteredIndexTest, LoadRejectsGarbage) {
  util::BinaryReader reader(std::vector<std::uint8_t>{9, 9, 9, 9});
  ClusteredIndex clustered;
  EXPECT_FALSE(clustered.Load(&reader).ok());
}

TEST(ClusteredIndexTest, ConcurrentQueryHammer) {
  // 8 threads hammer the same immutable index concurrently, each through
  // the probe with private scratch. Every thread checks its results
  // against precomputed serial answers; under TSan this doubles as the
  // data-race check for the probe path.
  const std::size_t n = 2000, d = 16, k = 12;
  DenseIndex base;
  ASSERT_TRUE(base.Build(MixtureEmbeddings(n, d, 8, 0.2f, 81), Iota(n)).ok());
  base.Quantize();
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, {}).ok());

  const std::size_t num_queries = 32;
  tensor::Tensor queries = RandomEmbeddings(num_queries, d, 82);
  std::vector<std::vector<ScoredEntity>> expected(num_queries);
  {
    ClusteredScratch scratch;
    for (std::size_t i = 0; i < num_queries; ++i) {
      clustered.TopKInto(queries.row_data(i), k, 0, &scratch, &expected[i]);
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      ClusteredScratch scratch;
      std::vector<ScoredEntity> hits;
      for (int round = 0; round < 25; ++round) {
        const std::size_t i = (t * 25 + round) % num_queries;
        clustered.TopKInto(queries.row_data(i), k, 0, &scratch, &hits);
        if (hits.size() != expected[i].size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t r = 0; r < hits.size(); ++r) {
          if (hits[r].id != expected[i][r].id ||
              hits[r].score != expected[i][r].score) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ClusteredIndexPqTest, BuildValidatesPqOptions) {
  DenseIndex base;
  ASSERT_TRUE(base.Build(RandomEmbeddings(100, 8, 91), Iota(100)).ok());
  ClusteredIndex clustered;
  ClusteredIndexOptions options;
  options.use_pq = true;
  options.pq_m = 0;
  EXPECT_FALSE(clustered.Build(base, options).ok());
  options.pq_m = 64;  // > dim clamps to dim
  ASSERT_TRUE(clustered.Build(base, options).ok());
  EXPECT_TRUE(clustered.pq_built());
  EXPECT_EQ(clustered.pq_m(), 8u);
  EXPECT_EQ(clustered.pq_codes().size(), 100u * 8u);
  EXPECT_EQ(clustered.pq_sub_offsets().front(), 0u);
  EXPECT_EQ(clustered.pq_sub_offsets().back(), 8u);
  EXPECT_GT(clustered.PqMemoryBytes(), 0u);
  // A PQ-free rebuild over the same base clears the PQ form.
  ASSERT_TRUE(clustered.Build(base, {}).ok());
  EXPECT_FALSE(clustered.pq_built());
  EXPECT_EQ(clustered.PqMemoryBytes(), 0u);
}

TEST(ClusteredIndexPqTest, PqProbeAllFullPoolMatchesExact) {
  // ADC scan + full-size rescore pool + probe-all: every row enters the
  // pool, so the fp32 re-score reproduces the exhaustive scan exactly —
  // including tie order from duplicated rows.
  const std::size_t n = 500, d = 24;
  tensor::Tensor emb = RandomEmbeddings(n, d, 101);
  for (std::size_t j = 0; j < d; ++j) {
    emb.at(1, j) = emb.at(0, j);
    emb.at(250, j) = emb.at(0, j);
  }
  DenseIndex base;
  ASSERT_TRUE(base.Build(emb, Iota(n)).ok());
  ClusteredIndexOptions options;
  options.use_pq = true;
  options.pq_m = 6;
  options.rescore_pool = n;
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, options).ok());
  ASSERT_TRUE(clustered.pq_built());

  util::Rng rng(102);
  TopKScratch base_scratch;
  ClusteredScratch probe_scratch;
  std::vector<ScoredEntity> exact, probed;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(d);
    for (float& v : q) v = rng.NextFloat(-1, 1);
    base.TopKInto(q.data(), 12, &base_scratch, &exact);
    clustered.TopKInto(q.data(), 12, clustered.num_clusters(), &probe_scratch,
                       &probed);
    ExpectSameHits(exact, probed);
  }
}

TEST(ClusteredIndexPqTest, PqRecallAt64AtDefaultNprobe) {
  // The PQ acceptance gate in miniature: clustered data, default nprobe and
  // pool, R@64 overlap with the exhaustive top-64 must stay >= 0.98.
  const std::size_t n = 4000, d = 32, k = 64;
  tensor::Tensor centers;
  tensor::Tensor emb = MixtureEmbeddings(n, d, 16, 0.10f, 111, &centers);
  DenseIndex base;
  ASSERT_TRUE(base.Build(emb, Iota(n)).ok());
  ClusteredIndexOptions options;
  options.use_pq = true;
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, options).ok());

  util::Rng rng(112);
  TopKScratch base_scratch;
  ClusteredScratch probe_scratch;
  std::vector<ScoredEntity> exact, probed;
  double overlap_sum = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<float> q(d);
    const std::size_t c = rng.NextUint64(centers.rows());
    for (std::size_t j = 0; j < d; ++j) {
      q[j] = centers.at(c, j) + 0.10f * static_cast<float>(rng.NextGaussian());
    }
    base.TopKInto(q.data(), k, &base_scratch, &exact);
    clustered.TopKInto(q.data(), k, /*nprobe=*/0, &probe_scratch, &probed);
    std::set<kb::EntityId> exact_ids;
    for (const auto& e : exact) exact_ids.insert(e.id);
    std::size_t overlap = 0;
    for (const auto& e : probed) overlap += exact_ids.count(e.id);
    overlap_sum += static_cast<double>(overlap) / static_cast<double>(k);
  }
  EXPECT_GE(overlap_sum / trials, 0.98);
}

TEST(ClusteredIndexPqTest, PqScanPrecedenceOverInt8) {
  // A PQ form on a quantized base must probe through ADC: quantizing the
  // base must not change a single hit of the PQ probe.
  const std::size_t n = 1500, d = 16;
  const tensor::Tensor emb = MixtureEmbeddings(n, d, 8, 0.2f, 121);
  DenseIndex base, fp32_base;
  ASSERT_TRUE(base.Build(emb, Iota(n)).ok());
  ASSERT_TRUE(fp32_base.Build(emb, Iota(n)).ok());
  base.Quantize();
  ClusteredIndexOptions options;
  options.use_pq = true;
  ClusteredIndex clustered, fp32_clustered;
  ASSERT_TRUE(clustered.Build(base, options).ok());
  ASSERT_TRUE(fp32_clustered.Build(fp32_base, options).ok());

  util::Rng rng(122);
  ClusteredScratch scratch;
  std::vector<ScoredEntity> hits, fp32_hits;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(d);
    for (float& v : q) v = rng.NextFloat(-1, 1);
    clustered.TopKInto(q.data(), 16, 0, &scratch, &hits);
    fp32_clustered.TopKInto(q.data(), 16, 0, &scratch, &fp32_hits);
    ExpectSameHits(fp32_hits, hits);
  }
}

TEST(ClusteredIndexPqTest, PqDeterministicBuildIsByteIdentical) {
  const std::size_t n = 1200, d = 16;
  tensor::Tensor emb = MixtureEmbeddings(n, d, 10, 0.2f, 131);
  DenseIndex base;
  ASSERT_TRUE(base.Build(emb, Iota(n)).ok());

  util::ThreadPool pool(4);
  ClusteredIndexOptions options;
  options.seed = 7;
  options.use_pq = true;
  ClusteredIndex serial, pooled;
  ASSERT_TRUE(serial.Build(base, options, nullptr).ok());
  ASSERT_TRUE(pooled.Build(base, options, &pool).ok());
  EXPECT_EQ(serial.pq_codes(), pooled.pq_codes());
  util::BinaryWriter wa, wb;
  serial.Save(&wa);
  pooled.Save(&wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(ClusteredIndexPqTest, DropPqRestoresPqFreeBytes) {
  // Save writes version 1 whenever no PQ form is present, so dropping the
  // PQ form of an artifact must reproduce a never-PQ build byte for byte —
  // the property FromBundle relies on for use_pq=false serving.
  const std::size_t n = 600, d = 16;
  DenseIndex base;
  ASSERT_TRUE(
      base.Build(MixtureEmbeddings(n, d, 8, 0.2f, 141), Iota(n)).ok());
  ClusteredIndex plain;
  ASSERT_TRUE(plain.Build(base, {}).ok());
  ClusteredIndexOptions options;
  options.use_pq = true;
  ClusteredIndex pq;
  ASSERT_TRUE(pq.Build(base, options).ok());
  ASSERT_TRUE(pq.pq_built());
  pq.DropPq();
  EXPECT_FALSE(pq.pq_built());
  util::BinaryWriter wa, wb;
  plain.Save(&wa);
  pq.Save(&wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(ClusteredIndexPqTest, PqSaveLoadRoundTripBitIdentity) {
  const std::size_t n = 800, d = 16;
  DenseIndex base;
  ASSERT_TRUE(
      base.Build(MixtureEmbeddings(n, d, 8, 0.2f, 151), Iota(n)).ok());
  ClusteredIndexOptions options;
  options.use_pq = true;
  options.pq_m = 4;
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, options).ok());

  const std::string path = "/tmp/metablink_clustered_pq_roundtrip.ckpt";
  ASSERT_TRUE(clustered.SaveToFile(path).ok());
  ClusteredIndex restored;
  ASSERT_TRUE(restored.LoadFromFile(path, &base).ok());
  std::remove(path.c_str());

  EXPECT_TRUE(restored.pq_built());
  EXPECT_EQ(restored.pq_m(), clustered.pq_m());
  EXPECT_EQ(restored.pq_kc(), clustered.pq_kc());
  EXPECT_EQ(restored.pq_codes(), clustered.pq_codes());
  EXPECT_EQ(restored.pq_codebooks(), clustered.pq_codebooks());
  // Re-saving the loaded index reproduces the original bytes exactly.
  util::BinaryWriter wa, wb;
  clustered.Save(&wa);
  restored.Save(&wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());

  util::Rng rng(152);
  ClusteredScratch sa, sb;
  std::vector<ScoredEntity> a, b;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<float> q(d);
    for (float& v : q) v = rng.NextFloat(-1, 1);
    clustered.TopKInto(q.data(), 10, 0, &sa, &a);
    restored.TopKInto(q.data(), 10, 0, &sb, &b);
    ExpectSameHits(a, b);
  }
}

TEST(ClusteredIndexPqTest, PqLoadSurvivesBitFlipsWithCleanStatus) {
  DenseIndex base;
  ASSERT_TRUE(base.Build(RandomEmbeddings(200, 8, 161), Iota(200)).ok());
  ClusteredIndexOptions options;
  options.use_pq = true;
  options.pq_m = 4;
  ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(base, options).ok());
  const std::string path = "/tmp/metablink_clustered_pq_corrupt.ckpt";
  ASSERT_TRUE(clustered.SaveToFile(path).ok());

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t pos = 0; pos < bytes.size(); pos += bytes.size() / 37 + 1) {
    std::vector<char> corrupt = bytes;
    corrupt[pos] ^= 0x10;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    ClusteredIndex victim;
    EXPECT_FALSE(victim.LoadFromFile(path, &base).ok())
        << "bit flip at byte " << pos << " was not detected";
  }
  std::remove(path.c_str());
}

// Handcrafted version-2 payloads: each corruption targets one PQ
// validation rule, so a payload that passes the container CRC but lies
// about its contents still fails with a clean Status.
struct PqPayloadTweaks {
  std::uint32_t pq_tag = 0x56495150u;  // "PQIV"
  std::uint64_t pq_m = 2;
  std::uint64_t pq_nbits = 8;
  std::uint64_t pq_kc = 2;
  std::vector<std::uint32_t> sub_offsets = {0, 1, 2};
  std::size_t codebook_floats = 256 * 2;
  float codebook_fill = 0.25f;
  std::vector<std::int8_t> codes = {0, 1, 1, 0, 0, 0, 1, 1};  // 4 rows × 2
};

std::vector<std::uint8_t> BuildPqPayload(const PqPayloadTweaks& t) {
  const std::size_t n = 4, d = 2, kc = 1;
  util::BinaryWriter w;
  w.WriteU32(0x46564943u);  // "CIVF"
  w.WriteU32(2);            // version with PQ block
  w.WriteU64(n);
  w.WriteU64(d);
  w.WriteU64(kc);
  w.WriteU64(1);  // default_nprobe
  w.WriteU64(0);  // rescore_pool
  w.WriteU64(0);  // seed
  w.WriteFloatVector(std::vector<float>{0.5f, 0.5f});      // centroids
  w.WriteFloatVector(std::vector<float>{0.25f});           // half norms
  w.WriteU32Vector(std::vector<std::uint32_t>{0, 4});      // offsets
  w.WriteU32Vector(std::vector<std::uint32_t>{0, 1, 2, 3});  // entries
  w.WriteU32(t.pq_tag);
  w.WriteU64(t.pq_m);
  w.WriteU64(t.pq_nbits);
  w.WriteU64(t.pq_kc);
  w.WriteU32Vector(t.sub_offsets);
  w.WriteFloatVector(std::vector<float>(t.codebook_floats, t.codebook_fill));
  w.WriteByteVector(t.codes);
  return w.buffer();
}

TEST(ClusteredIndexPqTest, LoadValidatesPqPayloadShapes) {
  {
    ClusteredIndex index;
    util::BinaryReader reader(BuildPqPayload(PqPayloadTweaks{}));
    ASSERT_TRUE(index.Load(&reader).ok());  // the baseline payload is valid
    EXPECT_TRUE(index.pq_built());
    EXPECT_EQ(index.pq_m(), 2u);
  }
  const auto expect_rejected = [](PqPayloadTweaks t, const char* what) {
    ClusteredIndex index;
    util::BinaryReader reader(BuildPqPayload(t));
    EXPECT_FALSE(index.Load(&reader).ok()) << what;
  };
  {
    PqPayloadTweaks t;
    t.pq_tag = 0x12345678u;
    expect_rejected(t, "wrong PQIV tag");
  }
  {
    PqPayloadTweaks t;
    t.pq_nbits = 4;
    expect_rejected(t, "unsupported code width");
  }
  {
    PqPayloadTweaks t;
    t.pq_kc = 0;
    expect_rejected(t, "zero codebook entries");
  }
  {
    PqPayloadTweaks t;
    t.pq_kc = 300;
    expect_rejected(t, "codebook entries over 256");
  }
  {
    PqPayloadTweaks t;
    t.pq_m = 3;  // > d
    expect_rejected(t, "more subspaces than dims");
  }
  {
    PqPayloadTweaks t;
    t.sub_offsets = {0, 1};  // wrong length for pq_m = 2
    expect_rejected(t, "subspace bound count");
  }
  {
    PqPayloadTweaks t;
    t.sub_offsets = {0, 2, 2};  // empty second subspace
    expect_rejected(t, "non-increasing subspace bounds");
  }
  {
    PqPayloadTweaks t;
    t.sub_offsets = {1, 1, 2};  // does not start at column 0
    expect_rejected(t, "subspace bounds not spanning [0, d)");
  }
  {
    PqPayloadTweaks t;
    t.codebook_floats = 256;  // half the required 256 * d
    expect_rejected(t, "codebook shape");
  }
  {
    PqPayloadTweaks t;
    t.codebook_fill = std::numeric_limits<float>::quiet_NaN();
    expect_rejected(t, "NaN codebook");
  }
  {
    PqPayloadTweaks t;
    t.codebook_fill = std::numeric_limits<float>::infinity();
    expect_rejected(t, "non-finite codebook");
  }
  {
    PqPayloadTweaks t;
    t.codes = {0, 1, 1, 0, 0, 0};  // 3 rows of codes for 4 entries
    expect_rejected(t, "code count");
  }
  {
    PqPayloadTweaks t;
    t.codes[3] = 2;  // >= pq_kc
    expect_rejected(t, "code out of range");
  }
  {
    // Version 2 without any PQ block at all: truncated stream.
    const std::size_t n = 4, d = 2, kc = 1;
    util::BinaryWriter w;
    w.WriteU32(0x46564943u);
    w.WriteU32(2);
    w.WriteU64(n);
    w.WriteU64(d);
    w.WriteU64(kc);
    w.WriteU64(1);
    w.WriteU64(0);
    w.WriteU64(0);
    w.WriteFloatVector(std::vector<float>{0.5f, 0.5f});
    w.WriteFloatVector(std::vector<float>{0.25f});
    w.WriteU32Vector(std::vector<std::uint32_t>{0, 4});
    w.WriteU32Vector(std::vector<std::uint32_t>{0, 1, 2, 3});
    ClusteredIndex index;
    util::BinaryReader reader(w.buffer());
    EXPECT_FALSE(index.Load(&reader).ok()) << "missing PQ block";
  }
}

}  // namespace
}  // namespace metablink::retrieval
