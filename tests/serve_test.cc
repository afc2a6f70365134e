#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/few_shot_linker.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "serve/linking_server.h"
#include "store/model_bundle.h"

namespace metablink::serve {
namespace {

core::PipelineConfig TestConfig() {
  core::PipelineConfig config;
  config.seed = 4242;
  config.bi.features.hasher.num_buckets = 4096;
  config.bi.dim = 32;
  config.cross.features.hasher.num_buckets = 4096;
  config.cross.dim = 32;
  config.cross.hidden = 32;
  config.meta_bi.steps = 80;
  config.meta_cross.steps = 30;
  config.eval.k = 16;
  config.eval.num_threads = 2;
  return config;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 77;
    opts.shared_vocab_size = 400;
    opts.domain_vocab_size = 200;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(2);
    specs[0].name = "source";
    specs[0].num_entities = 80;
    specs[0].num_examples = 200;
    specs[1].name = "target";
    specs[1].num_entities = 120;
    specs[1].num_examples = 240;
    specs[1].num_documents = 200;
    specs[1].gap = 0.5;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
    split_ = data::MakeFewShotSplit(corpus_->ExamplesIn("target"), 40, 40, 3);
    // Randomly initialized (untrained) encoders: parity and serving-path
    // behavior do not depend on trained weights.
    pipeline_ = std::make_unique<core::MetaBlinkPipeline>(TestConfig());
  }

  /// Packages one pipeline's components as an artifact bundle under `dir`.
  /// `with_pq` ships the clustered artifact in its PQ form; `num_shards`
  /// is recorded in the manifest (0 = unsharded).
  void SaveBundle(const core::MetaBlinkPipeline& pipeline,
                  const std::string& dir, std::uint64_t version,
                  bool with_clustered = false, bool with_pq = false,
                  std::uint32_t num_shards = 0) {
    const auto& ids = corpus_->kb.EntitiesInDomain("target");
    retrieval::DenseIndex index;
    ASSERT_TRUE(index
                    .Build(pipeline.bi_encoder()->EmbedEntityIds(
                               ids, corpus_->kb),
                           ids)
                    .ok());
    std::vector<kb::Entity> entities;
    for (kb::EntityId id : ids) entities.push_back(corpus_->kb.entity(id));
    model::CrossEntityCache cache;
    pipeline.cross_encoder()->PrecomputeEntities(entities, &cache);
    store::ModelBundleParts parts;
    parts.model_version = version;
    parts.domain = "target";
    parts.bi = pipeline.bi_encoder();
    parts.cross = pipeline.cross_encoder();
    parts.kb = &corpus_->kb;
    parts.index = &index;
    parts.rerank_cache = &cache;
    retrieval::ClusteredIndex clustered;
    if (with_clustered) {
      retrieval::ClusteredIndexOptions copts;
      copts.use_pq = with_pq;
      ASSERT_TRUE(clustered.Build(index, copts).ok());
      parts.clustered = &clustered;
    }
    parts.num_shards = num_shards;
    ASSERT_TRUE(store::SaveModelBundle(parts, dir).ok());
  }

  /// Asserts both servers answer the first `n` test probes identically:
  /// same entities, bit-identical fp32 scores.
  void ExpectSameServing(LinkingServer* a, LinkingServer* b,
                         std::size_t n = 5) {
    for (std::size_t e = 0; e < n; ++e) {
      const auto& ex = split_.test[e];
      auto ra = a->Link(ex.mention, ex.left_context, ex.right_context, 5);
      auto rb = b->Link(ex.mention, ex.left_context, ex.right_context, 5);
      ASSERT_TRUE(ra.ok() && rb.ok());
      ASSERT_EQ(ra->size(), rb->size()) << "probe " << e;
      for (std::size_t i = 0; i < ra->size(); ++i) {
        EXPECT_EQ((*ra)[i].entity_id, (*rb)[i].entity_id)
            << "probe " << e << " rank " << i;
        EXPECT_EQ((*ra)[i].score, (*rb)[i].score)
            << "probe " << e << " rank " << i;
      }
    }
  }

  std::unique_ptr<data::Corpus> corpus_;
  data::DomainSplit split_;
  std::unique_ptr<core::MetaBlinkPipeline> pipeline_;
};

// ---- Tape vs tape-free parity ----------------------------------------------

TEST_F(ServeTest, TapeFreeMentionEncodeMatchesTape) {
  const model::BiEncoder* bi = pipeline_->bi_encoder();
  const std::vector<data::LinkingExample> batch(split_.test.begin(),
                                                split_.test.begin() + 20);
  tensor::Tensor tape = bi->EmbedMentions(batch);
  model::EncodeScratch scratch;
  tensor::Tensor free;
  bi->EncodeMentionsInference(batch, &scratch, &free);
  ASSERT_EQ(free.rows(), tape.rows());
  ASSERT_EQ(free.cols(), tape.cols());
  for (std::size_t i = 0; i < tape.rows(); ++i) {
    for (std::size_t j = 0; j < tape.cols(); ++j) {
      EXPECT_EQ(tape.at(i, j), free.at(i, j))
          << "mention row " << i << " col " << j;
    }
  }
  // Scratch reuse across differently-sized batches stays correct.
  const std::vector<data::LinkingExample> one(split_.test.begin(),
                                              split_.test.begin() + 1);
  tensor::Tensor tape1 = bi->EmbedMentions(one);
  bi->EncodeMentionsInference(one, &scratch, &free);
  ASSERT_EQ(free.rows(), 1u);
  for (std::size_t j = 0; j < tape1.cols(); ++j) {
    EXPECT_EQ(tape1.at(0, j), free.at(0, j));
  }
}

TEST_F(ServeTest, TapeFreeEntityEncodeMatchesTape) {
  const model::BiEncoder* bi = pipeline_->bi_encoder();
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  std::vector<kb::EntityId> some(ids.begin(), ids.begin() + 30);
  tensor::Tensor tape = bi->EmbedEntityIds(some, corpus_->kb);
  std::vector<kb::Entity> entities;
  for (kb::EntityId id : some) entities.push_back(corpus_->kb.entity(id));
  model::EncodeScratch scratch;
  tensor::Tensor free;
  bi->EncodeEntitiesInference(entities, &scratch, &free);
  ASSERT_EQ(free.rows(), tape.rows());
  for (std::size_t i = 0; i < tape.rows(); ++i) {
    for (std::size_t j = 0; j < tape.cols(); ++j) {
      EXPECT_EQ(tape.at(i, j), free.at(i, j));
    }
  }
}

TEST_F(ServeTest, TapeFreeCrossScoreMatchesTape) {
  const model::CrossEncoder* cross = pipeline_->cross_encoder();
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  std::vector<kb::Entity> candidates;
  for (std::size_t i = 0; i < 16; ++i) {
    candidates.push_back(corpus_->kb.entity(ids[i]));
  }
  model::CrossScoreScratch scratch;
  std::vector<float> free_scores;
  for (std::size_t e = 0; e < 10; ++e) {
    const auto& ex = split_.test[e];
    const std::vector<float> tape_scores = cross->Score(ex, candidates);
    cross->ScoreInference(ex, candidates, &scratch, &free_scores);
    ASSERT_EQ(free_scores.size(), tape_scores.size());
    for (std::size_t c = 0; c < tape_scores.size(); ++c) {
      EXPECT_EQ(tape_scores[c], free_scores[c]) << "example " << e
                                                << " candidate " << c;
    }
  }
}

// ---- LinkingServer ---------------------------------------------------------

TEST_F(ServeTest, ServerMatchesPipelineLink) {
  ServerOptions opts;
  opts.retrieve_k = 16;  // same stage-1 k as the pipeline's eval config
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  for (std::size_t e = 0; e < 5; ++e) {
    const auto& ex = split_.test[e];
    auto got = (*server)->Link(ex.mention, ex.left_context, ex.right_context,
                               /*top_k=*/5);
    ASSERT_TRUE(got.ok());
    data::LinkingExample probe = ex;
    probe.entity_id = kb::kInvalidEntityId;
    auto want = pipeline_->Link(corpus_->kb, "target", probe, 5);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->size(), want->size());
    for (std::size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].entity_id, (*want)[i].id);
      EXPECT_NEAR((*got)[i].score, (*want)[i].score, 1e-6);
    }
  }
}

TEST_F(ServeTest, ClusteredServerProbeAllMatchesFp32Server) {
  // With nprobe clamped up to num_clusters the probe path visits every row,
  // so a clustered server's responses are bit-identical to the exhaustive
  // server's — the serving-level form of the probe-all parity invariant.
  ServerOptions plain;
  plain.retrieve_k = 16;
  ServerOptions ivf = plain;
  ivf.use_clustered = true;
  ivf.nprobe = 1u << 20;  // clamps to num_clusters: probe-all
  auto a = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", plain);
  auto b = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", ivf);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t e = 0; e < 5; ++e) {
    const auto& ex = split_.test[e];
    auto ra = (*a)->Link(ex.mention, ex.left_context, ex.right_context, 5);
    auto rb = (*b)->Link(ex.mention, ex.left_context, ex.right_context, 5);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(ra->size(), rb->size());
    for (std::size_t i = 0; i < ra->size(); ++i) {
      EXPECT_EQ((*ra)[i].entity_id, (*rb)[i].entity_id);
      EXPECT_EQ((*ra)[i].score, (*rb)[i].score);
    }
  }
  // At the default nprobe the clustered server still answers every request
  // (recall quality is gated in bench_retrieval, not here).
  ServerOptions probe = plain;
  probe.use_clustered = true;
  auto c = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", probe);
  ASSERT_TRUE(c.ok());
  const auto& ex = split_.test[0];
  auto rc = (*c)->Link(ex.mention, ex.left_context, ex.right_context, 5);
  ASSERT_TRUE(rc.ok());
  EXPECT_FALSE(rc->empty());
}

TEST_F(ServeTest, ClusteredBundleRoundTripServes) {
  // A bundle shipping the "clustered" artifact serves through the adopted
  // clustering (re-attached after the bundle move) and, at probe-all,
  // matches a plain server loaded from the same weights.
  const std::string dir = "/tmp/metablink_serve_clustered_bundle";
  SaveBundle(*pipeline_, dir, /*version=*/9, /*with_clustered=*/true);
  ServerOptions plain;
  plain.retrieve_k = 16;
  ServerOptions ivf = plain;
  ivf.use_clustered = true;
  ivf.nprobe = 1u << 20;
  auto a = LinkingServer::FromBundle(dir, plain);
  auto b = LinkingServer::FromBundle(dir, ivf);
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok()) << b.status().message();
  EXPECT_EQ((*b)->Stats().model_version, 9u);
  for (std::size_t e = 0; e < 5; ++e) {
    const auto& ex = split_.test[e];
    auto ra = (*a)->Link(ex.mention, ex.left_context, ex.right_context, 5);
    auto rb = (*b)->Link(ex.mention, ex.left_context, ex.right_context, 5);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(ra->size(), rb->size());
    for (std::size_t i = 0; i < ra->size(); ++i) {
      EXPECT_EQ((*ra)[i].entity_id, (*rb)[i].entity_id);
      EXPECT_EQ((*ra)[i].score, (*rb)[i].score);
    }
  }
}

TEST_F(ServeTest, ShardedServerMatchesSingleIndexServer) {
  // num_shards splits the probe path into contiguous entity slices scanned
  // in parallel; the deterministic re-offer merge keeps every response
  // bit-identical to the single-index server at equal nprobe. Sharding is
  // a memory/parallelism knob, never a quality knob — for both the fp32
  // clustered scan and the PQ scan.
  ServerOptions single;
  single.retrieve_k = 16;
  single.use_clustered = true;
  ServerOptions sharded = single;
  sharded.num_shards = 4;
  auto a = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", single);
  auto b = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", sharded);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->Stats().num_shards, 1u);
  EXPECT_EQ((*b)->Stats().num_shards, 4u);
  ExpectSameServing((*a).get(), (*b).get());

  ServerOptions pq_single = single;
  pq_single.use_pq = true;
  ServerOptions pq_sharded = pq_single;
  pq_sharded.num_shards = 4;
  auto c = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", pq_single);
  auto d = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", pq_sharded);
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_TRUE((*c)->Stats().pq_active);
  EXPECT_EQ((*d)->Stats().num_shards, 4u);
  ExpectSameServing((*c).get(), (*d).get());
}

TEST_F(ServeTest, PqBundleAdoptionAndPqFreeServing) {
  // A bundle shipping the PQ form of the clustered artifact is adopted
  // as-is under use_pq (no retrain); the test KB is small enough that the
  // rescore pool covers the whole domain, so probe-all PQ serving is
  // bit-identical to the exhaustive server. The same bundle served with
  // use_pq=false drops the shipped PQ form and matches a server built from
  // a PQ-free clustered bundle, byte for byte.
  const std::string pq_dir = ::testing::TempDir() + "metablink_serve_pq";
  const std::string ivf_dir = ::testing::TempDir() + "metablink_serve_ivf";
  SaveBundle(*pipeline_, pq_dir, /*version=*/12, /*with_clustered=*/true,
             /*with_pq=*/true);
  SaveBundle(*pipeline_, ivf_dir, /*version=*/12, /*with_clustered=*/true);

  ServerOptions plain;
  plain.retrieve_k = 16;
  ServerOptions pq = plain;
  pq.use_pq = true;
  pq.nprobe = 1u << 20;  // clamps to num_clusters: probe-all
  auto exhaustive = LinkingServer::FromBundle(pq_dir, plain);
  auto adopted = LinkingServer::FromBundle(pq_dir, pq);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().message();
  ASSERT_TRUE(adopted.ok()) << adopted.status().message();
  EXPECT_TRUE((*adopted)->Stats().pq_active);
  EXPECT_FALSE((*exhaustive)->Stats().pq_active);
  ExpectSameServing((*exhaustive).get(), (*adopted).get());

  ServerOptions ivf = plain;
  ivf.use_clustered = true;
  auto dropped = LinkingServer::FromBundle(pq_dir, ivf);
  auto pq_free = LinkingServer::FromBundle(ivf_dir, ivf);
  ASSERT_TRUE(dropped.ok() && pq_free.ok());
  EXPECT_FALSE((*dropped)->Stats().pq_active);
  ExpectSameServing((*dropped).get(), (*pq_free).get());

  // use_pq against a bundle whose clustered artifact has no PQ codes:
  // the server rebuilds the PQ index instead of adopting, and still serves.
  auto rebuilt = LinkingServer::FromBundle(ivf_dir, pq);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  EXPECT_TRUE((*rebuilt)->Stats().pq_active);
  ExpectSameServing((*exhaustive).get(), (*rebuilt).get());
}

TEST_F(ServeTest, ManifestShardCountAdoptedAndOverridable) {
  // A bundle saved with num_shards=4 shards the serving epoch by default;
  // ServerOptions::num_shards=1 overrides the manifest back to a single
  // index. Both serve bit-identically.
  const std::string dir = ::testing::TempDir() + "metablink_serve_manifest4";
  SaveBundle(*pipeline_, dir, /*version=*/13, /*with_clustered=*/true,
             /*with_pq=*/false, /*num_shards=*/4);
  ServerOptions ivf;
  ivf.retrieve_k = 16;
  ivf.use_clustered = true;  // num_shards=0: adopt the manifest count
  ServerOptions forced = ivf;
  forced.num_shards = 1;
  auto sharded = LinkingServer::FromBundle(dir, ivf);
  auto single = LinkingServer::FromBundle(dir, forced);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  ASSERT_TRUE(single.ok()) << single.status().message();
  EXPECT_EQ((*sharded)->Stats().num_shards, 4u);
  EXPECT_EQ((*single)->Stats().num_shards, 1u);
  ExpectSameServing((*sharded).get(), (*single).get());
}

TEST_F(ServeTest, ServerCachesRepeatedRequests) {
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.cache_capacity = 64;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  const auto& ex = split_.test.front();
  auto first = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  auto second = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].entity_id, (*second)[i].entity_id);
    EXPECT_EQ((*first)[i].score, (*second)[i].score);
  }
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 2u);
}

TEST_F(ServeTest, EightThreadHammer) {
  // The acceptance test for the scheduler: 8 concurrent client threads,
  // repeated mentions (exercises the LRU), every request answered, and
  // identical mentions get identical answers. Run under
  // METABLINK_SANITIZE=thread this vets the queue/stats/scratch locking.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.max_batch = 8;
  opts.flush_deadline_us = 200;
  opts.cache_capacity = 32;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20;
  std::atomic<std::size_t> failures{0};
  std::vector<std::vector<kb::EntityId>> best(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        // A small rotating pool of distinct mentions shared across threads.
        const auto& ex = split_.test[(t + 3 * r) % 10];
        auto got =
            (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3);
        if (!got.ok() || got->empty()) {
          failures.fetch_add(1);
          continue;
        }
        best[t].push_back((*got)[0].entity_id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);

  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_EQ((*server)->LatenciesMs().size(), kThreads * kPerThread);

  // Determinism across threads: the same probe index always links to the
  // same top entity.
  std::vector<kb::EntityId> canonical(10, kb::kInvalidEntityId);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(best[t].size(), kPerThread);
    for (std::size_t r = 0; r < kPerThread; ++r) {
      const std::size_t probe = (t + 3 * r) % 10;
      if (canonical[probe] == kb::kInvalidEntityId) {
        canonical[probe] = best[t][r];
      }
      EXPECT_EQ(best[t][r], canonical[probe]);
    }
  }
}

// ---- Admission control & backpressure --------------------------------------

TEST_F(ServeTest, BoundedQueueRejectNewIsDeterministic) {
  // A scheduler that cannot flush (huge batch, far-off deadline) lets the
  // test fill the queue to exactly max_queue, making the admission
  // decision deterministic: the next Link must be rejected.
  ServerOptions opts;
  opts.retrieve_k = 4;
  opts.max_batch = 64;
  opts.flush_deadline_us = 10'000'000;  // drained at shutdown, not by timer
  opts.max_queue = 3;
  opts.shed_policy = LoadShedPolicy::kRejectNew;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());

  std::vector<std::thread> clients;
  std::atomic<std::size_t> ok_count{0};
  for (std::size_t i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      const auto& ex = split_.test[i];
      auto got =
          (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3);
      if (got.ok()) ok_count.fetch_add(1);
    });
    // Admit strictly one at a time so the fill order is known.
    while ((*server)->Stats().queue_depth < i + 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const auto& extra = split_.test[5];
  auto refused = (*server)->Link(extra.mention, extra.left_context,
                                 extra.right_context, 3);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kUnavailable);

  const ServerStats before = (*server)->Stats();
  EXPECT_EQ(before.accepted, 3u);
  EXPECT_EQ(before.rejected, 1u);
  EXPECT_EQ(before.shed, 0u);
  EXPECT_EQ(before.queue_depth, 3u);
  EXPECT_EQ(before.queue_depth_high_water, 3u);
  EXPECT_EQ(before.in_flight, 0u);
  EXPECT_EQ(before.requests, 0u);
  EXPECT_GT(before.oldest_wait_us, 0.0);

  // Shutdown drains the queue: every admitted request still completes.
  server->reset();
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_count.load(), 3u);
}

TEST_F(ServeTest, BoundedQueueDropOldestShedsTheOldest) {
  ServerOptions opts;
  opts.retrieve_k = 4;
  opts.max_batch = 64;
  opts.flush_deadline_us = 10'000'000;
  opts.max_queue = 3;
  opts.shed_policy = LoadShedPolicy::kDropOldest;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());

  std::vector<std::thread> clients;
  std::vector<util::Status> statuses(4, util::Status::OK());
  for (std::size_t i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      const auto& ex = split_.test[i];
      auto got =
          (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3);
      statuses[i] = got.status();
    });
    if (i < 3) {
      while ((*server)->Stats().queue_depth < i + 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  // The fourth arrival evicted the first-enqueued request, which completes
  // with kUnavailable immediately — before any batch runs.
  clients[0].join();
  EXPECT_EQ(statuses[0].code(), util::StatusCode::kUnavailable);

  const ServerStats before = (*server)->Stats();
  EXPECT_EQ(before.accepted, 4u);
  EXPECT_EQ(before.rejected, 0u);
  EXPECT_EQ(before.shed, 1u);
  EXPECT_EQ(before.queue_depth, 3u);
  EXPECT_EQ(before.requests, 0u);

  server->reset();
  for (std::size_t i = 1; i < 4; ++i) {
    clients[i].join();
    EXPECT_TRUE(statuses[i].ok()) << "client " << i << ": " << statuses[i];
  }
}

TEST_F(ServeTest, UnboundedAdmissionPathIsByteIdentical) {
  // max_queue=0 must serve exactly like a bound that never triggers: the
  // admission bookkeeping cannot perturb responses.
  ServerOptions unbounded;
  unbounded.retrieve_k = 8;
  ServerOptions bounded = unbounded;
  bounded.max_queue = std::size_t{1} << 20;
  auto a = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", unbounded);
  auto b = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", bounded);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameServing(a->get(), b->get(), 8);
  const ServerStats sa = (*a)->Stats();
  const ServerStats sb = (*b)->Stats();
  for (const ServerStats* s : {&sa, &sb}) {
    EXPECT_EQ(s->accepted, 8u);
    EXPECT_EQ(s->rejected, 0u);
    EXPECT_EQ(s->shed, 0u);
    EXPECT_EQ(s->requests, 8u);
    EXPECT_EQ(s->queue_depth, 0u);
    EXPECT_EQ(s->in_flight, 0u);
  }
}

TEST_F(ServeTest, OverloadHammerStatsReconcile) {
  // 8 threads hammer a 2-deep queue served one request at a time, so
  // shedding fires constantly. Under METABLINK_SANITIZE=thread this vets
  // the admission path's locking; in every build the books must balance:
  // every attempt is accepted or rejected, every accepted request is
  // completed or shed, and the caller-visible outcomes match the counters
  // exactly.
  for (const LoadShedPolicy policy :
       {LoadShedPolicy::kRejectNew, LoadShedPolicy::kDropOldest}) {
    ServerOptions opts;
    opts.retrieve_k = 4;
    opts.max_batch = 1;
    opts.flush_deadline_us = 0;
    opts.max_queue = 2;
    opts.shed_policy = policy;
    opts.cache_capacity = 16;
    auto server = LinkingServer::Create(pipeline_->bi_encoder(),
                                        pipeline_->cross_encoder(),
                                        &corpus_->kb, "target", opts);
    ASSERT_TRUE(server.ok());

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 25;
    std::atomic<std::size_t> ok_count{0};
    std::atomic<std::size_t> unavailable{0};
    std::atomic<std::size_t> other{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t r = 0; r < kPerThread; ++r) {
          const auto& ex = split_.test[(t + 3 * r) % 10];
          auto got = (*server)->Link(ex.mention, ex.left_context,
                                     ex.right_context, 3);
          if (got.ok()) {
            ok_count.fetch_add(1);
          } else if (got.status().code() == util::StatusCode::kUnavailable) {
            unavailable.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    const ServerStats stats = (*server)->Stats();
    EXPECT_EQ(other.load(), 0u);
    EXPECT_EQ(stats.accepted + stats.rejected, kThreads * kPerThread);
    EXPECT_EQ(stats.accepted, stats.requests + stats.shed);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(ok_count.load(), stats.requests);
    EXPECT_EQ(unavailable.load(), stats.rejected + stats.shed);
    EXPECT_EQ(stats.rerank_exited + stats.rerank_distilled + stats.rerank_full,
              stats.requests);
    EXPECT_LE(stats.queue_depth_high_water, opts.max_queue);
    // The whole point of the bound: overload actually shed something.
    EXPECT_GT(stats.rejected + stats.shed, 0u);
    if (policy == LoadShedPolicy::kRejectNew) {
      EXPECT_EQ(stats.shed, 0u);
    } else {
      EXPECT_EQ(stats.rejected, 0u);
    }
  }
}

TEST_F(ServeTest, CreateValidatesInputs) {
  EXPECT_FALSE(LinkingServer::Create(nullptr, pipeline_->cross_encoder(),
                                     &corpus_->kb, "target")
                   .ok());
  auto missing =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "no_such_domain");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST_F(ServeTest, FromLinkerRequiresFit) {
  core::FewShotLinker linker(TestConfig());
  auto server = LinkingServer::FromLinker(linker);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), util::StatusCode::kFailedPrecondition);
}

// ---- Fitted-linker integration: edge cases + concurrent const Link ---------

TEST_F(ServeTest, FittedLinkerEdgeCasesAndConcurrentLink) {
  core::FewShotLinker linker(TestConfig());
  ASSERT_TRUE(
      linker.Fit(*corpus_, {"source"}, "target", split_.train).ok());

  // top_k far beyond the KB clamps to the stage-1 candidate count.
  const auto& probe = split_.test.front();
  auto big = linker.Link(probe.mention, probe.left_context,
                         probe.right_context, 100000);
  ASSERT_TRUE(big.ok());
  EXPECT_LE(big->size(),
            corpus_->kb.EntitiesInDomain("target").size());
  EXPECT_GT(big->size(), 0u);

  // Empty mention / empty context: no features on one side is still a
  // servable request, not a crash.
  auto no_mention = linker.Link("", probe.left_context, probe.right_context);
  ASSERT_TRUE(no_mention.ok());
  EXPECT_GT(no_mention->size(), 0u);
  auto no_context = linker.Link(probe.mention, "", "");
  ASSERT_TRUE(no_context.ok());
  EXPECT_GT(no_context->size(), 0u);

  // Concurrent const Link on the shared linker: 8 threads hammering the
  // same fitted instance (TSan-checked in the sanitizer matrix).
  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  const core::FewShotLinker& shared = linker;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < 4; ++r) {
        const auto& ex = split_.test[(t + r) % split_.test.size()];
        auto got = shared.Link(ex.mention, ex.left_context, ex.right_context);
        if (!got.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);

  // FromLinker serves the same answers the linker computes directly (same
  // stage-1 k so both rerank the same candidate set): both run the same
  // tape-free kernels over core::BuildDomainIndex output, so scores match
  // exactly.
  ServerOptions opts;
  opts.retrieve_k = TestConfig().eval.k;
  auto server = LinkingServer::FromLinker(linker, opts);
  ASSERT_TRUE(server.ok());
  auto direct = linker.Link(probe.mention, probe.left_context,
                            probe.right_context, 5);
  auto served = (*server)->Link(probe.mention, probe.left_context,
                                probe.right_context, 5);
  ASSERT_TRUE(direct.ok() && served.ok());
  ASSERT_EQ(direct->size(), served->size());
  for (std::size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*direct)[i].entity_id, (*served)[i].entity_id);
    EXPECT_EQ((*direct)[i].score, (*served)[i].score);
  }
}

// ---- Bundles & hot swap ----------------------------------------------------

TEST_F(ServeTest, FromBundleMatchesCreate) {
  const std::string dir = ::testing::TempDir() + "metablink_serve_bundle_a";
  SaveBundle(*pipeline_, dir, /*version=*/11);
  ServerOptions opts;
  opts.retrieve_k = 16;
  auto from_bundle = LinkingServer::FromBundle(dir, opts);
  ASSERT_TRUE(from_bundle.ok()) << from_bundle.status().message();
  auto direct =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*from_bundle)->index_size(), (*direct)->index_size());
  EXPECT_EQ((*from_bundle)->Stats().model_version, 11u);
  EXPECT_EQ((*direct)->Stats().model_version, 0u);
  for (std::size_t e = 0; e < 5; ++e) {
    const auto& ex = split_.test[e];
    auto a = (*from_bundle)->Link(ex.mention, ex.left_context,
                                  ex.right_context, 5);
    auto b = (*direct)->Link(ex.mention, ex.left_context, ex.right_context, 5);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].entity_id, (*b)[i].entity_id);
      EXPECT_EQ((*a)[i].score, (*b)[i].score);
      EXPECT_EQ((*a)[i].title, (*b)[i].title);
    }
  }
}

TEST_F(ServeTest, SwapModelServesTheNewModel) {
  // Two differently-initialized models over the same KB.
  core::PipelineConfig other_config = TestConfig();
  other_config.seed = 999;
  core::MetaBlinkPipeline other(other_config);
  const std::string dir_a = ::testing::TempDir() + "metablink_serve_swap_a";
  const std::string dir_b = ::testing::TempDir() + "metablink_serve_swap_b";
  SaveBundle(*pipeline_, dir_a, /*version=*/1);
  SaveBundle(other, dir_b, /*version=*/2);

  ServerOptions opts;
  opts.retrieve_k = 16;
  auto server = LinkingServer::FromBundle(dir_a, opts);
  ASSERT_TRUE(server.ok());
  auto reference_b = LinkingServer::FromBundle(dir_b, opts);
  ASSERT_TRUE(reference_b.ok());

  const auto& ex = split_.test.front();
  auto before = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*server)->SwapModel(dir_b).ok());
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.model_version, 2u);
  EXPECT_EQ(stats.swaps, 1u);

  auto after = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  auto want = (*reference_b)->Link(ex.mention, ex.left_context,
                                   ex.right_context);
  ASSERT_TRUE(after.ok() && want.ok());
  ASSERT_EQ(after->size(), want->size());
  for (std::size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*after)[i].entity_id, (*want)[i].entity_id);
    EXPECT_EQ((*after)[i].score, (*want)[i].score);
  }
}

TEST_F(ServeTest, SwapHammerEveryResponseMatchesOldOrNewModel) {
  // The hot-swap acceptance test: 8 client threads hammer Link while the
  // main thread swaps between two model versions several times. Every
  // response must exactly equal what version A or version B computes for
  // that probe — a mixed-version response (new scores over an old index,
  // stale LRU entries, torn epoch) fails the equality against both. Run
  // under METABLINK_SANITIZE=thread this also vets the epoch publication.
  core::PipelineConfig other_config = TestConfig();
  other_config.seed = 999;
  core::MetaBlinkPipeline other(other_config);
  const std::string dir_a = ::testing::TempDir() + "metablink_serve_hammer_a";
  const std::string dir_b = ::testing::TempDir() + "metablink_serve_hammer_b";
  SaveBundle(*pipeline_, dir_a, /*version=*/1);
  SaveBundle(other, dir_b, /*version=*/2);

  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.max_batch = 8;
  opts.flush_deadline_us = 200;
  opts.cache_capacity = 32;

  // Per-probe reference answers from each version.
  constexpr std::size_t kProbes = 10;
  constexpr std::size_t kTopK = 3;
  std::vector<std::vector<core::LinkPrediction>> ref_a(kProbes);
  std::vector<std::vector<core::LinkPrediction>> ref_b(kProbes);
  {
    auto sa = LinkingServer::FromBundle(dir_a, opts);
    auto sb = LinkingServer::FromBundle(dir_b, opts);
    ASSERT_TRUE(sa.ok() && sb.ok());
    for (std::size_t p = 0; p < kProbes; ++p) {
      const auto& ex = split_.test[p];
      auto a = (*sa)->Link(ex.mention, ex.left_context, ex.right_context,
                           kTopK);
      auto b = (*sb)->Link(ex.mention, ex.left_context, ex.right_context,
                           kTopK);
      ASSERT_TRUE(a.ok() && b.ok());
      ref_a[p] = *std::move(a);
      ref_b[p] = *std::move(b);
      // The two versions must actually disagree somewhere for the "old or
      // new, never a mix" check to have teeth.
    }
  }
  bool versions_differ = false;
  for (std::size_t p = 0; p < kProbes && !versions_differ; ++p) {
    for (std::size_t i = 0; i < ref_a[p].size() && i < ref_b[p].size(); ++i) {
      if (ref_a[p][i].entity_id != ref_b[p][i].entity_id ||
          ref_a[p][i].score != ref_b[p][i].score) {
        versions_differ = true;
        break;
      }
    }
  }
  ASSERT_TRUE(versions_differ);

  auto server = LinkingServer::FromBundle(dir_a, opts);
  ASSERT_TRUE(server.ok());

  const auto matches = [&](const std::vector<core::LinkPrediction>& got,
                           const std::vector<core::LinkPrediction>& want) {
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].entity_id != want[i].entity_id ||
          got[i].score != want[i].score) {
        return false;
      }
    }
    return true;
  };

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 24;
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> mixed{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        const std::size_t p = (t + 3 * r) % kProbes;
        const auto& ex = split_.test[p];
        auto got = (*server)->Link(ex.mention, ex.left_context,
                                   ex.right_context, kTopK);
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!matches(*got, ref_a[p]) && !matches(*got, ref_b[p])) {
          mixed.fetch_add(1);
        }
      }
    });
  }
  // >= 3 swaps while the hammer runs: A -> B -> A -> B.
  std::size_t swaps_done = 0;
  for (const std::string* dir : {&dir_b, &dir_a, &dir_b}) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    ASSERT_TRUE((*server)->SwapModel(*dir).ok());
    ++swaps_done;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mixed.load(), 0u);

  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.swaps, swaps_done);
  EXPECT_EQ(stats.model_version, 2u);
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
}

TEST_F(ServeTest, CorruptBundleIsRejectedAndServingContinues) {
  const std::string dir_a = ::testing::TempDir() + "metablink_serve_keep_a";
  const std::string dir_bad = ::testing::TempDir() + "metablink_serve_keep_bad";
  SaveBundle(*pipeline_, dir_a, /*version=*/1);
  SaveBundle(*pipeline_, dir_bad, /*version=*/2);
  // Flip one byte in an artifact of the "new" bundle.
  {
    const std::string victim = dir_bad + "/cross.ckpt";
    std::vector<char> bytes;
    {
      std::ifstream in(victim, std::ios::binary);
      bytes.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x20;
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  ServerOptions opts;
  opts.retrieve_k = 16;
  auto server = LinkingServer::FromBundle(dir_a, opts);
  ASSERT_TRUE(server.ok());
  const auto& ex = split_.test.front();
  auto before = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  ASSERT_TRUE(before.ok());

  EXPECT_FALSE((*server)->SwapModel(dir_bad).ok());
  EXPECT_FALSE((*server)->SwapModel("/no/such/bundle").ok());

  // Old version keeps serving, unchanged.
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(stats.model_version, 1u);
  auto after = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before->size());
  for (std::size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*after)[i].entity_id, (*before)[i].entity_id);
    EXPECT_EQ((*after)[i].score, (*before)[i].score);
  }
}

}  // namespace
}  // namespace metablink::serve
