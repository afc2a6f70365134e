#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/few_shot_linker.h"
#include "core/pipeline.h"
#include "data/generator.h"

namespace metablink::core {
namespace {

// Small, fast pipeline configuration for integration tests.
PipelineConfig TestConfig() {
  PipelineConfig config;
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

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 99;
    opts.shared_vocab_size = 400;
    opts.domain_vocab_size = 200;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(3);
    specs[0].name = "src_a";
    specs[0].num_entities = 100;
    specs[0].num_examples = 250;
    specs[1].name = "src_b";
    specs[1].num_entities = 100;
    specs[1].num_examples = 250;
    specs[2].name = "target";
    specs[2].num_entities = 150;
    specs[2].num_examples = 300;
    specs[2].num_documents = 250;
    specs[2].gap = 0.5;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
    split_ = data::MakeFewShotSplit(corpus_->ExamplesIn("target"), 50, 50, 3);
  }

  std::unique_ptr<data::Corpus> corpus_;
  data::DomainSplit split_;
};

TEST_F(PipelineTest, SyntheticDataRequiresTrainedRewriter) {
  MetaBlinkPipeline pipeline(TestConfig());
  auto syn = pipeline.BuildSyntheticData(*corpus_, "target", false);
  ASSERT_FALSE(syn.ok());
  EXPECT_EQ(syn.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, ExactMatchDataComesFromDocuments) {
  MetaBlinkPipeline pipeline(TestConfig());
  auto exact = pipeline.BuildExactMatchData(*corpus_, "target");
  ASSERT_FALSE(exact.empty());
  for (const auto& ex : exact) {
    EXPECT_EQ(ex.source, data::ExampleSource::kExactMatch);
    EXPECT_EQ(corpus_->kb.entity(ex.entity_id).domain, "target");
  }
}

TEST_F(PipelineTest, FullMetaPipelineBeatsSeedOnlyBlink) {
  // The paper's headline claim at integration-test scale: MetaBLINK with
  // synthetic data beats BLINK trained on the seed alone.
  MetaBlinkPipeline blink(TestConfig());
  ASSERT_TRUE(blink.TrainSupervised(corpus_->kb, split_.train).ok());
  auto blink_result = blink.Evaluate(corpus_->kb, "target", split_.test);
  ASSERT_TRUE(blink_result.ok());

  MetaBlinkPipeline meta(TestConfig());
  ASSERT_TRUE(meta.TrainRewriter(*corpus_, {"src_a", "src_b"}).ok());
  auto syn = meta.BuildSyntheticData(*corpus_, "target", true);
  ASSERT_TRUE(syn.ok());
  EXPECT_GT(syn->size(), 50u);
  ASSERT_TRUE(meta.TrainMeta(corpus_->kb, *syn, split_.train).ok());
  auto meta_result = meta.Evaluate(corpus_->kb, "target", split_.test);
  ASSERT_TRUE(meta_result.ok());

  EXPECT_GT(meta_result->recall_at_k, blink_result->recall_at_k);
  EXPECT_GT(meta_result->unnormalized_acc, blink_result->unnormalized_acc);
  // Meta selection statistics were recorded.
  EXPECT_GT(meta.last_meta_bi_result().steps, 0u);
}

TEST_F(PipelineTest, LinkReturnsRankedCandidates) {
  MetaBlinkPipeline pipeline(TestConfig());
  ASSERT_TRUE(pipeline.TrainSupervised(corpus_->kb, split_.train).ok());
  auto ranked =
      pipeline.Link(corpus_->kb, "target", split_.test.front(), 5);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 5u);
  for (std::size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_GE((*ranked)[i - 1].score, (*ranked)[i].score);
  }
}

TEST_F(PipelineTest, SaveLoadRoundTrip) {
  MetaBlinkPipeline pipeline(TestConfig());
  ASSERT_TRUE(pipeline.TrainSupervised(corpus_->kb, split_.train).ok());
  const std::string prefix = "/tmp/metablink_pipeline_test";
  ASSERT_TRUE(pipeline.Save(prefix).ok());

  MetaBlinkPipeline restored(TestConfig());
  ASSERT_TRUE(restored.Load(prefix).ok());
  auto a = pipeline.Evaluate(corpus_->kb, "target", split_.dev);
  auto b = restored.Evaluate(corpus_->kb, "target", split_.dev);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->unnormalized_acc, b->unnormalized_acc);
  EXPECT_DOUBLE_EQ(a->recall_at_k, b->recall_at_k);
  std::remove((prefix + ".bi").c_str());
  std::remove((prefix + ".cross").c_str());
}

TEST_F(PipelineTest, ResetModelsChangesPredictions) {
  MetaBlinkPipeline pipeline(TestConfig());
  ASSERT_TRUE(pipeline.TrainSupervised(corpus_->kb, split_.train).ok());
  auto before = pipeline.Evaluate(corpus_->kb, "target", split_.dev);
  pipeline.ResetModels();
  auto after = pipeline.Evaluate(corpus_->kb, "target", split_.dev);
  ASSERT_TRUE(before.ok() && after.ok());
  // Untrained fresh models should not coincide with the trained ones.
  EXPECT_NE(before->recall_at_k, after->recall_at_k);
}

TEST_F(PipelineTest, TrainMetaValidatesInputs) {
  MetaBlinkPipeline pipeline(TestConfig());
  EXPECT_FALSE(pipeline.TrainMeta(corpus_->kb, {}, split_.train).ok());
  std::vector<data::LinkingExample> two(split_.train.begin(),
                                        split_.train.begin() + 2);
  EXPECT_FALSE(pipeline.TrainMeta(corpus_->kb, two, {}).ok());
}

// ---- FewShotLinker facade ---------------------------------------------------

TEST_F(PipelineTest, FewShotLinkerEndToEnd) {
  core::FewShotLinker linker(TestConfig());
  EXPECT_FALSE(linker.fitted());
  EXPECT_FALSE(linker.Link("x", "", "").ok());  // not fitted yet
  EXPECT_FALSE(linker.Evaluate(split_.test).ok());

  ASSERT_TRUE(linker
                  .Fit(*corpus_, {"src_a", "src_b"}, "target", split_.train)
                  .ok());
  EXPECT_TRUE(linker.fitted());
  EXPECT_GT(linker.num_synthetic(), 0u);
  EXPECT_EQ(linker.num_seeds(), split_.train.size());

  const auto& probe = split_.test.front();
  auto pred = linker.Link(probe.mention, probe.left_context,
                          probe.right_context, 3);
  ASSERT_TRUE(pred.ok());
  ASSERT_EQ(pred->size(), 3u);
  EXPECT_FALSE((*pred)[0].title.empty());

  auto result = linker.Evaluate(split_.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->recall_at_k, 0.2);
}

// FewShotLinker::Link answers from the structure Fit built;
// pipeline()->Link re-encodes the domain per call under the same weights.
// Both must agree bit for bit: same ids, same order, same float scores.
void ExpectLinkMatchesPipeline(const FewShotLinker& linker,
                               const data::LinkingExample& probe,
                               std::size_t top_k) {
  SCOPED_TRACE("mention '" + probe.mention + "' top_k " +
               std::to_string(top_k));
  data::LinkingExample ex;
  ex.mention = probe.mention;
  ex.left_context = probe.left_context;
  ex.right_context = probe.right_context;
  ex.domain = linker.target_domain();
  auto got = linker.Link(ex.mention, ex.left_context, ex.right_context, top_k);
  auto want = linker.pipeline()->Link(linker.corpus()->kb,
                                      linker.target_domain(), ex, top_k);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(want.ok()) << want.status().message();
  ASSERT_EQ(got->size(), want->size());
  for (std::size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*got)[i].entity_id, (*want)[i].id);
    EXPECT_EQ((*got)[i].score, (*want)[i].score);
    EXPECT_EQ((*got)[i].title,
              linker.corpus()->kb.entity((*want)[i].id).title);
  }
}

TEST_F(PipelineTest, FewShotLinkerLinkMatchesPipelineLink) {
  const PipelineConfig config = TestConfig();
  FewShotLinker linker(config);
  ASSERT_TRUE(linker
                  .Fit(*corpus_, {"src_a", "src_b"}, "target", split_.train)
                  .ok());
  for (const auto& ex : split_.test) {
    for (std::size_t top_k : {std::size_t{1}, std::size_t{5}, config.eval.k,
                              std::size_t{100000}}) {
      ExpectLinkMatchesPipeline(linker, ex, top_k);
    }
  }
  // No features on one side is still a servable request.
  data::LinkingExample no_mention = split_.test.front();
  no_mention.mention.clear();
  ExpectLinkMatchesPipeline(linker, no_mention, 5);
  data::LinkingExample no_context = split_.test.front();
  no_context.left_context.clear();
  no_context.right_context.clear();
  ExpectLinkMatchesPipeline(linker, no_context, 5);
}

TEST_F(PipelineTest, FewShotLinkerRefitRebuildsAndFailedRefitUnfits) {
  const PipelineConfig config = TestConfig();
  FewShotLinker linker(config);
  ASSERT_TRUE(linker
                  .Fit(*corpus_, {"src_a", "src_b"}, "target", split_.train)
                  .ok());
  std::vector<std::vector<LinkPrediction>> before;
  for (const auto& ex : split_.test) {
    auto got = linker.Link(ex.mention, ex.left_context, ex.right_context,
                           config.eval.k);
    ASSERT_TRUE(got.ok());
    before.push_back(*std::move(got));
  }

  // A second Fit with a different seed set retrains the encoders; Link must
  // answer from a structure rebuilt under the new weights.
  const std::vector<data::LinkingExample> other_seeds(
      split_.train.begin(), split_.train.begin() + split_.train.size() / 2);
  ASSERT_TRUE(
      linker.Fit(*corpus_, {"src_a", "src_b"}, "target", other_seeds).ok());
  ASSERT_TRUE(linker.fitted());
  bool changed = false;
  for (std::size_t e = 0; e < split_.test.size(); ++e) {
    const auto& ex = split_.test[e];
    ExpectLinkMatchesPipeline(linker, ex, config.eval.k);
    auto got = linker.Link(ex.mention, ex.left_context, ex.right_context,
                           config.eval.k);
    ASSERT_TRUE(got.ok());
    for (std::size_t i = 0; i < got->size() && !changed; ++i) {
      changed = (*got)[i].entity_id != before[e][i].entity_id ||
                (*got)[i].score != before[e][i].score;
    }
  }
  // Otherwise a stale structure would have passed the comparison above.
  EXPECT_TRUE(changed);

  // A re-Fit that fails leaves the linker unfitted, not serving the old
  // domain structure.
  const util::Status failed =
      linker.Fit(*corpus_, {"src_a", "src_b"}, "nonexistent", split_.train);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(linker.fitted());
  const auto& probe = split_.test.front();
  auto link = linker.Link(probe.mention, probe.left_context,
                          probe.right_context);
  ASSERT_FALSE(link.ok());
  EXPECT_EQ(link.status().code(), util::StatusCode::kFailedPrecondition);
  auto eval = linker.Evaluate(split_.test);
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, FewShotLinkerZeroShotHeuristicSeeds) {
  core::FewShotLinker linker(TestConfig());
  ASSERT_TRUE(
      linker.Fit(*corpus_, {"src_a", "src_b"}, "target", {}, 40).ok());
  EXPECT_GT(linker.num_seeds(), 0u);
  EXPECT_LE(linker.num_seeds(), 40u);
}

TEST_F(PipelineTest, FewShotLinkerRejectsUnknownDomain) {
  core::FewShotLinker linker(TestConfig());
  auto status = linker.Fit(*corpus_, {"src_a"}, "nonexistent", split_.train);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace metablink::core
