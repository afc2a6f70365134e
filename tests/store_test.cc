#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "data/generator.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cascade.h"
#include "model/cross_encoder.h"
#include "retrieval/clustered_index.h"
#include "retrieval/dense_index.h"
#include "store/checkpoint.h"
#include "store/model_bundle.h"
#include "train/bi_trainer.h"
#include "train/cross_trainer.h"
#include "train/meta_trainer.h"
#include "train/trainer_checkpoint.h"
#include "util/serialize.h"

namespace metablink::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "metablink_store_" + name;
}

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool FileExists(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// ---- Container framing -----------------------------------------------------

std::vector<std::uint8_t> TwoSectionContainer() {
  CheckpointWriter ckpt;
  util::BinaryWriter* a = ckpt.AddSection("alpha");
  a->WriteU64(42);
  a->WriteString("hello");
  util::BinaryWriter* b = ckpt.AddSection("beta");
  b->WriteFloatVector({1.0f, 2.5f, -3.0f});
  return ckpt.Serialize();
}

TEST(CheckpointContainerTest, RoundTrip) {
  auto reader = CheckpointReader::Parse(TwoSectionContainer());
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader->version(), kCheckpointVersion);
  EXPECT_TRUE(reader->Has("alpha"));
  EXPECT_TRUE(reader->Has("beta"));
  EXPECT_FALSE(reader->Has("gamma"));
  auto alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok());
  std::uint64_t v = 0;
  std::string s;
  ASSERT_TRUE(alpha->ReadU64(&v).ok());
  ASSERT_TRUE(alpha->ReadString(&s).ok());
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, "hello");
  auto beta = reader->Section("beta");
  ASSERT_TRUE(beta.ok());
  std::vector<float> floats;
  ASSERT_TRUE(beta->ReadFloatVector(&floats).ok());
  EXPECT_EQ(floats, (std::vector<float>{1.0f, 2.5f, -3.0f}));
  EXPECT_EQ(reader->Section("gamma").status().code(),
            util::StatusCode::kNotFound);
}

TEST(CheckpointContainerTest, EveryPrefixTruncationIsCleanlyRejected) {
  const std::vector<std::uint8_t> full = TwoSectionContainer();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> cut(full.begin(), full.begin() + len);
    auto reader = CheckpointReader::Parse(std::move(cut));
    ASSERT_FALSE(reader.ok()) << "prefix of length " << len << " parsed";
    const util::StatusCode code = reader.status().code();
    EXPECT_TRUE(code == util::StatusCode::kOutOfRange ||
                code == util::StatusCode::kInvalidArgument)
        << "prefix " << len << ": " << reader.status().message();
  }
}

TEST(CheckpointContainerTest, EverySingleBitFlipIsDetected) {
  const std::vector<std::uint8_t> full = TwoSectionContainer();
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> flipped = full;
      flipped[byte] ^= bit;
      auto reader = CheckpointReader::Parse(std::move(flipped));
      EXPECT_FALSE(reader.ok())
          << "bit flip at byte " << byte << " went undetected";
    }
  }
}

TEST(CheckpointContainerTest, HugeSectionCountIsOutOfRange) {
  // A section count that cannot fit in the bytes left must be rejected
  // before it sizes any allocation.
  util::BinaryWriter w;
  w.WriteU32(0x4B43424Du);  // "MBCK"
  w.WriteU32(kCheckpointVersion);
  w.WriteU32(0xFFFFFFFFu);
  w.WriteU64(0);
  w.WriteU32(0);
  auto reader = CheckpointReader::Parse(w.TakeBuffer());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kOutOfRange);
}

TEST(CheckpointContainerTest, TrailingGarbageIsDataLoss) {
  std::vector<std::uint8_t> bytes = TwoSectionContainer();
  bytes.push_back(0x00);
  auto reader = CheckpointReader::Parse(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kDataLoss);
}

TEST(CheckpointContainerTest, FutureVersionIsRejected) {
  std::vector<std::uint8_t> bytes = TwoSectionContainer();
  // Bytes 4..7 are the little-endian format version.
  bytes[4] = static_cast<std::uint8_t>(kCheckpointVersion + 1);
  auto reader = CheckpointReader::Parse(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CheckpointContainerTest, AtomicWriteReplacesAndFailsCleanly) {
  const std::string path = TempPath("atomic.ckpt");
  CheckpointWriter first;
  first.AddSection("s")->WriteU64(1);
  ASSERT_TRUE(first.WriteToFile(path).ok());
  CheckpointWriter second;
  second.AddSection("s")->WriteU64(2);
  ASSERT_TRUE(second.WriteToFile(path).ok());
  auto reader = CheckpointReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  std::uint64_t v = 0;
  ASSERT_TRUE(reader->Section("s")->ReadU64(&v).ok());
  EXPECT_EQ(v, 2u);
  std::remove(path.c_str());

  // A write into a directory that does not exist fails with a Status and
  // leaves nothing behind (no destination file, no stray temp file).
  const std::string bad = TempPath("no_such_dir") + "/x.ckpt";
  EXPECT_FALSE(second.WriteToFile(bad).ok());
  EXPECT_FALSE(FileExists(bad));
  EXPECT_FALSE(FileExists(bad + ".tmp"));
}

// ---- Shared fixture: a small corpus + freshly initialized models -----------

model::BiEncoderConfig SmallBiConfig() {
  model::BiEncoderConfig config;
  config.features.hasher.num_buckets = 2048;
  config.dim = 16;
  return config;
}

model::CrossEncoderConfig SmallCrossConfig() {
  model::CrossEncoderConfig config;
  config.features.hasher.num_buckets = 2048;
  config.dim = 16;
  config.hidden = 16;
  return config;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 91;
    opts.shared_vocab_size = 300;
    opts.domain_vocab_size = 150;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(1);
    specs[0].name = "target";
    specs[0].num_entities = 60;
    specs[0].num_examples = 120;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
    examples_ = corpus_->ExamplesIn("target");
  }

  std::unique_ptr<model::BiEncoder> MakeBi(std::uint64_t seed = 5) const {
    util::Rng rng(seed);
    return std::make_unique<model::BiEncoder>(SmallBiConfig(), &rng);
  }

  std::unique_ptr<model::CrossEncoder> MakeCross(std::uint64_t seed = 6) const {
    util::Rng rng(seed);
    return std::make_unique<model::CrossEncoder>(SmallCrossConfig(), &rng);
  }

  /// Cross instances without a retrieval stage: each example gets a fixed
  /// 4-candidate window over the domain with the gold patched in.
  std::vector<train::CrossInstance> MakeCrossInstances() const {
    const auto& ids = corpus_->kb.EntitiesInDomain("target");
    std::vector<train::CrossInstance> out;
    for (std::size_t i = 0; i < 40; ++i) {
      train::CrossInstance inst;
      inst.example = examples_[i];
      for (std::size_t c = 0; c < 4; ++c) {
        inst.candidates.push_back(ids[(i + c) % ids.size()]);
      }
      inst.candidates[0] = inst.example.entity_id;
      inst.gold_index = 0;
      out.push_back(std::move(inst));
    }
    return out;
  }

  std::unique_ptr<data::Corpus> corpus_;
  std::vector<data::LinkingExample> examples_;
};

// ---- Trainer resume --------------------------------------------------------

TEST_F(StoreTest, BiTrainerResumeIsBitIdentical) {
  train::TrainOptions straight;
  straight.epochs = 3;
  straight.batch_size = 16;
  straight.seed = 21;
  auto reference = MakeBi();
  ASSERT_TRUE(train::BiEncoderTrainer(straight)
                  .Train(reference.get(), corpus_->kb, examples_)
                  .ok());

  // "Kill" after one epoch, then a brand-new trainer resumes from the file.
  const std::string path = TempPath("bi_resume.ckpt");
  std::remove(path.c_str());
  auto resumed = MakeBi();
  train::TrainOptions first = straight;
  first.epochs = 1;
  first.checkpoint_path = path;
  ASSERT_TRUE(train::BiEncoderTrainer(first)
                  .Train(resumed.get(), corpus_->kb, examples_)
                  .ok());
  train::TrainOptions rest = straight;
  rest.checkpoint_path = path;
  auto result = train::BiEncoderTrainer(rest).Train(resumed.get(),
                                                    corpus_->kb, examples_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->epoch_losses.size(), 3u);
  EXPECT_EQ(reference->params()->ValuesCrc32(),
            resumed->params()->ValuesCrc32());
  std::remove(path.c_str());
}

TEST_F(StoreTest, CrossTrainerResumeIsBitIdentical) {
  const std::vector<train::CrossInstance> instances = MakeCrossInstances();
  train::TrainOptions straight;
  straight.epochs = 3;
  straight.seed = 22;
  auto reference = MakeCross();
  ASSERT_TRUE(train::CrossEncoderTrainer(straight)
                  .Train(reference.get(), corpus_->kb, instances)
                  .ok());

  const std::string path = TempPath("cross_resume.ckpt");
  std::remove(path.c_str());
  auto resumed = MakeCross();
  train::TrainOptions first = straight;
  first.epochs = 2;
  first.checkpoint_path = path;
  ASSERT_TRUE(train::CrossEncoderTrainer(first)
                  .Train(resumed.get(), corpus_->kb, instances)
                  .ok());
  train::TrainOptions rest = straight;
  rest.checkpoint_path = path;
  ASSERT_TRUE(train::CrossEncoderTrainer(rest)
                  .Train(resumed.get(), corpus_->kb, instances)
                  .ok());
  EXPECT_EQ(reference->params()->ValuesCrc32(),
            resumed->params()->ValuesCrc32());
  std::remove(path.c_str());
}

TEST_F(StoreTest, MetaTrainerKillAndResumeIsBitIdentical) {
  // The acceptance scenario: a meta-reweight run killed mid-flight resumes
  // from its checkpoint and finishes with exactly the parameters (and Adam
  // moments, via the continued trajectory) of an uninterrupted run.
  const std::vector<data::LinkingExample> synthetic(examples_.begin(),
                                                    examples_.begin() + 80);
  const std::vector<data::LinkingExample> seed_set(examples_.begin() + 80,
                                                   examples_.begin() + 100);
  train::MetaTrainOptions opts;
  opts.steps = 30;
  opts.batch_size = 8;
  opts.meta_batch_size = 4;
  opts.seed = 23;

  auto reference = MakeBi();
  train::MetaReweightTrainer ref_trainer(
      opts, reference->params(),
      [&](tensor::Graph* g, const std::vector<data::LinkingExample>& batch) {
        return reference->InBatchLoss(g, batch, corpus_->kb);
      });
  auto ref_result = ref_trainer.Train(synthetic, seed_set);
  ASSERT_TRUE(ref_result.ok());

  const std::string path = TempPath("meta_resume.ckpt");
  std::remove(path.c_str());
  auto resumed = MakeBi();
  train::MetaTrainOptions killed = opts;
  killed.steps = 20;  // the "kill": stop before the full run
  killed.checkpoint_path = path;
  killed.checkpoint_every = 10;
  {
    train::MetaReweightTrainer trainer(
        killed, resumed->params(),
        [&](tensor::Graph* g, const std::vector<data::LinkingExample>& batch) {
          return resumed->InBatchLoss(g, batch, corpus_->kb);
        });
    ASSERT_TRUE(trainer.Train(synthetic, seed_set).ok());
  }  // trainer destroyed: nothing survives but the checkpoint file

  train::MetaTrainOptions full = opts;
  full.checkpoint_path = path;
  full.checkpoint_every = 10;
  train::MetaReweightTrainer restarted(
      full, resumed->params(),
      [&](tensor::Graph* g, const std::vector<data::LinkingExample>& batch) {
        return resumed->InBatchLoss(g, batch, corpus_->kb);
      });
  auto result = restarted.Train(synthetic, seed_set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps, opts.steps);
  EXPECT_EQ(result->final_synthetic_loss, ref_result->final_synthetic_loss);
  EXPECT_EQ(result->final_seed_loss, ref_result->final_seed_loss);
  EXPECT_EQ(reference->params()->ValuesCrc32(),
            resumed->params()->ValuesCrc32());
  std::remove(path.c_str());
}

TEST_F(StoreTest, CorruptTrainerCheckpointFailsTheRunInsteadOfRestarting) {
  const std::string path = TempPath("corrupt_trainer.ckpt");
  WriteAll(path, {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02});
  auto model = MakeBi();
  train::TrainOptions opts;
  opts.epochs = 1;
  opts.checkpoint_path = path;
  auto result =
      train::BiEncoderTrainer(opts).Train(model.get(), corpus_->kb, examples_);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST_F(StoreTest, TrainerTagMismatchIsRejected) {
  const std::string path = TempPath("tag_mismatch.ckpt");
  auto model = MakeBi();
  util::Rng rng(1);
  tensor::AdamOptimizer optimizer(0.01f);
  train::EpochCheckpointState state;
  state.next_epoch = 1;
  state.order = {0, 1, 2};
  ASSERT_TRUE(train::SaveEpochCheckpoint(0x1111u, state, *model->params(),
                                         optimizer, rng, path)
                  .ok());
  auto loaded = train::LoadEpochCheckpoint(0x2222u, path, model->params(),
                                           &optimizer, &rng);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  auto same = train::LoadEpochCheckpoint(0x1111u, path, model->params(),
                                         &optimizer, &rng);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->next_epoch, 1u);
  EXPECT_EQ(same->order, (std::vector<std::uint64_t>{0, 1, 2}));
  std::remove(path.c_str());
}

TEST_F(StoreTest, OversizedTrainerStateCountsAreOutOfRange) {
  // Crafted trainer sections whose CRCs are valid but whose element counts
  // claim far more entries than the section holds.
  const std::string path = TempPath("oversized_trainer.ckpt");
  auto model = MakeBi();
  util::Rng rng(1);
  tensor::AdamOptimizer optimizer(0.01f);
  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (bool oversize_order : {true, false}) {
    store::CheckpointWriter ckpt;
    util::BinaryWriter* w = ckpt.AddSection("trainer");
    w->WriteU32(0x1111u);
    w->WriteU64(1);                           // next_epoch
    w->WriteU64(oversize_order ? huge : 0);   // order size
    w->WriteU64(0);                           // steps
    w->WriteF64(0.0);                         // final epoch loss
    w->WriteU64(oversize_order ? 0 : huge);   // epoch-loss count
    ASSERT_TRUE(ckpt.WriteToFile(path).ok());
    auto loaded = train::LoadEpochCheckpoint(0x1111u, path, model->params(),
                                             &optimizer, &rng);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kOutOfRange)
        << loaded.status().message();
  }
  std::remove(path.c_str());
}

// ---- Encoder checkpoint files ----------------------------------------------

TEST_F(StoreTest, EncoderFilesRoundTripAndRejectConfigMismatch) {
  const std::string path = TempPath("bi.ckpt");
  auto original = MakeBi(/*seed=*/7);
  ASSERT_TRUE(original->SaveToFile(path).ok());
  auto other = MakeBi(/*seed=*/8);  // different init, same config
  ASSERT_NE(original->params()->ValuesCrc32(), other->params()->ValuesCrc32());
  ASSERT_TRUE(other->LoadFromFile(path).ok());
  EXPECT_EQ(original->params()->ValuesCrc32(), other->params()->ValuesCrc32());

  model::BiEncoderConfig different = SmallBiConfig();
  different.dim = 24;
  util::Rng rng(9);
  model::BiEncoder mismatched(different, &rng);
  auto status = mismatched.LoadFromFile(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---- Headerless artifact files are rejected --------------------------------

// Every artifact loader reads only the framed, CRC-checked container. A raw
// payload stream without it is kInvalidArgument, never a load.
void ExpectHeaderlessRejected(const std::string& path,
                              const util::BinaryWriter& w,
                              const std::function<util::Status()>& load,
                              const char* what) {
  ASSERT_TRUE(w.WriteToFile(path).ok()) << what;
  const util::Status status = load();
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << what << ": " << status.ToString();
}

TEST_F(StoreTest, HeaderlessEncoderFilesAreRejected) {
  // Includes the pre-container "BI"/"CR" tagged encoder layout.
  const std::string path = TempPath("headerless_encoder.bin");
  auto bi = MakeBi(/*seed=*/31);
  {
    util::BinaryWriter w;
    w.WriteU32(0x4249u);  // "BI"
    bi->params()->Save(&w);
    ExpectHeaderlessRejected(path, w, [&] { return bi->LoadFromFile(path); },
                             "bi-encoder");
  }
  auto cross = MakeCross(/*seed=*/33);
  {
    util::BinaryWriter w;
    w.WriteU32(0x4352u);  // "CR"
    cross->params()->Save(&w);
    ExpectHeaderlessRejected(
        path, w, [&] { return cross->LoadFromFile(path); }, "cross-encoder");
  }
  {
    model::CascadeModel cascade;
    util::BinaryWriter w;
    cascade.Save(&w);
    ExpectHeaderlessRejected(
        path, w, [&] { return cascade.LoadFromFile(path); }, "cascade");
  }
  std::remove(path.c_str());
}

TEST_F(StoreTest, HeaderlessIndexAndKbFilesAreRejected) {
  const std::string path = TempPath("headerless_index.bin");
  {
    util::BinaryWriter w;
    corpus_->kb.Save(&w);
    ExpectHeaderlessRejected(
        path, w,
        [&] { return kb::KnowledgeBase::LoadFromFile(path).status(); }, "kb");
  }
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  auto bi = MakeBi();
  retrieval::DenseIndex index;
  ASSERT_TRUE(index.Build(bi->EmbedEntityIds(ids, corpus_->kb), ids).ok());
  {
    util::BinaryWriter w;
    index.Save(&w);
    retrieval::DenseIndex loaded;
    ExpectHeaderlessRejected(
        path, w, [&] { return loaded.LoadFromFile(path); }, "dense index");
  }
  {
    retrieval::ClusteredIndex clustered;
    ASSERT_TRUE(clustered.Build(index, {}).ok());
    util::BinaryWriter w;
    clustered.Save(&w);
    retrieval::ClusteredIndex loaded;
    ExpectHeaderlessRejected(
        path, w, [&] { return loaded.LoadFromFile(path, &index); },
        "clustered index");
  }
  std::remove(path.c_str());

  // The framed forms round-trip through the same entry points.
  const std::string framed_index = TempPath("framed_index.ckpt");
  ASSERT_TRUE(index.SaveToFile(framed_index).ok());
  retrieval::DenseIndex loaded_index;
  ASSERT_TRUE(loaded_index.LoadFromFile(framed_index).ok());
  ASSERT_EQ(loaded_index.size(), index.size());
  EXPECT_EQ(loaded_index.ids(), index.ids());
  for (std::size_t j = 0; j < index.dim(); ++j) {
    EXPECT_EQ(loaded_index.EmbeddingAt(0)[j], index.EmbeddingAt(0)[j]);
  }
  std::remove(framed_index.c_str());

  const std::string framed_kb = TempPath("framed_kb.ckpt");
  ASSERT_TRUE(corpus_->kb.SaveToFile(framed_kb).ok());
  auto loaded_kb = kb::KnowledgeBase::LoadFromFile(framed_kb);
  ASSERT_TRUE(loaded_kb.ok());
  EXPECT_EQ(loaded_kb->num_entities(), corpus_->kb.num_entities());
  EXPECT_EQ(loaded_kb->EntitiesInDomain("target").size(), ids.size());
  std::remove(framed_kb.c_str());
}

// ---- Artifact bundles ------------------------------------------------------

class BundleTest : public StoreTest {
 protected:
  void SetUp() override {
    StoreTest::SetUp();
    bi_ = MakeBi(/*seed=*/41);
    cross_ = MakeCross(/*seed=*/42);
    const auto& ids = corpus_->kb.EntitiesInDomain("target");
    ASSERT_TRUE(
        index_.Build(bi_->EmbedEntityIds(ids, corpus_->kb), ids).ok());
    std::vector<kb::Entity> entities;
    for (kb::EntityId id : ids) entities.push_back(corpus_->kb.entity(id));
    cross_->PrecomputeEntities(entities, &cache_);
  }

  util::Status Save(const std::string& dir, std::uint64_t version = 3,
                    bool with_cache = true) {
    ModelBundleParts parts;
    parts.model_version = version;
    parts.domain = "target";
    parts.bi = bi_.get();
    parts.cross = cross_.get();
    parts.kb = &corpus_->kb;
    parts.index = &index_;
    parts.rerank_cache = with_cache ? &cache_ : nullptr;
    return SaveModelBundle(parts, dir);
  }

  std::unique_ptr<model::BiEncoder> bi_;
  std::unique_ptr<model::CrossEncoder> cross_;
  retrieval::DenseIndex index_;
  model::CrossEntityCache cache_;
};

TEST_F(BundleTest, SaveLoadRoundTrip) {
  const std::string dir = TempPath("bundle_roundtrip");
  ASSERT_TRUE(Save(dir).ok());
  auto bundle = LoadModelBundle(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  EXPECT_EQ(bundle->model_version, 3u);
  EXPECT_EQ(bundle->domain, "target");
  EXPECT_EQ(bundle->bi->params()->ValuesCrc32(),
            bi_->params()->ValuesCrc32());
  EXPECT_EQ(bundle->cross->params()->ValuesCrc32(),
            cross_->params()->ValuesCrc32());
  EXPECT_EQ(bundle->kb->num_entities(), corpus_->kb.num_entities());
  EXPECT_EQ(bundle->index.ids(), index_.ids());
  EXPECT_TRUE(bundle->has_rerank_cache);
  ASSERT_EQ(bundle->rerank_cache.tokens.size(), cache_.tokens.size());
  EXPECT_EQ(bundle->rerank_cache.tokens[0].norm_title,
            cache_.tokens[0].norm_title);
}

TEST_F(BundleTest, LoadWithoutRerankCacheArtifact) {
  const std::string dir = TempPath("bundle_nocache");
  ASSERT_TRUE(Save(dir, /*version=*/4, /*with_cache=*/false).ok());
  auto bundle = LoadModelBundle(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  EXPECT_FALSE(bundle->has_rerank_cache);
}

TEST_F(BundleTest, ClusteredArtifactRoundTripAndCorruption) {
  retrieval::ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(index_, {}).ok());
  const std::string dir = TempPath("bundle_clustered");
  {
    ModelBundleParts parts;
    parts.model_version = 7;
    parts.domain = "target";
    parts.bi = bi_.get();
    parts.cross = cross_.get();
    parts.kb = &corpus_->kb;
    parts.index = &index_;
    parts.clustered = &clustered;
    ASSERT_TRUE(SaveModelBundle(parts, dir).ok());
  }

  auto bundle = LoadModelBundle(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  ASSERT_TRUE(bundle->has_clustered);
  EXPECT_EQ(bundle->clustered.list_offsets(), clustered.list_offsets());
  EXPECT_EQ(bundle->clustered.list_entries(), clustered.list_entries());

  // Moving the bundle relocates its index, so the clustering must be
  // re-attached at the destination before querying — after which probe
  // results are identical to the original's.
  ModelBundle moved = std::move(*bundle);
  ASSERT_TRUE(moved.clustered.Attach(&moved.index).ok());
  util::Rng rng(73);
  std::vector<float> q(index_.dim());
  for (float& v : q) v = rng.NextFloat(-1, 1);
  const auto want = clustered.TopK(q.data(), 8);
  const auto got = moved.clustered.TopK(q.data(), 8);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].score, got[i].score);
  }

  // A flipped byte or truncation in the clustered artifact fails the whole
  // bundle load with a clean Status, exactly like the legacy artifacts.
  const std::string path = dir + "/clustered.ckpt";
  const std::vector<std::uint8_t> original = ReadAll(path);
  ASSERT_FALSE(original.empty());
  std::vector<std::uint8_t> flipped = original;
  flipped[original.size() / 2] ^= 0x08;
  WriteAll(path, flipped);
  EXPECT_FALSE(LoadModelBundle(dir).ok());
  std::vector<std::uint8_t> truncated(original.begin(), original.end() - 1);
  WriteAll(path, truncated);
  EXPECT_FALSE(LoadModelBundle(dir).ok());
  WriteAll(path, original);
  EXPECT_TRUE(LoadModelBundle(dir).ok());
}

TEST_F(BundleTest, CorruptionAnywhereIsACleanStatus) {
  const std::string dir = TempPath("bundle_corrupt");
  ASSERT_TRUE(Save(dir).ok());
  // Every artifact plus the manifest: a single flipped byte in any file
  // fails the whole bundle open, and a truncated file does too.
  const std::vector<std::string> files = {"MANIFEST",  "bi.ckpt",
                                          "cross.ckpt", "kb.ckpt",
                                          "index.ckpt", "rerank.ckpt"};
  for (const std::string& file : files) {
    const std::string path = dir + "/" + file;
    const std::vector<std::uint8_t> original = ReadAll(path);
    ASSERT_FALSE(original.empty()) << file;

    std::vector<std::uint8_t> flipped = original;
    flipped[original.size() / 2] ^= 0x10;
    WriteAll(path, flipped);
    auto corrupt = LoadModelBundle(dir);
    EXPECT_FALSE(corrupt.ok()) << "flipped byte in " << file;

    std::vector<std::uint8_t> truncated(original.begin(),
                                        original.end() - 1);
    WriteAll(path, truncated);
    auto cut = LoadModelBundle(dir);
    EXPECT_FALSE(cut.ok()) << "truncated " << file;

    WriteAll(path, original);
    ASSERT_TRUE(LoadModelBundle(dir).ok()) << "restore of " << file;
  }
  // A missing artifact file is as fatal as a corrupt one.
  const std::string gone = dir + "/index.ckpt";
  const std::vector<std::uint8_t> saved = ReadAll(gone);
  std::remove(gone.c_str());
  EXPECT_FALSE(LoadModelBundle(dir).ok());
  WriteAll(gone, saved);
  EXPECT_TRUE(LoadModelBundle(dir).ok());
}

TEST_F(BundleTest, MissingDirectoryOrManifestIsNotFoundNotACrash) {
  EXPECT_FALSE(LoadModelBundle(TempPath("no_such_bundle")).ok());
}

TEST_F(BundleTest, ManifestShardCountRoundTrip) {
  // A sharded bundle records its shard count in the manifest; an unsharded
  // save omits the field entirely so its manifest bytes stay identical to
  // the pre-sharding format, and reads back as 0.
  const std::string sharded_dir = TempPath("bundle_sharded");
  const std::string plain_dir = TempPath("bundle_unsharded");
  ModelBundleParts parts;
  parts.model_version = 9;
  parts.domain = "target";
  parts.bi = bi_.get();
  parts.cross = cross_.get();
  parts.kb = &corpus_->kb;
  parts.index = &index_;
  parts.num_shards = 4;
  ASSERT_TRUE(SaveModelBundle(parts, sharded_dir).ok());
  parts.num_shards = 0;
  ASSERT_TRUE(SaveModelBundle(parts, plain_dir).ok());

  auto sharded = LoadModelBundle(sharded_dir);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  EXPECT_EQ(sharded->num_shards, 4u);
  auto plain = LoadModelBundle(plain_dir);
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  EXPECT_EQ(plain->num_shards, 0u);

  // The unsharded manifest must not have grown the trailing field: the
  // otherwise-identical saves differ by exactly the one optional u32.
  const std::vector<std::uint8_t> with = ReadAll(sharded_dir + "/MANIFEST");
  const std::vector<std::uint8_t> without = ReadAll(plain_dir + "/MANIFEST");
  ASSERT_FALSE(with.empty());
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(with.size(), without.size() + sizeof(std::uint32_t));
}

}  // namespace
}  // namespace metablink::store
