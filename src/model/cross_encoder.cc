#include "model/cross_encoder.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace metablink::model {

CrossEncoder::CrossEncoder(CrossEncoderConfig config, util::Rng* rng)
    : config_(config), featurizer_(config.features) {
  const std::size_t buckets = featurizer_.num_buckets();
  const std::size_t d = config_.dim;
  const std::size_t in = 3 * d + kNumOverlapFeatures;
  table_ = params_.CreateEmbedding("cross_table", buckets, d, 0.1f, rng);
  w1_ = params_.CreateXavier("cross_w1", in, config_.hidden, rng);
  b1_ = params_.Create("cross_b1", 1, config_.hidden);
  w2_ = params_.CreateXavier("cross_w2", config_.hidden, 1, rng);
  b2_ = params_.Create("cross_b2", 1, 1);
}

tensor::Var CrossEncoder::ScoreCandidates(
    tensor::Graph* graph, const data::LinkingExample& example,
    const std::vector<kb::Entity>& candidates) const {
  METABLINK_CHECK(!candidates.empty()) << "no candidates to score";
  const std::size_t c = candidates.size();
  // The mention is identical for every candidate row: encode it once and
  // broadcast.
  std::vector<std::vector<std::uint32_t>> mention_bag(
      1, featurizer_.MentionBag(example));
  std::vector<std::vector<std::uint32_t>> entity_bags;
  entity_bags.reserve(c);
  tensor::Tensor overlaps(c, kNumOverlapFeatures);
  for (std::size_t i = 0; i < c; ++i) {
    entity_bags.push_back(featurizer_.EntityBag(candidates[i]));
    const auto feats = featurizer_.OverlapFeatures(example, candidates[i]);
    for (std::size_t f = 0; f < kNumOverlapFeatures; ++f) {
      overlaps.at(i, f) = feats[f];
    }
  }
  tensor::Var m = graph->BroadcastRow(
      graph->Tanh(graph->EmbeddingBagMean(table_, std::move(mention_bag))),
      c);
  tensor::Var e =
      graph->Tanh(graph->EmbeddingBagMean(table_, std::move(entity_bags)));
  tensor::Var interaction = graph->Mul(m, e);
  tensor::Var joint = graph->ConcatCols(graph->ConcatCols(m, e), interaction);
  tensor::Var input =
      graph->ConcatCols(joint, graph->Input(std::move(overlaps)));
  tensor::Var hidden = graph->Tanh(graph->AddBiasRow(
      graph->MatMul(input, graph->Param(w1_)), graph->Param(b1_)));
  return graph->AddBiasRow(graph->MatMul(hidden, graph->Param(w2_)),
                           graph->Param(b2_));
}

tensor::Var CrossEncoder::RankingLoss(
    tensor::Graph* graph, const data::LinkingExample& example,
    const std::vector<kb::Entity>& candidates, std::size_t gold_index) const {
  METABLINK_CHECK(gold_index < candidates.size()) << "gold index out of range";
  tensor::Var scores = ScoreCandidates(graph, example, candidates);
  tensor::Var row = graph->Reshape(scores, 1, candidates.size());
  return graph->SoftmaxCrossEntropy(row, {gold_index});
}

std::vector<float> CrossEncoder::Score(
    const data::LinkingExample& example,
    const std::vector<kb::Entity>& candidates) const {
  tensor::Graph graph;
  tensor::Var scores = ScoreCandidates(&graph, example, candidates);
  std::vector<float> out(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    out[i] = graph.value(scores).at(i, 0);
  }
  return out;
}

void CrossEncoder::ScoreInference(const data::LinkingExample& example,
                                  const std::vector<kb::Entity>& candidates,
                                  CrossScoreScratch* scratch,
                                  std::vector<float>* out) const {
  METABLINK_CHECK(!candidates.empty()) << "no candidates to score";
  const std::size_t c = candidates.size();
  const std::size_t d = config_.dim;
  const std::size_t in = 3 * d + kNumOverlapFeatures;

  // Mention tower: mean-pooled bag + tanh, computed once (the Graph path
  // broadcasts the single encoded row).
  featurizer_.MentionBagInto(example, &scratch->mention_bag);
  scratch->mention_vec.assign(d, 0.0f);
  if (!scratch->mention_bag.empty()) {
    const float inv =
        1.0f / static_cast<float>(scratch->mention_bag.size());
    for (std::uint32_t id : scratch->mention_bag) {
      METABLINK_CHECK(id < table_->value.rows()) << "embedding id out of range";
      tensor::Axpy(inv, table_->value.row_data(id),
                   scratch->mention_vec.data(), d);
    }
  }
  for (float& v : scratch->mention_vec) v = std::tanh(v);

  // Entity tower: same gather + tanh per candidate row.
  if (scratch->entity_bags.size() < c) scratch->entity_bags.resize(c);
  scratch->entity_vec.Resize(c, d);
  for (std::size_t i = 0; i < c; ++i) {
    featurizer_.EntityBagInto(candidates[i], &scratch->entity_bags[i]);
    const auto& bag = scratch->entity_bags[i];
    if (bag.empty()) continue;
    const float inv = 1.0f / static_cast<float>(bag.size());
    float* dst = scratch->entity_vec.row_data(i);
    for (std::uint32_t id : bag) {
      METABLINK_CHECK(id < table_->value.rows()) << "embedding id out of range";
      tensor::Axpy(inv, table_->value.row_data(id), dst, d);
    }
  }
  for (float& v : scratch->entity_vec.data()) v = std::tanh(v);

  // Joint row: [m, e, m*e, overlaps] — the ConcatCols layout of the tape.
  scratch->input.Resize(c, in);
  for (std::size_t i = 0; i < c; ++i) {
    float* row = scratch->input.row_data(i);
    const float* m = scratch->mention_vec.data();
    const float* e = scratch->entity_vec.row_data(i);
    std::copy(m, m + d, row);
    std::copy(e, e + d, row + d);
    for (std::size_t j = 0; j < d; ++j) row[2 * d + j] = m[j] * e[j];
    featurizer_.OverlapFeaturesInto(example, candidates[i], row + 3 * d);
  }

  // Scoring MLP through the same serial blocked GEMM as Graph::MatMul.
  scratch->hidden.Resize(c, config_.hidden);
  tensor::GemmRaw(scratch->input.data().data(), w1_->value.data().data(),
                  scratch->hidden.data().data(), c, in, config_.hidden);
  for (std::size_t i = 0; i < c; ++i) {
    float* row = scratch->hidden.row_data(i);
    for (std::size_t j = 0; j < config_.hidden; ++j) {
      row[j] = std::tanh(row[j] + b1_->value.at(0, j));
    }
  }
  scratch->score.Resize(c, 1);
  tensor::GemmRaw(scratch->hidden.data().data(), w2_->value.data().data(),
                  scratch->score.data().data(), c, config_.hidden, 1);
  out->clear();
  out->reserve(c);
  const float b2 = b2_->value.at(0, 0);
  for (std::size_t i = 0; i < c; ++i) {
    out->push_back(scratch->score.at(i, 0) + b2);
  }
}

void CrossEncoder::PrecomputeEntities(const std::vector<kb::Entity>& entities,
                                      CrossEntityCache* out) const {
  const std::size_t n = entities.size();
  const std::size_t d = config_.dim;
  out->entity_vec.Resize(n, d);
  out->tokens.resize(n);
  std::vector<std::uint32_t> bag;
  for (std::size_t i = 0; i < n; ++i) {
    featurizer_.EntityBagInto(entities[i], &bag);
    if (!bag.empty()) {
      const float inv = 1.0f / static_cast<float>(bag.size());
      float* dst = out->entity_vec.row_data(i);
      for (std::uint32_t id : bag) {
        METABLINK_CHECK(id < table_->value.rows())
            << "embedding id out of range";
        tensor::Axpy(inv, table_->value.row_data(id), dst, d);
      }
    }
    featurizer_.PrecomputeEntityTokens(entities[i], &out->tokens[i]);
  }
  for (float& v : out->entity_vec.data()) v = std::tanh(v);
}

void CrossEncoder::MentionVecInto(const data::LinkingExample& example,
                                  CrossScoreScratch* scratch) const {
  const std::size_t d = config_.dim;
  featurizer_.MentionBagInto(example, &scratch->mention_bag);
  scratch->mention_vec.assign(d, 0.0f);
  if (!scratch->mention_bag.empty()) {
    const float inv =
        1.0f / static_cast<float>(scratch->mention_bag.size());
    for (std::uint32_t id : scratch->mention_bag) {
      METABLINK_CHECK(id < table_->value.rows()) << "embedding id out of range";
      tensor::Axpy(inv, table_->value.row_data(id),
                   scratch->mention_vec.data(), d);
    }
  }
  for (float& v : scratch->mention_vec) v = std::tanh(v);
}

void CrossEncoder::ScoreCachedInference(const data::LinkingExample& example,
                                        const std::vector<std::size_t>& rows,
                                        const CrossEntityCache& cache,
                                        CrossScoreScratch* scratch,
                                        std::vector<float>* out) const {
  METABLINK_CHECK(!rows.empty()) << "no candidates to score";
  const std::size_t c = rows.size();
  const std::size_t d = config_.dim;
  const std::size_t in = 3 * d + kNumOverlapFeatures;

  // Mention tower: identical to ScoreInference.
  MentionVecInto(example, scratch);

  // Mention-side overlap tokens, once per request instead of per pair.
  featurizer_.PrecomputeMentionTokens(example, &scratch->mention_tokens);

  // Joint rows pull the entity tower straight from the cache.
  scratch->input.Resize(c, in);
  for (std::size_t i = 0; i < c; ++i) {
    const std::size_t r = rows[i];
    METABLINK_CHECK(r < cache.entity_vec.rows()) << "cache row out of range";
    float* row = scratch->input.row_data(i);
    const float* m = scratch->mention_vec.data();
    const float* e = cache.entity_vec.row_data(r);
    std::copy(m, m + d, row);
    std::copy(e, e + d, row + d);
    for (std::size_t j = 0; j < d; ++j) row[2 * d + j] = m[j] * e[j];
    featurizer_.OverlapFeaturesCached(scratch->mention_tokens,
                                      cache.tokens[r], row + 3 * d);
  }

  // Same scoring MLP as ScoreInference.
  scratch->hidden.Resize(c, config_.hidden);
  tensor::GemmRaw(scratch->input.data().data(), w1_->value.data().data(),
                  scratch->hidden.data().data(), c, in, config_.hidden);
  for (std::size_t i = 0; i < c; ++i) {
    float* row = scratch->hidden.row_data(i);
    for (std::size_t j = 0; j < config_.hidden; ++j) {
      row[j] = std::tanh(row[j] + b1_->value.at(0, j));
    }
  }
  scratch->score.Resize(c, 1);
  tensor::GemmRaw(scratch->hidden.data().data(), w2_->value.data().data(),
                  scratch->score.data().data(), c, config_.hidden, 1);
  out->clear();
  out->reserve(c);
  const float b2 = b2_->value.at(0, 0);
  for (std::size_t i = 0; i < c; ++i) {
    out->push_back(scratch->score.at(i, 0) + b2);
  }
}

void CrossEncoder::SaveCheckpoint(store::CheckpointWriter* ckpt) const {
  util::BinaryWriter* config = ckpt->AddSection("cross_config");
  config->WriteU64(config_.dim);
  config->WriteU64(config_.hidden);
  SaveFeatureConfig(config_.features, config);
  params_.Save(ckpt->AddSection("cross_params"));
}

util::Result<CrossEncoderConfig> CrossEncoder::ReadConfig(
    const store::CheckpointReader& ckpt) {
  auto section = ckpt.Section("cross_config");
  if (!section.ok()) return section.status();
  CrossEncoderConfig config;
  std::uint64_t dim = 0, hidden = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&dim));
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&hidden));
  config.dim = static_cast<std::size_t>(dim);
  config.hidden = static_cast<std::size_t>(hidden);
  METABLINK_RETURN_IF_ERROR(LoadFeatureConfig(&*section, &config.features));
  return config;
}

util::Status CrossEncoder::LoadCheckpoint(const store::CheckpointReader& ckpt) {
  auto stored = ReadConfig(ckpt);
  if (!stored.ok()) return stored.status();
  if (stored->dim != config_.dim || stored->hidden != config_.hidden ||
      !FeatureConfigsMatch(stored->features, config_.features)) {
    return util::Status::InvalidArgument(
        "cross-encoder checkpoint config does not match this model");
  }
  auto section = ckpt.Section("cross_params");
  if (!section.ok()) return section.status();
  return params_.Load(&*section);
}

util::Status CrossEncoder::SaveToFile(const std::string& path) const {
  store::CheckpointWriter ckpt;
  SaveCheckpoint(&ckpt);
  return ckpt.WriteToFile(path);
}

util::Status CrossEncoder::LoadFromFile(const std::string& path) {
  auto ckpt = store::CheckpointReader::FromFile(path);
  if (!ckpt.ok()) return ckpt.status();
  return LoadCheckpoint(*ckpt);
}

}  // namespace metablink::model
