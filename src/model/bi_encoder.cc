#include "model/bi_encoder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace metablink::model {

BiEncoder::BiEncoder(BiEncoderConfig config, util::Rng* rng)
    : config_(config), featurizer_(config.features) {
  const std::size_t buckets = featurizer_.num_buckets();
  const std::size_t d = config_.dim;
  // Small-normal embedding init keeps initial bag norms well-scaled.
  mention_table_ = params_.CreateEmbedding("mention_table", buckets, d, 0.1f, rng);
  mention_proj_ = params_.CreateXavier("mention_proj", d, d, rng);
  mention_bias_ = params_.Create("mention_bias", 1, d);
  entity_table_ = params_.CreateEmbedding("entity_table", buckets, d, 0.1f, rng);
  entity_proj_ = params_.CreateXavier("entity_proj", d, d, rng);
  entity_bias_ = params_.Create("entity_bias", 1, d);
}

tensor::Var BiEncoder::EncodeBags(
    tensor::Graph* graph, std::vector<std::vector<std::uint32_t>> bags,
    tensor::Parameter* table, tensor::Parameter* proj,
    tensor::Parameter* bias) const {
  (void)bias;
  tensor::Var pooled = graph->EmbeddingBagMean(table, std::move(bags));
  tensor::Var hidden = graph->Tanh(pooled);
  // No bias before the L2 normalization: a shared offset direction adds a
  // large example-independent component to every per-example gradient,
  // which drowns the meta reweighting signal (gradient dot products).
  tensor::Var projected = graph->MatMul(hidden, graph->Param(proj));
  return graph->RowL2Normalize(projected);
}

tensor::Var BiEncoder::EncodeMentions(
    tensor::Graph* graph,
    const std::vector<data::LinkingExample>& examples) const {
  std::vector<std::vector<std::uint32_t>> bags;
  bags.reserve(examples.size());
  for (const auto& ex : examples) bags.push_back(featurizer_.MentionBag(ex));
  return EncodeBags(graph, std::move(bags), mention_table_, mention_proj_,
                    mention_bias_);
}

tensor::Var BiEncoder::EncodeEntities(
    tensor::Graph* graph, const std::vector<kb::Entity>& entities) const {
  std::vector<std::vector<std::uint32_t>> bags;
  bags.reserve(entities.size());
  for (const auto& e : entities) bags.push_back(featurizer_.EntityBag(e));
  return EncodeBags(graph, std::move(bags), entity_table_, entity_proj_,
                    entity_bias_);
}

tensor::Var BiEncoder::InBatchLoss(
    tensor::Graph* graph, const std::vector<data::LinkingExample>& examples,
    const kb::KnowledgeBase& kb) const {
  std::vector<kb::Entity> entities;
  entities.reserve(examples.size());
  for (const auto& ex : examples) entities.push_back(kb.entity(ex.entity_id));
  tensor::Var mentions = EncodeMentions(graph, examples);
  tensor::Var ents = EncodeEntities(graph, entities);
  // Scores scaled up so softmax over unit-vector dot products (range
  // [-1, 1]) has usable dynamic range — a fixed inverse temperature.
  tensor::Var scores = graph->Scale(graph->MatMulTransposeB(mentions, ents),
                                    10.0f);
  std::vector<std::size_t> targets(examples.size());
  std::iota(targets.begin(), targets.end(), 0);
  return graph->SoftmaxCrossEntropy(scores, std::move(targets));
}

tensor::Tensor BiEncoder::EmbedEntityIds(const std::vector<kb::EntityId>& ids,
                                         const kb::KnowledgeBase& kb) const {
  std::vector<kb::Entity> entities;
  entities.reserve(ids.size());
  for (kb::EntityId id : ids) entities.push_back(kb.entity(id));
  tensor::Graph graph;
  tensor::Var v = EncodeEntities(&graph, entities);
  return graph.value(v);
}

tensor::Tensor BiEncoder::EmbedMentions(
    const std::vector<data::LinkingExample>& examples) const {
  tensor::Graph graph;
  tensor::Var v = EncodeMentions(&graph, examples);
  return graph.value(v);
}

void BiEncoder::EncodeBagsInference(std::size_t n,
                                    const tensor::Parameter& table,
                                    const tensor::Parameter& proj,
                                    EncodeScratch* scratch,
                                    tensor::Tensor* out) const {
  const std::size_t d = config_.dim;
  METABLINK_CHECK(scratch->bags.size() >= n) << "not enough featurized bags";
  // Mean-pool the embedding bags — the same ascending-id Axpy accumulation
  // as Graph::EmbeddingBagMean's forward gather.
  scratch->hidden.Resize(n, d);
  for (std::size_t b = 0; b < n; ++b) {
    const auto& bag = scratch->bags[b];
    if (bag.empty()) continue;
    const float inv = 1.0f / static_cast<float>(bag.size());
    float* dst = scratch->hidden.row_data(b);
    for (std::uint32_t id : bag) {
      METABLINK_CHECK(id < table.value.rows()) << "embedding id out of range";
      tensor::Axpy(inv, table.value.row_data(id), dst, d);
    }
  }
  for (float& v : scratch->hidden.data()) v = std::tanh(v);
  // Projection through the same serial blocked kernel Graph::MatMul uses.
  out->Resize(n, d);
  tensor::GemmRaw(scratch->hidden.data().data(), proj.value.data().data(),
                  out->data().data(), n, d, d);
  // Row L2 normalization, identical formula to Graph::RowL2Normalize
  // (norm floored at the same epsilon).
  constexpr float kEps = 1e-8f;
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out->row_data(i);
    const float n2 = tensor::Dot(row, row, d);
    const float inv = 1.0f / std::max(std::sqrt(n2), kEps);
    for (std::size_t c = 0; c < d; ++c) row[c] *= inv;
  }
}

void BiEncoder::EncodeMentionsInference(
    const std::vector<data::LinkingExample>& examples, EncodeScratch* scratch,
    tensor::Tensor* out) const {
  const std::size_t n = examples.size();
  if (scratch->bags.size() < n) scratch->bags.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    featurizer_.MentionBagInto(examples[i], &scratch->bags[i]);
  }
  EncodeBagsInference(n, *mention_table_, *mention_proj_, scratch, out);
}

void BiEncoder::EncodeEntitiesInference(
    const std::vector<kb::Entity>& entities, EncodeScratch* scratch,
    tensor::Tensor* out) const {
  const std::size_t n = entities.size();
  if (scratch->bags.size() < n) scratch->bags.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    featurizer_.EntityBagInto(entities[i], &scratch->bags[i]);
  }
  EncodeBagsInference(n, *entity_table_, *entity_proj_, scratch, out);
}

void BiEncoder::EncodeMentionBagsInference(std::size_t n,
                                           EncodeScratch* scratch,
                                           tensor::Tensor* out) const {
  EncodeBagsInference(n, *mention_table_, *mention_proj_, scratch, out);
}

void BiEncoder::SaveCheckpoint(store::CheckpointWriter* ckpt) const {
  util::BinaryWriter* config = ckpt->AddSection("bi_config");
  config->WriteU64(config_.dim);
  SaveFeatureConfig(config_.features, config);
  params_.Save(ckpt->AddSection("bi_params"));
}

util::Result<BiEncoderConfig> BiEncoder::ReadConfig(
    const store::CheckpointReader& ckpt) {
  auto section = ckpt.Section("bi_config");
  if (!section.ok()) return section.status();
  BiEncoderConfig config;
  std::uint64_t dim = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&dim));
  config.dim = static_cast<std::size_t>(dim);
  METABLINK_RETURN_IF_ERROR(LoadFeatureConfig(&*section, &config.features));
  return config;
}

util::Status BiEncoder::LoadCheckpoint(const store::CheckpointReader& ckpt) {
  auto stored = ReadConfig(ckpt);
  if (!stored.ok()) return stored.status();
  if (stored->dim != config_.dim ||
      !FeatureConfigsMatch(stored->features, config_.features)) {
    return util::Status::InvalidArgument(
        "bi-encoder checkpoint config does not match this model");
  }
  auto section = ckpt.Section("bi_params");
  if (!section.ok()) return section.status();
  return params_.Load(&*section);
}

util::Status BiEncoder::SaveToFile(const std::string& path) const {
  store::CheckpointWriter ckpt;
  SaveCheckpoint(&ckpt);
  return ckpt.WriteToFile(path);
}

util::Status BiEncoder::LoadFromFile(const std::string& path) {
  auto ckpt = store::CheckpointReader::FromFile(path);
  if (!ckpt.ok()) return ckpt.status();
  return LoadCheckpoint(*ckpt);
}

}  // namespace metablink::model
