#ifndef METABLINK_MODEL_CROSS_ENCODER_H_
#define METABLINK_MODEL_CROSS_ENCODER_H_

#include <string>
#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "model/features.h"
#include "store/checkpoint.h"
#include "tensor/graph.h"
#include "tensor/parameter.h"
#include "util/rng.h"
#include "util/status.h"

namespace metablink::model {

/// Cross-encoder hyperparameters.
struct CrossEncoderConfig {
  FeatureConfig features;
  /// Embedding dimension of the joint representation.
  std::size_t dim = 64;
  /// Hidden width of the scoring MLP.
  std::size_t hidden = 64;
};

/// Caller-owned scratch for ScoreInference. Reused across calls, the
/// numeric path is allocation-free after warm-up.
struct CrossScoreScratch {
  std::vector<std::uint32_t> mention_bag;
  std::vector<std::vector<std::uint32_t>> entity_bags;
  std::vector<float> mention_vec;  // [dim] pooled + tanh'd mention tower
  tensor::Tensor entity_vec;       // [c, dim] pooled + tanh'd entities
  tensor::Tensor input;            // [c, 3*dim + kNumOverlapFeatures]
  tensor::Tensor hidden;           // [c, hidden]
  tensor::Tensor score;            // [c, 1]
  MentionTokens mention_tokens;    // used by ScoreCachedInference only
};

/// Everything about a fixed entity set that candidate scoring reuses:
/// the pooled + tanh'd entity-tower rows and the precomputed overlap
/// tokens. Built once per served domain (PrecomputeEntities); row i of
/// `entity_vec` / `tokens` corresponds to entity i of the input list.
struct CrossEntityCache {
  tensor::Tensor entity_vec;  // [n, dim]
  std::vector<CachedEntityTokens> tokens;
};

/// BLINK-style cross-encoder: stage-2 ranker that jointly reads the mention
/// (with context) and a candidate entity (with description) and outputs a
/// relevance score. Where BLINK concatenates the texts into one BERT pass,
/// this model concatenates [mention_vec, entity_vec, mention_vec *
/// entity_vec, dense overlap features] and scores with an MLP — a joint
/// interaction representation the bi-encoder cannot express.
class CrossEncoder {
 public:
  CrossEncoder(CrossEncoderConfig config, util::Rng* rng);

  /// Scores every candidate for one mention; returns a [c, 1] Var.
  tensor::Var ScoreCandidates(tensor::Graph* graph,
                              const data::LinkingExample& example,
                              const std::vector<kb::Entity>& candidates) const;

  /// Softmax cross-entropy ranking loss over the candidate list; returns a
  /// [1,1] Var. Pre: gold_index < candidates.size().
  tensor::Var RankingLoss(tensor::Graph* graph,
                          const data::LinkingExample& example,
                          const std::vector<kb::Entity>& candidates,
                          std::size_t gold_index) const;

  /// Inference scores for the candidates (no gradients kept).
  std::vector<float> Score(const data::LinkingExample& example,
                           const std::vector<kb::Entity>& candidates) const;

  /// Tape-free inference: the identical forward computation as
  /// ScoreCandidates run directly through tensor::kernels — zero Graph
  /// nodes, and allocation-free after warm-up when `scratch` and `*out`
  /// are reused. Appends candidate scores to `*out` after clearing it.
  /// Results are bit-identical to Score().
  void ScoreInference(const data::LinkingExample& example,
                      const std::vector<kb::Entity>& candidates,
                      CrossScoreScratch* scratch,
                      std::vector<float>* out) const;

  /// Builds the reusable entity-side cache for a fixed entity set (a
  /// served domain's KB slice).
  void PrecomputeEntities(const std::vector<kb::Entity>& entities,
                          CrossEntityCache* out) const;

  /// ScoreInference against cache rows instead of raw entities: candidate
  /// i is row `rows[i]` of `cache`. The per-candidate tokenization,
  /// hashing, and embedding-bag gather all disappear; scores are
  /// bit-identical to ScoreInference / Score on the same entities.
  void ScoreCachedInference(const data::LinkingExample& example,
                            const std::vector<std::size_t>& rows,
                            const CrossEntityCache& cache,
                            CrossScoreScratch* scratch,
                            std::vector<float>* out) const;

  /// Runs just the mention tower (bag gather + tanh) into
  /// scratch->mention_vec — the per-request half of ScoreCachedInference,
  /// exposed so the cascade's distilled tier can take the mention/entity
  /// tower dot without paying for the scoring MLP. Bit-identical to the
  /// vector ScoreCachedInference computes internally.
  void MentionVecInto(const data::LinkingExample& example,
                      CrossScoreScratch* scratch) const;

  tensor::ParameterStore* params() { return &params_; }
  const tensor::ParameterStore* params() const { return &params_; }
  const Featurizer& featurizer() const { return featurizer_; }
  const CrossEncoderConfig& config() const { return config_; }

  // ---- Checkpointing -----------------------------------------------------

  /// Adds "cross_config" + "cross_params" sections to `ckpt`.
  void SaveCheckpoint(store::CheckpointWriter* ckpt) const;

  /// Restores weights from a container written by SaveCheckpoint. The
  /// stored config must match this model's (InvalidArgument otherwise).
  util::Status LoadCheckpoint(const store::CheckpointReader& ckpt);

  /// Reads just the stored config, so a caller can construct a matching
  /// model before LoadCheckpoint.
  static util::Result<CrossEncoderConfig> ReadConfig(
      const store::CheckpointReader& ckpt);

  /// Writes a framed checkpoint container (see store::CheckpointWriter).
  util::Status SaveToFile(const std::string& path) const;
  /// Loads a framed container written by SaveToFile; any other file is
  /// rejected.
  util::Status LoadFromFile(const std::string& path);

 private:
  CrossEncoderConfig config_;
  Featurizer featurizer_;
  tensor::ParameterStore params_;
  tensor::Parameter* table_;      // shared embedding table for both texts
  tensor::Parameter* w1_;         // [3*dim + kNumOverlapFeatures, hidden]
  tensor::Parameter* b1_;         // [1, hidden]
  tensor::Parameter* w2_;         // [hidden, 1]
  tensor::Parameter* b2_;         // [1, 1]
};

}  // namespace metablink::model

#endif  // METABLINK_MODEL_CROSS_ENCODER_H_
