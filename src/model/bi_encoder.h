#ifndef METABLINK_MODEL_BI_ENCODER_H_
#define METABLINK_MODEL_BI_ENCODER_H_

#include <memory>
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

/// Bi-encoder hyperparameters.
struct BiEncoderConfig {
  FeatureConfig features;
  /// Embedding / representation dimension.
  std::size_t dim = 64;
};

/// Caller-owned scratch for the tape-free encode path. Reusing one scratch
/// across calls makes the numeric path (gather + tanh + GEMM + normalize)
/// allocation-free after warm-up; buffers only ever grow.
struct EncodeScratch {
  std::vector<std::vector<std::uint32_t>> bags;
  tensor::Tensor hidden;  // [n, dim] pooled bag, tanh'd in place
};

/// BLINK-style bi-encoder: two independent towers (ENCODER^m, ENCODER^e of
/// eq. 3-4) embed mentions-with-context and entities-with-description into a
/// shared d-dimensional space; the match score (eq. 5) is the dot product of
/// L2-normalized representations, and training uses the in-batch-negatives
/// loss of eq. 6. Stage-1 candidate generation retrieves the top-64 entities
/// by this score.
///
/// Each tower is EmbeddingBag(hashed features) -> tanh -> Linear -> L2-norm.
class BiEncoder {
 public:
  /// Builds a freshly initialized model.
  BiEncoder(BiEncoderConfig config, util::Rng* rng);

  /// Encodes a batch of mentions; returns a [n, dim] Var of unit rows.
  tensor::Var EncodeMentions(
      tensor::Graph* graph,
      const std::vector<data::LinkingExample>& examples) const;

  /// Encodes a batch of entities; returns a [n, dim] Var of unit rows.
  tensor::Var EncodeEntities(tensor::Graph* graph,
                             const std::vector<kb::Entity>& entities) const;

  /// Per-example in-batch-negatives loss (eq. 6): the batch's entities act
  /// as each other's negatives. Returns a [n,1] Var of losses.
  tensor::Var InBatchLoss(tensor::Graph* graph,
                          const std::vector<data::LinkingExample>& examples,
                          const kb::KnowledgeBase& kb) const;

  /// Inference: embeds all `ids` without building gradient state the caller
  /// cares about. Returns a [ids.size(), dim] tensor.
  tensor::Tensor EmbedEntityIds(const std::vector<kb::EntityId>& ids,
                                const kb::KnowledgeBase& kb) const;

  /// Inference: embeds mentions. Returns [examples.size(), dim].
  tensor::Tensor EmbedMentions(
      const std::vector<data::LinkingExample>& examples) const;

  // ---- Tape-free serving path --------------------------------------------
  //
  // The Encode*Inference methods run the identical forward computation as
  // the Graph path (EmbeddingBag mean gather -> tanh -> projection GEMM ->
  // row L2 normalize) directly through tensor::kernels: zero Graph nodes,
  // no tape metadata, and no allocations after warm-up when `scratch` and
  // `*out` are reused. Results are bit-identical to EmbedMentions /
  // EmbedEntityIds (same kernels, same accumulation order).

  /// Encodes mentions into `*out` ([examples.size(), dim] unit rows).
  void EncodeMentionsInference(
      const std::vector<data::LinkingExample>& examples,
      EncodeScratch* scratch, tensor::Tensor* out) const;

  /// Encodes entities into `*out` ([entities.size(), dim] unit rows).
  void EncodeEntitiesInference(const std::vector<kb::Entity>& entities,
                               EncodeScratch* scratch,
                               tensor::Tensor* out) const;

  /// Encodes pre-featurized bags through the mention tower. `n` rows of
  /// `scratch->bags` are consumed; lets callers (e.g. the feature cache)
  /// featurize separately from encoding.
  void EncodeMentionBagsInference(std::size_t n, EncodeScratch* scratch,
                                  tensor::Tensor* out) const;

  tensor::ParameterStore* params() { return &params_; }
  const tensor::ParameterStore* params() const { return &params_; }
  const Featurizer& featurizer() const { return featurizer_; }
  const BiEncoderConfig& config() const { return config_; }
  std::size_t dim() const { return config_.dim; }

  // ---- Checkpointing -----------------------------------------------------

  /// Adds "bi_config" + "bi_params" sections to `ckpt`.
  void SaveCheckpoint(store::CheckpointWriter* ckpt) const;

  /// Restores weights from a container written by SaveCheckpoint. The
  /// stored config must match this model's (InvalidArgument otherwise).
  util::Status LoadCheckpoint(const store::CheckpointReader& ckpt);

  /// Reads just the stored config, so a caller can construct a matching
  /// model before LoadCheckpoint.
  static util::Result<BiEncoderConfig> ReadConfig(
      const store::CheckpointReader& ckpt);

  /// Writes a framed checkpoint container (see store::CheckpointWriter).
  util::Status SaveToFile(const std::string& path) const;
  /// Loads a framed container written by SaveToFile; any other file is
  /// rejected.
  util::Status LoadFromFile(const std::string& path);

 private:
  tensor::Var EncodeBags(tensor::Graph* graph,
                         std::vector<std::vector<std::uint32_t>> bags,
                         tensor::Parameter* table, tensor::Parameter* proj,
                         tensor::Parameter* bias) const;

  /// Tape-free tower forward over the first `n` bags in `scratch->bags`.
  void EncodeBagsInference(std::size_t n, const tensor::Parameter& table,
                           const tensor::Parameter& proj,
                           EncodeScratch* scratch, tensor::Tensor* out) const;

  BiEncoderConfig config_;
  Featurizer featurizer_;
  tensor::ParameterStore params_;
  tensor::Parameter* mention_table_;
  tensor::Parameter* mention_proj_;
  tensor::Parameter* mention_bias_;
  tensor::Parameter* entity_table_;
  tensor::Parameter* entity_proj_;
  tensor::Parameter* entity_bias_;
};

}  // namespace metablink::model

#endif  // METABLINK_MODEL_BI_ENCODER_H_
