#ifndef METABLINK_CORE_PIPELINE_H_
#define METABLINK_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/example.h"
#include "eval/evaluator.h"
#include "gen/exact_matcher.h"
#include "gen/rewriter.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "train/bi_trainer.h"
#include "train/cross_trainer.h"
#include "train/dl4el_trainer.h"
#include "train/meta_trainer.h"
#include "util/rng.h"
#include "util/status.h"

namespace metablink::core {

/// Everything configurable about a MetaBLINK run. Defaults are tuned for
/// the scaled-down synthetic benchmark (see DESIGN.md) and run on a laptop
/// CPU in seconds per domain.
struct PipelineConfig {
  model::BiEncoderConfig bi;
  model::CrossEncoderConfig cross;
  /// Supervised (BLINK) training.
  train::TrainOptions bi_train{.batch_size = 32, .epochs = 3,
                               .learning_rate = 0.01f, .seed = 7};
  train::TrainOptions cross_train{.batch_size = 1, .epochs = 2,
                                  .learning_rate = 0.005f, .seed = 7};
  /// Meta (Algorithm 1) training.
  /// Note the per-step cost of Algorithm 1 is quadratic in the synthetic
  /// batch size (each per-example gradient couples to the whole batch
  /// through the in-batch negatives), but retrieval quality needs the
  /// negatives: batch 32 with ~350 steps is the measured sweet spot.
  train::MetaTrainOptions meta_bi{.batch_size = 32, .meta_batch_size = 16,
                                  .steps = 350, .learning_rate = 0.01f};
  train::MetaTrainOptions meta_cross{.batch_size = 8, .meta_batch_size = 8,
                                     .steps = 150, .learning_rate = 0.005f};
  /// Supervised warm-up epochs on the trusted seed set before the meta loop
  /// (seeds the model with trusted structure so per-example gradient
  /// alignment is informative; 0 disables).
  std::size_t meta_warmup_epochs = 2;
  /// Weak supervision.
  gen::RewriterOptions rewriter;
  gen::ExactMatcherOptions exact;
  /// Candidates per cross-encoder training instance.
  std::size_t cross_train_candidates = 16;
  /// Two-stage evaluation (k = 64 as in the paper).
  eval::EvaluatorOptions eval;
  std::uint64_t seed = 1234;
};

/// End-to-end MetaBLINK system (Algorithm 2). Owns the two encoders and the
/// mention rewriter; the weak-supervision, training, and evaluation steps
/// are exposed separately so the experiment benches can compose regimes
/// (Seed / Syn / Syn+Seed / General+... / DL4EL / meta vs. plain).
///
/// Typical few-shot use (what FewShotLinker wraps):
///   MetaBlinkPipeline p(config);
///   p.TrainRewriter(corpus, source_domains);
///   auto syn = p.BuildSyntheticData(corpus, target, /*adapt=*/true);
///   p.TrainMeta(corpus.kb, *syn, seed_examples);
///   auto result = p.Evaluate(corpus.kb, target, test_examples);
class MetaBlinkPipeline {
 public:
  explicit MetaBlinkPipeline(PipelineConfig config = {});

  // ---- Weak supervision (Algorithm 2 steps 1-2) ---------------------------

  /// Fits the mention rewriter on labeled source-domain data (eq. 1).
  util::Status TrainRewriter(const data::Corpus& corpus,
                             const std::vector<std::string>& source_domains);

  /// Exact-match pairs from `domain`'s unlabeled documents.
  std::vector<data::LinkingExample> BuildExactMatchData(
      const data::Corpus& corpus, const std::string& domain) const;

  /// Full synthetic data: exact matching then mention rewriting (eq. 2).
  /// With `adapt_to_domain` the rewriter first runs the unsupervised
  /// domain-adaptation step (the syn* data of the paper).
  util::Result<std::vector<data::LinkingExample>> BuildSyntheticData(
      const data::Corpus& corpus, const std::string& domain,
      bool adapt_to_domain);

  // ---- Model training ------------------------------------------------------

  /// Plain BLINK: supervised bi-encoder then cross-encoder on `examples`
  /// (candidates for the cross stage are mined with the trained bi-encoder).
  util::Status TrainSupervised(const kb::KnowledgeBase& kb,
                               const std::vector<data::LinkingExample>&
                                   examples);

  /// DL4EL baseline: noise-aware bi-encoder (Le & Titov), supervised
  /// cross-encoder (the paper applies DL4EL to the bi-encoder only).
  util::Status TrainDl4el(const kb::KnowledgeBase& kb,
                          const std::vector<data::LinkingExample>& examples,
                          const train::Dl4elOptions& dl4el_options);

  /// MetaBLINK: Algorithm 1 on the bi-encoder, then on the cross-encoder,
  /// reweighting `synthetic` under the supervision of `seed_set`.
  util::Status TrainMeta(const kb::KnowledgeBase& kb,
                         const std::vector<data::LinkingExample>& synthetic,
                         const std::vector<data::LinkingExample>& seed_set);

  // ---- Inference / evaluation ----------------------------------------------

  /// Two-stage evaluation on one domain's examples. Const and safe to call
  /// from many threads at once: neither the encoders nor any shared
  /// scratch is mutated.
  util::Result<eval::EvalResult> Evaluate(
      const kb::KnowledgeBase& kb, const std::string& domain,
      const std::vector<data::LinkingExample>& examples) const;

  /// Links one mention end-to-end: stage-1 retrieval over the domain, then
  /// cross-encoder reranking. Returns candidates best-first. Const and
  /// thread-safe (see Evaluate). This is the per-call reference path: it
  /// encodes every entity of the domain through the tape and builds its
  /// index on each call. FewShotLinker::Link (and serve::LinkingServer)
  /// amortize that into one build per fit and return the same answers.
  util::Result<std::vector<retrieval::ScoredEntity>> Link(
      const kb::KnowledgeBase& kb, const std::string& domain,
      const data::LinkingExample& mention, std::size_t top_k) const;

  // ---- Accessors -----------------------------------------------------------

  model::BiEncoder* bi_encoder() { return bi_.get(); }
  const model::BiEncoder* bi_encoder() const { return bi_.get(); }
  model::CrossEncoder* cross_encoder() { return cross_.get(); }
  const model::CrossEncoder* cross_encoder() const { return cross_.get(); }
  gen::MentionRewriter* rewriter() { return &rewriter_; }
  const train::MetaTrainResult& last_meta_bi_result() const {
    return last_meta_bi_;
  }
  const train::MetaTrainResult& last_meta_cross_result() const {
    return last_meta_cross_;
  }
  const PipelineConfig& config() const { return config_; }

  /// Resets both encoders to fresh random initializations (new seed stream
  /// each call), so one pipeline can train several regimes in sequence.
  void ResetModels();

  /// Checkpointing: writes `<prefix>.bi` and `<prefix>.cross`.
  util::Status Save(const std::string& prefix) const;
  util::Status Load(const std::string& prefix);

 private:
  /// Builds cross-encoder instances by mining candidates with the current
  /// bi-encoder, grouped per domain.
  util::Result<std::vector<train::CrossInstance>> MineInstances(
      const kb::KnowledgeBase& kb,
      const std::vector<data::LinkingExample>& examples);

  PipelineConfig config_;
  util::Rng rng_;
  gen::MentionRewriter rewriter_;
  std::unique_ptr<model::BiEncoder> bi_;
  std::unique_ptr<model::CrossEncoder> cross_;
  eval::TwoStageEvaluator evaluator_;
  train::MetaTrainResult last_meta_bi_;
  train::MetaTrainResult last_meta_cross_;
};

}  // namespace metablink::core

#endif  // METABLINK_CORE_PIPELINE_H_
