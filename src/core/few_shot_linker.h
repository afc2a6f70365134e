#ifndef METABLINK_CORE_FEW_SHOT_LINKER_H_
#define METABLINK_CORE_FEW_SHOT_LINKER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/domain_index.h"
#include "core/pipeline.h"
#include "data/example.h"
#include "gen/seed_selector.h"
#include "util/status.h"

namespace metablink::core {

/// One ranked linking answer.
struct LinkPrediction {
  kb::EntityId entity_id = kb::kInvalidEntityId;
  std::string title;
  float score = 0.0f;
};

/// High-level façade over MetaBlinkPipeline — the five-line API a
/// downstream user adopts:
///
///   FewShotLinker linker;
///   linker.Fit(corpus, source_domains, "lego", seed_examples);
///   auto pred = linker.Link("minifigure", "the ... set contains a", "...");
///
/// Fit runs Algorithm 2 end-to-end: trains the rewriter on the source
/// domains, builds domain-adapted synthetic data for the target domain, and
/// meta-trains both encoders with the provided seed examples. When
/// `seed_examples` is empty, the zero-shot heuristics (filtered synthetic +
/// self-match, Sec. VI-C) construct the seed set instead.
class FewShotLinker {
 public:
  explicit FewShotLinker(PipelineConfig config = {});

  /// Trains the full system for `target_domain`, then encodes the target
  /// domain's entities once into the structure Link answers from. `corpus`
  /// must contain the target domain's entities and unlabeled documents, and
  /// labeled examples for every domain in `source_domains`, and must
  /// outlive the linker. A call on a fitted linker first unfits it: if the
  /// new fit fails, Link and Evaluate return kFailedPrecondition rather
  /// than serve the previous domain with half-retrained encoders.
  util::Status Fit(const data::Corpus& corpus,
                   const std::vector<std::string>& source_domains,
                   const std::string& target_domain,
                   const std::vector<data::LinkingExample>& seed_examples,
                   std::size_t max_heuristic_seeds = 50);

  bool fitted() const { return domain_ != nullptr; }
  const std::string& target_domain() const { return target_domain_; }

  /// Links a mention given its surface form and context. Returns up to
  /// `top_k` predictions, best first — the same ids and bit-identical
  /// scores as pipeline()->Link(kb, target_domain(), ...), which re-encodes
  /// the whole domain per call. Here the entity side comes from the
  /// structure Fit built, so a call costs one tape-free mention encode, one
  /// top-`config().eval.k` scan over the domain's rows, and a cached
  /// cross-encoder rerank of those candidates. Const and thread-safe: the
  /// structure is immutable after Fit and all scratch is per call.
  util::Result<std::vector<LinkPrediction>> Link(
      const std::string& mention, const std::string& left_context,
      const std::string& right_context, std::size_t top_k = 5) const;

  /// Evaluates on held-out examples of the target domain.
  util::Result<eval::EvalResult> Evaluate(
      const std::vector<data::LinkingExample>& examples) const;

  /// Number of synthetic pairs generated during Fit.
  std::size_t num_synthetic() const { return num_synthetic_; }
  /// Size of the seed set actually used (provided or heuristic).
  std::size_t num_seeds() const { return num_seeds_; }

  /// Read-only: the encoders change only through Fit, which rebuilds the
  /// structure Link answers from.
  const MetaBlinkPipeline* pipeline() const { return &pipeline_; }
  /// The corpus Fit was called with (null before Fit).
  const data::Corpus* corpus() const { return corpus_; }

 private:
  MetaBlinkPipeline pipeline_;
  const data::Corpus* corpus_ = nullptr;
  std::string target_domain_;
  /// The target domain's entity side under the fitted encoders; null
  /// exactly when the linker is not fitted.
  std::unique_ptr<const DomainIndex> domain_;
  std::size_t num_synthetic_ = 0;
  std::size_t num_seeds_ = 0;
};

}  // namespace metablink::core

#endif  // METABLINK_CORE_FEW_SHOT_LINKER_H_
