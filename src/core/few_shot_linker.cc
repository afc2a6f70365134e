#include "core/few_shot_linker.h"

#include <algorithm>
#include <utility>

namespace metablink::core {

FewShotLinker::FewShotLinker(PipelineConfig config)
    : pipeline_(std::move(config)) {}

util::Status FewShotLinker::Fit(
    const data::Corpus& corpus,
    const std::vector<std::string>& source_domains,
    const std::string& target_domain,
    const std::vector<data::LinkingExample>& seed_examples,
    std::size_t max_heuristic_seeds) {
  // Unfit first: training below mutates the encoders the old structure was
  // built from, so a fit that fails midway must not leave it serving.
  domain_.reset();
  corpus_ = nullptr;
  target_domain_.clear();
  if (corpus.kb.EntitiesInDomain(target_domain).empty()) {
    return util::Status::NotFound("target domain has no entities: " +
                                  target_domain);
  }
  METABLINK_RETURN_IF_ERROR(pipeline_.TrainRewriter(corpus, source_domains));
  auto synthetic = pipeline_.BuildSyntheticData(corpus, target_domain,
                                                /*adapt_to_domain=*/true);
  if (!synthetic.ok()) return synthetic.status();
  num_synthetic_ = synthetic->size();

  std::vector<data::LinkingExample> seeds = seed_examples;
  if (seeds.empty()) {
    // Zero-shot: build the seed set with the paper's heuristics.
    seeds = gen::HeuristicSeeds(corpus.kb, target_domain, *synthetic,
                                max_heuristic_seeds);
    if (seeds.empty()) {
      return util::Status::FailedPrecondition(
          "no seed examples given and heuristics produced none");
    }
  }
  num_seeds_ = seeds.size();

  METABLINK_RETURN_IF_ERROR(
      pipeline_.TrainMeta(corpus.kb, *synthetic, seeds));
  auto domain = std::make_unique<DomainIndex>();
  METABLINK_RETURN_IF_ERROR(BuildDomainIndex(
      *pipeline_.bi_encoder(), *pipeline_.cross_encoder(), corpus.kb,
      target_domain, &domain->index, &domain->cross_cache));
  MapEntityRows(domain->index, &domain->entity_pos);
  corpus_ = &corpus;
  target_domain_ = target_domain;
  domain_ = std::move(domain);
  return util::Status::OK();
}

util::Result<std::vector<LinkPrediction>> FewShotLinker::Link(
    const std::string& mention, const std::string& left_context,
    const std::string& right_context, std::size_t top_k) const {
  if (domain_ == nullptr) {
    return util::Status::FailedPrecondition("call Fit before Link");
  }
  // The steps of MetaBlinkPipeline::Link, over the prebuilt entity side:
  // every kernel below is bit-identical to its tape-path counterpart there.
  std::vector<data::LinkingExample> one(1);
  data::LinkingExample& ex = one[0];
  ex.mention = mention;
  ex.left_context = left_context;
  ex.right_context = right_context;
  ex.domain = target_domain_;
  model::EncodeScratch encode_scratch;
  tensor::Tensor query;
  pipeline_.bi_encoder()->EncodeMentionsInference(one, &encode_scratch,
                                                  &query);
  std::vector<retrieval::ScoredEntity> cands =
      domain_->index.TopK(query.row_data(0), pipeline_.config().eval.k);
  if (cands.empty()) {
    return util::Status::NotFound("no candidates retrieved");
  }
  std::vector<std::size_t> rows;
  rows.reserve(cands.size());
  for (const auto& c : cands) rows.push_back(domain_->entity_pos.at(c.id));
  model::CrossScoreScratch cross_scratch;
  std::vector<float> scores;
  pipeline_.cross_encoder()->ScoreCachedInference(
      ex, rows, domain_->cross_cache, &cross_scratch, &scores);
  for (std::size_t i = 0; i < cands.size(); ++i) cands[i].score = scores[i];
  std::sort(cands.begin(), cands.end(),
            [](const retrieval::ScoredEntity& a,
               const retrieval::ScoredEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (cands.size() > top_k) cands.resize(top_k);
  std::vector<LinkPrediction> out;
  out.reserve(cands.size());
  for (const auto& c : cands) {
    LinkPrediction p;
    p.entity_id = c.id;
    p.title = corpus_->kb.entity(c.id).title;
    p.score = c.score;
    out.push_back(std::move(p));
  }
  return out;
}

util::Result<eval::EvalResult> FewShotLinker::Evaluate(
    const std::vector<data::LinkingExample>& examples) const {
  if (domain_ == nullptr) {
    return util::Status::FailedPrecondition("call Fit before Evaluate");
  }
  return pipeline_.Evaluate(corpus_->kb, target_domain_, examples);
}

}  // namespace metablink::core
