#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "retrieval/dense_index.h"
#include "tensor/tensor.h"

namespace perfbench {

/// One reference answer: the brute-force top-k candidate set and its
/// reranked order.
struct ReferenceAnswer {
  /// Candidates best first by (cross score desc, id asc); `score` is the
  /// tape-path CrossEncoder::Score value.
  std::vector<metablink::retrieval::ScoredEntity> ranked;
  /// Retrieval score (double precision) of the k-th candidate: entities
  /// within kTieEpsilon of it may swap in or out of a float scan's top k.
  double kth_score = 0.0;
  bool gold_retrieved = false;
};

/// Brute-force reference linker, independent of every serving structure:
/// it encodes every entity of the domain through the tape path
/// (BiEncoder::EmbedEntityIds), scans all of them in double precision for
/// the top k by (score desc, id asc), and reranks them with the tape path
/// CrossEncoder::Score. All output checks of the benchmark compare against
/// it.
class ReferenceLinker {
 public:
  /// Retrieval sets are equal when they differ only in entities whose
  /// reference score lies within this distance of the k-th score.
  static constexpr double kTieEpsilon = 1e-5;

  /// Borrows every argument; all must outlive the linker.
  ReferenceLinker(const metablink::model::BiEncoder* bi,
                  const metablink::model::CrossEncoder* cross,
                  const metablink::kb::KnowledgeBase* kb,
                  const std::string& domain, std::size_t k);

  /// Const and thread-safe.
  ReferenceAnswer Answer(const metablink::data::LinkingExample& example) const;

  /// Answers every example, in parallel over `threads` threads.
  std::vector<ReferenceAnswer> AnswerAll(
      const std::vector<metablink::data::LinkingExample>& examples,
      std::size_t threads) const;

  /// Double-precision retrieval score of `id` for `example`.
  double RetrievalScore(const metablink::data::LinkingExample& example,
                        metablink::kb::EntityId id) const;

  /// Tape-path cross score of one entity for `example`.
  float CrossScore(const metablink::data::LinkingExample& example,
                   metablink::kb::EntityId id) const;

  /// Checks a served, fully reranked candidate list against the reference:
  /// the same candidate set up to ties at the k-th score, every score equal
  /// to the tape-path score bit for bit, and the (score desc, id asc)
  /// order. Returns an empty string when it matches, else what differs.
  std::string Compare(
      const metablink::data::LinkingExample& example,
      const ReferenceAnswer& ref,
      const std::vector<metablink::retrieval::ScoredEntity>& served) const;


 private:
  std::vector<double> QueryScores(
      const metablink::data::LinkingExample& example) const;

  const metablink::model::BiEncoder* bi_;
  const metablink::model::CrossEncoder* cross_;
  const metablink::kb::KnowledgeBase* kb_;
  std::vector<metablink::kb::EntityId> ids_;
  std::vector<std::size_t> pos_of_;  // entity id -> row (kb-wide)
  metablink::tensor::Tensor entities_;
  std::size_t k_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
