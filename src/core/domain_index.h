#ifndef METABLINK_CORE_DOMAIN_INDEX_H_
#define METABLINK_CORE_DOMAIN_INDEX_H_

#include <cstddef>
#include <string>
#include <unordered_map>

#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "retrieval/dense_index.h"
#include "util/status.h"

namespace metablink::core {

/// One domain's entity side, encoded once so that linking a mention costs
/// only a mention encode, one top-k scan and a cached rerank. Row i of
/// `index` and of `cross_cache` is the same entity; `entity_pos` maps its
/// id back to i. Immutable once built, so any number of threads may read
/// it concurrently.
struct DomainIndex {
  retrieval::DenseIndex index;
  model::CrossEntityCache cross_cache;
  std::unordered_map<kb::EntityId, std::size_t> entity_pos;
};

/// Encodes `domain`'s entities tape-free (BiEncoder::
/// EncodeEntitiesInference, in chunks of 256) into `*index` in KB order,
/// and precomputes the cross-encoder entity cache in the same row order.
/// The rows are bit-identical to the tape path's. NotFound when the domain
/// has no entities. FewShotLinker::Fit and serve::LinkingServer build
/// their domain structures through this one function.
util::Status BuildDomainIndex(const model::BiEncoder& bi,
                              const model::CrossEncoder& cross,
                              const kb::KnowledgeBase& kb,
                              const std::string& domain,
                              retrieval::DenseIndex* index,
                              model::CrossEntityCache* cross_cache);

/// Fills `*out` with the id -> row map of `index`.
void MapEntityRows(const retrieval::DenseIndex& index,
                   std::unordered_map<kb::EntityId, std::size_t>* out);

}  // namespace metablink::core

#endif  // METABLINK_CORE_DOMAIN_INDEX_H_
