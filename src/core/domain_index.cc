#include "core/domain_index.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace metablink::core {

util::Status BuildDomainIndex(const model::BiEncoder& bi,
                              const model::CrossEncoder& cross,
                              const kb::KnowledgeBase& kb,
                              const std::string& domain,
                              retrieval::DenseIndex* index,
                              model::CrossEntityCache* cross_cache) {
  const std::vector<kb::EntityId>& ids = kb.EntitiesInDomain(domain);
  if (ids.empty()) {
    return util::Status::NotFound("domain has no entities: " + domain);
  }
  const std::size_t d = bi.dim();
  tensor::Tensor all(ids.size(), d);
  // Chunked so the encode scratch stays small. Cold path: local scratch.
  const std::size_t chunk = 256;
  model::EncodeScratch encode_scratch;
  tensor::Tensor encoded;
  std::vector<kb::Entity> part;
  std::vector<kb::Entity> entities;
  entities.reserve(ids.size());
  for (std::size_t begin = 0; begin < ids.size(); begin += chunk) {
    const std::size_t end = std::min(ids.size(), begin + chunk);
    part.clear();
    part.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      part.push_back(kb.entity(ids[i]));
    }
    bi.EncodeEntitiesInference(part, &encode_scratch, &encoded);
    for (std::size_t r = 0; r < encoded.rows(); ++r) {
      std::copy(encoded.row_data(r), encoded.row_data(r) + d,
                all.row_data(begin + r));
      entities.push_back(part[r]);
    }
  }
  METABLINK_RETURN_IF_ERROR(index->Build(std::move(all), ids));
  // Entity-side rerank work, hoisted out of the per-mention path.
  cross.PrecomputeEntities(entities, cross_cache);
  return util::Status::OK();
}

void MapEntityRows(const retrieval::DenseIndex& index,
                   std::unordered_map<kb::EntityId, std::size_t>* out) {
  const std::vector<kb::EntityId>& ids = index.ids();
  out->clear();
  out->reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) (*out)[ids[i]] = i;
}

}  // namespace metablink::core
