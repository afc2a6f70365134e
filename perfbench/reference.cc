#include "reference.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace mb = metablink;

ReferenceLinker::ReferenceLinker(const mb::model::BiEncoder* bi,
                                 const mb::model::CrossEncoder* cross,
                                 const mb::kb::KnowledgeBase* kb,
                                 const std::string& domain, std::size_t k)
    : bi_(bi), cross_(cross), kb_(kb), ids_(kb->EntitiesInDomain(domain)),
      k_(k) {
  entities_ = mb::tensor::Tensor(ids_.size(), bi->dim());
  pos_of_.assign(kb->num_entities(), ids_.size());
  // Tape-path encode in chunks, spread over the machine's cores: each chunk
  // builds its own graph and writes its own rows.
  constexpr std::size_t kChunk = 256;
  const std::size_t chunks = (ids_.size() + kChunk - 1) / kChunk;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  const std::size_t threads =
      std::max(1u, std::min<unsigned>(std::thread::hardware_concurrency(),
                                      static_cast<unsigned>(chunks)));
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t c = next.fetch_add(1); c < chunks;
           c = next.fetch_add(1)) {
        const std::size_t begin = c * kChunk;
        const std::size_t end = std::min(ids_.size(), begin + kChunk);
        const std::vector<mb::kb::EntityId> part(ids_.begin() + begin,
                                                 ids_.begin() + end);
        const mb::tensor::Tensor emb = bi->EmbedEntityIds(part, *kb);
        for (std::size_t r = 0; r < emb.rows(); ++r) {
          std::copy(emb.row_data(r), emb.row_data(r) + emb.cols(),
                    entities_.row_data(begin + r));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t i = 0; i < ids_.size(); ++i) pos_of_[ids_[i]] = i;
}

std::vector<double> ReferenceLinker::QueryScores(
    const mb::data::LinkingExample& example) const {
  const mb::tensor::Tensor q = bi_->EmbedMentions({example});
  const std::size_t d = bi_->dim();
  std::vector<double> scores(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const float* row = entities_.row_data(i);
    double dot = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      dot += static_cast<double>(q.at(0, j)) * static_cast<double>(row[j]);
    }
    scores[i] = dot;
  }
  return scores;
}

double ReferenceLinker::RetrievalScore(const mb::data::LinkingExample& example,
                                       mb::kb::EntityId id) const {
  const std::size_t pos = pos_of_.at(id);
  if (pos >= ids_.size()) return -1e300;  // not an entity of this domain
  return QueryScores(example)[pos];
}

float ReferenceLinker::CrossScore(const mb::data::LinkingExample& example,
                                  mb::kb::EntityId id) const {
  return cross_->Score(example, {kb_->entity(id)})[0];
}

ReferenceAnswer ReferenceLinker::Answer(
    const mb::data::LinkingExample& example) const {
  const std::vector<double> scores = QueryScores(example);
  std::vector<std::size_t> order(ids_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t k = std::min(k_, order.size());
  auto better = [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return ids_[a] < ids_[b];
  };
  std::partial_sort(order.begin(), order.begin() + k, order.end(), better);
  order.resize(k);

  ReferenceAnswer ans;
  ans.kth_score = k > 0 ? scores[order[k - 1]] : 0.0;
  std::vector<mb::kb::Entity> entities;
  entities.reserve(k);
  for (std::size_t pos : order) {
    entities.push_back(kb_->entity(ids_[pos]));
    if (ids_[pos] == example.entity_id) ans.gold_retrieved = true;
  }
  const std::vector<float> cross = cross_->Score(example, entities);
  ans.ranked.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    ans.ranked[i].id = ids_[order[i]];
    ans.ranked[i].score = cross[i];
  }
  std::sort(ans.ranked.begin(), ans.ranked.end(),
            [](const mb::retrieval::ScoredEntity& a,
               const mb::retrieval::ScoredEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  return ans;
}

std::vector<ReferenceAnswer> ReferenceLinker::AnswerAll(
    const std::vector<mb::data::LinkingExample>& examples,
    std::size_t threads) const {
  std::vector<ReferenceAnswer> out(examples.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  threads = std::max<std::size_t>(1, threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < examples.size();
           i = next.fetch_add(1)) {
        out[i] = Answer(examples[i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  return out;
}

std::string ReferenceLinker::Compare(
    const mb::data::LinkingExample& example, const ReferenceAnswer& ref,
    const std::vector<mb::retrieval::ScoredEntity>& served) const {
  if (served.size() != ref.ranked.size()) {
    return "served " + std::to_string(served.size()) +
           " candidates, reference has " + std::to_string(ref.ranked.size());
  }
  std::unordered_map<mb::kb::EntityId, float> ref_score;
  for (const auto& r : ref.ranked) ref_score[r.id] = r.score;
  std::size_t shared = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const auto& p = served[i];
    float expected = 0.0f;
    auto it = ref_score.find(p.id);
    if (it != ref_score.end()) {
      expected = it->second;
      ++shared;
    } else {
      // Only a near-tie at the k-th retrieval score may swap in.
      if (RetrievalScore(example, p.id) < ref.kth_score - kTieEpsilon) {
        return "entity " + std::to_string(p.id) +
               " is not in the reference top-k";
      }
      expected = CrossScore(example, p.id);
    }
    if (std::memcmp(&expected, &p.score, sizeof(float)) != 0) {
      return "score of entity " + std::to_string(p.id) +
             " differs from the tape path";
    }
    if (i > 0) {
      const auto& prev = served[i - 1];
      const bool ordered = prev.score > p.score ||
                           (prev.score == p.score && prev.id < p.id);
      if (!ordered) return "candidates not in (score desc, id asc) order";
    }
  }
  if (shared != ref.ranked.size()) {
    // Every reference candidate the server dropped must sit at the tie.
    std::unordered_map<mb::kb::EntityId, bool> in_served;
    for (const auto& p : served) in_served[p.id] = true;
    for (const auto& r : ref.ranked) {
      if (!in_served.count(r.id) &&
          RetrievalScore(example, r.id) > ref.kth_score + kTieEpsilon) {
        return "reference candidate " + std::to_string(r.id) +
               " is missing from the response";
      }
    }
  }
  return "";
}

}  // namespace perfbench
