#ifndef PERFBENCH_WORLDS_H_
#define PERFBENCH_WORLDS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/example.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "util/status.h"

namespace perfbench {

/// Mixes a run seed with a stream name, so each input stream of a run
/// (world, split, traffic) is independent and reproducible.
std::uint64_t SubSeed(std::uint64_t seed, const char* stream);

/// The quickstart-shaped few-shot world: two labelled source domains
/// ("starships", "castles"; 200 entities, 400 examples each) and the
/// target "minifigs" (250 entities, 500 examples, 400 documents, gap 0.5),
/// split 50 seed / 50 dev / 400 test. The world comes from `world_seed`,
/// the split from `split_seed`.
struct FitWorld {
  metablink::data::Corpus corpus;
  std::vector<std::string> sources;
  std::string target;
  metablink::data::DomainSplit split;
};
metablink::util::Result<FitWorld> MakeFitWorld(std::uint64_t world_seed,
                                               std::uint64_t split_seed);

/// A one-domain serving world: `train` labels fit the encoders, `heldout`
/// labels measure the fitted model's U.Acc, and `pool` holds the distinct
/// requests traffic draws from. The three sets are disjoint.
struct ServeWorldSpec {
  std::size_t entities = 0;
  std::size_t train = 0;
  std::size_t heldout = 0;
  std::size_t pool = 0;
};
struct ServeWorld {
  metablink::data::Corpus corpus;
  std::string domain;
  std::vector<metablink::data::LinkingExample> train;
  std::vector<metablink::data::LinkingExample> heldout;
  std::vector<metablink::data::LinkingExample> pool;
};
metablink::util::Result<ServeWorld> MakeServeWorld(const ServeWorldSpec& spec,
                                                   std::uint64_t seed);

/// BLINK-style supervised fit of a fresh bi- and cross-encoder pair (the
/// library's default configs): the bi-encoder on in-batch negatives, then
/// the cross-encoder on candidates mined with it. Cross-encoder steps cost
/// about 10 ms each, so its training set is capped.
struct EncoderPair {
  std::unique_ptr<metablink::model::BiEncoder> bi;
  std::unique_ptr<metablink::model::CrossEncoder> cross;
};
struct SupervisedFitSpec {
  std::size_t bi_epochs = 3;
  std::size_t cross_epochs = 1;
  std::size_t cross_instances = 512;
  std::size_t mined_candidates = 16;
  std::uint64_t init_seed = 1;
};
metablink::util::Result<EncoderPair> FitSupervised(
    const metablink::kb::KnowledgeBase& kb, const std::string& domain,
    const std::vector<metablink::data::LinkingExample>& train,
    const SupervisedFitSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORLDS_H_
