#include "worlds.h"

#include <algorithm>

#include "data/generator.h"
#include "eval/evaluator.h"
#include "load/workload.h"
#include "train/bi_trainer.h"
#include "train/cross_trainer.h"
#include "util/rng.h"

namespace perfbench {

namespace mb = metablink;

std::uint64_t SubSeed(std::uint64_t seed, const char* stream) {
  std::uint64_t h = mb::load::Fnv64(seed);
  for (const char* c = stream; *c != '\0'; ++c) {
    h = mb::load::Fnv64(h ^ static_cast<unsigned char>(*c));
  }
  return h;
}

mb::util::Result<FitWorld> MakeFitWorld(std::uint64_t world_seed,
                                        std::uint64_t split_seed) {
  mb::data::GeneratorOptions options;
  options.seed = SubSeed(world_seed, "fit-world");
  mb::data::ZeshelLikeGenerator generator(options);
  std::vector<mb::data::DomainSpec> specs(3);
  specs[0].name = "starships";
  specs[0].num_entities = 200;
  specs[0].num_examples = 400;
  specs[1].name = "castles";
  specs[1].num_entities = 200;
  specs[1].num_examples = 400;
  specs[2].name = "minifigs";
  specs[2].num_entities = 250;
  specs[2].num_examples = 500;
  specs[2].num_documents = 400;
  specs[2].gap = 0.5;
  auto corpus = generator.Generate(specs);
  if (!corpus.ok()) return corpus.status();
  FitWorld world;
  world.corpus = std::move(corpus).value();
  world.sources = {"starships", "castles"};
  world.target = "minifigs";
  world.split = mb::data::MakeFewShotSplit(
      world.corpus.ExamplesIn(world.target), 50, 50,
      SubSeed(split_seed, "fit-split"));
  return world;
}

mb::util::Result<ServeWorld> MakeServeWorld(const ServeWorldSpec& spec,
                                            std::uint64_t seed) {
  mb::data::GeneratorOptions options;
  options.seed = SubSeed(seed, "serve-world");
  mb::data::ZeshelLikeGenerator generator(options);
  std::vector<mb::data::DomainSpec> specs(1);
  specs[0].name = "serving";
  specs[0].num_entities = spec.entities;
  specs[0].num_examples = spec.train + spec.heldout + spec.pool;
  specs[0].num_documents = 16;
  auto corpus = generator.Generate(specs);
  if (!corpus.ok()) return corpus.status();
  ServeWorld world;
  world.corpus = std::move(corpus).value();
  world.domain = "serving";
  std::vector<mb::data::LinkingExample> all =
      world.corpus.ExamplesIn(world.domain);
  if (all.size() < spec.train + spec.heldout + spec.pool) {
    return mb::util::Status::FailedPrecondition(
        "generator produced too few examples");
  }
  mb::util::Rng rng(SubSeed(seed, "serve-split"));
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.NextUint64(i)]);
  }
  auto take = [&all](std::size_t begin, std::size_t n) {
    return std::vector<mb::data::LinkingExample>(all.begin() + begin,
                                                 all.begin() + begin + n);
  };
  world.train = take(0, spec.train);
  world.heldout = take(spec.train, spec.heldout);
  world.pool = take(spec.train + spec.heldout, spec.pool);
  return world;
}

mb::util::Result<EncoderPair> FitSupervised(
    const mb::kb::KnowledgeBase& kb, const std::string& domain,
    const std::vector<mb::data::LinkingExample>& train,
    const SupervisedFitSpec& spec) {
  EncoderPair pair;
  mb::util::Rng bi_rng(SubSeed(spec.init_seed, "bi-init"));
  mb::util::Rng cross_rng(SubSeed(spec.init_seed, "cross-init"));
  pair.bi = std::make_unique<mb::model::BiEncoder>(mb::model::BiEncoderConfig{},
                                                   &bi_rng);
  pair.cross = std::make_unique<mb::model::CrossEncoder>(
      mb::model::CrossEncoderConfig{}, &cross_rng);

  mb::train::TrainOptions bi_opts;
  bi_opts.epochs = spec.bi_epochs;
  auto bi_result =
      mb::train::BiEncoderTrainer(bi_opts).Train(pair.bi.get(), kb, train);
  if (!bi_result.ok()) return bi_result.status();

  const mb::eval::TwoStageEvaluator miner;
  auto lists = miner.RetrieveCandidates(*pair.bi, kb, domain, train);
  if (!lists.ok()) return lists.status();
  auto instances =
      mb::train::MineCrossTrainingSet(train, *lists, spec.mined_candidates);
  if (instances.size() > spec.cross_instances) {
    instances.resize(spec.cross_instances);
  }
  mb::train::TrainOptions cross_opts;
  cross_opts.batch_size = 1;
  cross_opts.epochs = spec.cross_epochs;
  cross_opts.learning_rate = 0.005f;
  auto cross_result = mb::train::CrossEncoderTrainer(cross_opts).Train(
      pair.cross.get(), kb, instances);
  if (!cross_result.ok()) return cross_result.status();
  return pair;
}

}  // namespace perfbench
