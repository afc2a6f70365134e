#include "experiment_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace metablink::bench {

double ExperimentScale() {
  const char* env = std::getenv("METABLINK_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 0.5;
}

std::uint64_t ExperimentSeed() {
  const char* env = std::getenv("METABLINK_SEED");
  if (env != nullptr) return std::strtoull(env, nullptr, 10);
  return 42;
}

data::Corpus BuildPaperCorpus(double scale, std::uint64_t seed) {
  data::GeneratorOptions opts;
  opts.seed = seed;
  data::ZeshelLikeGenerator generator(opts);
  auto corpus =
      generator.Generate(data::ZeshelLikeGenerator::PaperDomains(scale));
  METABLINK_CHECK(corpus.ok()) << corpus.status();
  return std::move(*corpus);
}

ExperimentWorld::ExperimentWorld(double scale, std::uint64_t seed)
    : seed_(seed), corpus_(BuildPaperCorpus(scale, seed)) {}

core::PipelineConfig ExperimentWorld::DefaultConfig() const {
  core::PipelineConfig config;
  config.seed = seed_ ^ 0xBEEF;
  return config;
}

std::unique_ptr<core::MetaBlinkPipeline> ExperimentWorld::MakePipeline()
    const {
  auto pipeline = std::make_unique<core::MetaBlinkPipeline>(DefaultConfig());
  auto status = pipeline->TrainRewriter(
      corpus_, data::ZeshelLikeGenerator::TrainDomainNames());
  METABLINK_CHECK(status.ok()) << status;
  return pipeline;
}

DomainContext ExperimentWorld::MakeDomainContext(const std::string& domain) {
  DomainContext ctx;
  ctx.domain = domain;
  ctx.split = data::MakeFewShotSplit(corpus_.ExamplesIn(domain), 50, 50,
                                     seed_ ^ 0x5711);
  auto pipeline = MakePipeline();
  ctx.exact = pipeline->BuildExactMatchData(corpus_, domain);
  auto syn = pipeline->BuildSyntheticData(corpus_, domain,
                                          /*adapt_to_domain=*/false);
  METABLINK_CHECK(syn.ok()) << syn.status();
  ctx.syn = std::move(*syn);
  auto syn_star = pipeline->BuildSyntheticData(corpus_, domain,
                                               /*adapt_to_domain=*/true);
  METABLINK_CHECK(syn_star.ok()) << syn_star.status();
  ctx.syn_star = std::move(*syn_star);
  return ctx;
}

std::vector<data::LinkingExample> ExperimentWorld::GeneralData() const {
  std::vector<data::LinkingExample> out;
  for (const auto& domain : data::ZeshelLikeGenerator::TrainDomainNames()) {
    const auto& ex = corpus_.ExamplesIn(domain);
    out.insert(out.end(), ex.begin(), ex.end());
  }
  return out;
}

eval::EvalResult RunBlink(const ExperimentWorld& world,
                          const std::string& domain,
                          const std::vector<data::LinkingExample>&
                              training_data,
                          const std::vector<data::LinkingExample>& test) {
  core::MetaBlinkPipeline pipeline(world.DefaultConfig());
  auto status = pipeline.TrainSupervised(world.corpus().kb, training_data);
  METABLINK_CHECK(status.ok()) << status;
  auto result = pipeline.Evaluate(world.corpus().kb, domain, test);
  METABLINK_CHECK(result.ok()) << result.status();
  return *result;
}

eval::EvalResult RunDl4el(const ExperimentWorld& world,
                          const std::string& domain,
                          const std::vector<data::LinkingExample>&
                              training_data,
                          const std::vector<data::LinkingExample>& test) {
  core::MetaBlinkPipeline pipeline(world.DefaultConfig());
  train::Dl4elOptions dl4el;
  dl4el.train = world.DefaultConfig().bi_train;
  auto status =
      pipeline.TrainDl4el(world.corpus().kb, training_data, dl4el);
  METABLINK_CHECK(status.ok()) << status;
  auto result = pipeline.Evaluate(world.corpus().kb, domain, test);
  METABLINK_CHECK(result.ok()) << result.status();
  return *result;
}

eval::EvalResult RunMetaBlink(const ExperimentWorld& world,
                              const std::string& domain,
                              const std::vector<data::LinkingExample>&
                                  synthetic,
                              const std::vector<data::LinkingExample>&
                                  seed_set,
                              const std::vector<data::LinkingExample>& test,
                              const std::vector<data::LinkingExample>&
                                  pretrain) {
  core::MetaBlinkPipeline pipeline(world.DefaultConfig());
  if (!pretrain.empty()) {
    auto status = pipeline.TrainSupervised(world.corpus().kb, pretrain);
    METABLINK_CHECK(status.ok()) << status;
  }
  auto status = pipeline.TrainMeta(world.corpus().kb, synthetic, seed_set);
  METABLINK_CHECK(status.ok()) << status;
  auto result = pipeline.Evaluate(world.corpus().kb, domain, test);
  METABLINK_CHECK(result.ok()) << result.status();
  return *result;
}

double RunNameMatching(const ExperimentWorld& world, const std::string& domain,
                       const std::vector<data::LinkingExample>& test) {
  util::Rng rng(world.seed() ^ 0x4E4D);
  return eval::NameMatchingAccuracy(world.corpus().kb, domain, test, &rng);
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s %-20s %7s %7s %7s   %s\n", "method", "data", "R@64",
              "N.Acc", "U.Acc", "reference");
}

void PrintRow(const std::string& method, const std::string& data,
              const eval::EvalResult& r, const char* paper_note) {
  std::printf("%-28s %-20s %7.2f %7.2f %7.2f   %s\n", method.c_str(),
              data.c_str(), 100.0 * r.recall_at_k, 100.0 * r.normalized_acc,
              100.0 * r.unnormalized_acc,
              paper_note != nullptr ? paper_note : "");
}

void PrintScalarRow(const std::string& method, const std::string& data,
                    double value, const char* paper_note) {
  std::printf("%-28s %-20s %7s %7s %7.2f   %s\n", method.c_str(),
              data.c_str(), "-", "-", 100.0 * value,
              paper_note != nullptr ? paper_note : "");
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min<double>(v.size() - 1, std::ceil(p * v.size()) - 1));
  return v[idx];
}

namespace {
bool g_gates_ok = true;
}  // namespace

void Gate(bool ok, const char* what) {
  std::printf("  gate %-46s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) g_gates_ok = false;
}

bool GatesOk() { return g_gates_ok; }

}  // namespace metablink::bench
