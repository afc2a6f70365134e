#ifndef METABLINK_TRAIN_META_TRAINER_H_
#define METABLINK_TRAIN_META_TRAINER_H_

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/graph_lint.h"
#include "data/example.h"
#include "store/checkpoint.h"
#include "tensor/grad_workspace.h"
#include "tensor/graph.h"
#include "tensor/optimizer.h"
#include "tensor/parameter.h"
#include "train/cross_trainer.h"
#include "train/trainer_checkpoint.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace metablink::train {

/// How Step computes the per-example alignments raw[j] = ⟨∇_φ l_j, g_meta⟩.
enum class MetaGrad {
  /// One reverse pass per example (one-hot seed over the shared tape),
  /// serially — the reference implementation.
  kPerExample,
  /// One forward-mode sweep along direction g_meta: the tangent of the
  /// loss column is exactly (raw[0], …, raw[n-1]), so the whole batch
  /// costs about one forward pass instead of n backward passes. Matches
  /// kPerExample up to float rounding.
  kJvp,
};

/// Options for the learning-to-reweight loop (Algorithm 1).
struct MetaTrainOptions {
  /// Synthetic batch size n.
  std::size_t batch_size = 32;
  /// Seed (meta) batch size m.
  std::size_t meta_batch_size = 16;
  /// Total optimization steps T.
  std::size_t steps = 300;
  float learning_rate = 0.01f;
  std::uint64_t seed = 13;
  /// Apply the paper's eq. 13-14 normalization (clip negatives, divide by
  /// the weight sum, with the δ(·) guard when the sum is zero). Turning
  /// this off is an ablation knob.
  bool normalize_weights = true;
  /// Optional pool for graph ops. Not owned; nullptr (the default) keeps
  /// everything serial.
  util::ThreadPool* pool = nullptr;
  /// Per-example gradient strategy (see MetaGrad).
  MetaGrad meta_grad = MetaGrad::kPerExample;
  /// When non-empty, Train() writes the full trainer state (model
  /// parameters, Adam moments, Rng stream, step counter, selection stats)
  /// to this path every `checkpoint_every` steps and auto-resumes from it
  /// when the file already exists — a killed run continues bit-identically
  /// from the last saved step. A present-but-corrupt file fails the run
  /// instead of silently restarting it.
  std::string checkpoint_path{};
  /// Checkpoint cadence in steps (used only with checkpoint_path).
  std::size_t checkpoint_every = 25;
};

/// Per-source selection statistics: how often examples from a source
/// received a positive meta-weight (the Fig. 4 "selecting ratio").
struct SelectionStats {
  std::size_t seen = 0;
  std::size_t selected = 0;
  double weight_mass = 0.0;

  double SelectedRatio() const {
    return seen == 0
               ? 0.0
               : static_cast<double>(selected) / static_cast<double>(seen);
  }
};

/// Result of a meta-training run.
struct MetaTrainResult {
  std::size_t steps = 0;
  double final_synthetic_loss = 0.0;
  double final_seed_loss = 0.0;
  std::unordered_map<data::ExampleSource, SelectionStats> selection;
};

/// Provenance accessor used for selection bookkeeping; overload for any
/// instance type fed to the meta trainer.
inline data::ExampleSource SourceOf(const data::LinkingExample& ex) {
  return ex.source;
}
inline data::ExampleSource SourceOf(const CrossInstance& inst) {
  return inst.example.source;
}

/// Model-agnostic implementation of the paper's Algorithm 1 ("Learning to
/// Reweight Synthetic data"). A LossFn closes over a concrete model (bi- or
/// cross-encoder) and returns the per-example loss column ([n,1] Var) for a
/// batch of instances; the trainer owns the reweighting logic:
///
///   1. sample a synthetic batch (n) and a seed batch (m);
///   2. compute the meta gradient g_meta = ∇_φ mean-loss(seed batch). The
///      meta-forward/meta-backward pair of eq. 8-12 at w = 0 reduces to
///      w̃_j = max(0, ⟨∇_φ l_j, g_meta⟩) (the Ren et al. dot-product form;
///      DESIGN.md §4), computed with one-hot backward passes over one tape
///      or with a single forward-mode sweep, per MetaTrainOptions::meta_grad;
///   3. normalize weights per eq. 13-14;
///   4. take the optimizer step on the weighted synthetic loss (eq. 15).
///
/// InstanceT is data::LinkingExample for the bi-encoder and CrossInstance
/// for the cross-encoder.
template <typename InstanceT>
class MetaReweightTrainerT {
 public:
  using LossFn = std::function<tensor::Var(tensor::Graph*,
                                           const std::vector<InstanceT>&)>;

  /// `params` and `loss_fn` must refer to the same model and outlive the
  /// trainer.
  MetaReweightTrainerT(MetaTrainOptions options,
                       tensor::ParameterStore* params, LossFn loss_fn)
      : options_(options),
        params_(params),
        loss_fn_(std::move(loss_fn)),
        optimizer_(options.learning_rate),
        rng_(options.seed) {}

  /// One reweighted step on explicit batches; exposed for tests and for the
  /// Fig. 4 experiment. Returns the computed normalized weights, aligned
  /// with `synthetic_batch`.
  util::Result<std::vector<float>> Step(
      const std::vector<InstanceT>& synthetic_batch,
      const std::vector<InstanceT>& seed_batch) {
    if (synthetic_batch.size() < 2) {
      return util::Status::InvalidArgument("synthetic batch too small");
    }
    if (seed_batch.empty()) {
      return util::Status::InvalidArgument("seed batch is empty");
    }
    const std::size_t n = synthetic_batch.size();

    // Meta gradient: with w initialized to 0 the meta-forward step leaves
    // φ̂_t = φ_t (Algorithm 1 lines 4-6), so the seed loss and its gradient
    // are evaluated at the current parameters (line 7-8).
    {
      tensor::Graph seed_graph;
      seed_graph.SetPool(options_.pool);
      tensor::Var seed_losses = loss_fn_(&seed_graph, seed_batch);
      params_->ZeroGrads();
      std::vector<float> seed_seed(
          seed_batch.size(), 1.0f / static_cast<float>(seed_batch.size()));
      seed_graph.BackwardWithSeed(seed_losses, seed_seed);
      result_.final_seed_loss = 0.0;
      for (std::size_t i = 0; i < seed_batch.size(); ++i) {
        result_.final_seed_loss += seed_graph.value(seed_losses).at(i, 0);
      }
      result_.final_seed_loss /= static_cast<double>(seed_batch.size());
    }
    // The reverse-mode path dots per-example gradients against a flattened
    // snapshot of g_meta; the forward-mode path reads the direction
    // straight from Parameter::grad (left in place by the seed backward),
    // so it skips the snapshot copy entirely.
    std::vector<float> g_meta;
    if (options_.meta_grad != MetaGrad::kJvp) {
      g_meta = params_->FlattenGrads();
    }

    // Per-example gradient alignment (line 9) over one forward tape.
    tensor::Graph graph;
    graph.SetPool(options_.pool);
    tensor::Var losses = loss_fn_(&graph, synthetic_batch);
    if (result_.steps == 0) {
      // First-step graph lint: the tape's structure is identical on every
      // step (only the values change), so checking once per trainer proves
      // the whole run's graphs are well-formed at negligible cost.
      const analysis::LintReport lint = analysis::LintGraph(graph, losses);
      METABLINK_CHECK(lint.ok()) << "meta-reweight training graph failed "
                                 << "lint:\n"
                                 << lint.Summary();
    }
    std::vector<float> raw(n, 0.0f);
    if (options_.meta_grad == MetaGrad::kJvp) {
      // raw[j] = ⟨∇_φ l_j, g_meta⟩ is the directional derivative of l_j
      // along g_meta, so one JVP sweep yields the whole batch at once.
      const tensor::Tensor tangent = graph.Jvp(losses);
      for (std::size_t j = 0; j < n; ++j) raw[j] = tangent.at(j, 0);
    } else {
      // One-hot backward per example into Parameter::grad; the workspace
      // skips nodes whose gradient stays exactly zero.
      tensor::GradWorkspace ws;
      std::vector<float> one_hot(n, 0.0f);
      for (std::size_t j = 0; j < n; ++j) {
        params_->ZeroGrads();
        ws.Reset();
        one_hot[j] = 1.0f;
        graph.BackwardWithSeed(losses, one_hot, &ws);
        one_hot[j] = 0.0f;
        raw[j] = static_cast<float>(params_->GradDot(g_meta));
      }
    }

    // Eq. 13-14: clip negatives, normalize, δ(·)-guard the all-zero case.
    std::vector<float> weights(n, 0.0f);
    float total = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      weights[j] = std::max(0.0f, raw[j]);
      total += weights[j];
    }
    if (options_.normalize_weights) {
      const float denom = total > 0.0f ? total : 1.0f;
      for (float& w : weights) w /= denom;
    }

    // Selection bookkeeping (Fig. 4).
    for (std::size_t j = 0; j < n; ++j) {
      SelectionStats& s = result_.selection[SourceOf(synthetic_batch[j])];
      ++s.seen;
      if (weights[j] > 0.0f) ++s.selected;
      s.weight_mass += weights[j];
    }

    // Lines 10-12: optimize with the weighted loss.
    params_->ZeroGrads();
    graph.ResetGrads();
    graph.BackwardWithSeed(losses, weights);
    optimizer_.Step(params_);

    result_.final_synthetic_loss = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      result_.final_synthetic_loss +=
          graph.value(losses).at(j, 0) * weights[j];
    }
    ++result_.steps;
    return weights;
  }

  /// Serializes the complete training state — step counter, selection
  /// stats, model parameters, Adam moments, and the Rng stream — so a
  /// reloaded trainer continues bit-identically.
  void SaveCheckpoint(store::CheckpointWriter* ckpt) const {
    util::BinaryWriter* w = ckpt->AddSection("meta_trainer");
    w->WriteU32(kMetaTrainerTag);
    w->WriteU64(result_.steps);
    w->WriteF64(result_.final_synthetic_loss);
    w->WriteF64(result_.final_seed_loss);
    // Selection stats sorted by source id so identical states produce
    // identical bytes regardless of hash-map iteration order.
    std::vector<std::pair<std::uint32_t, SelectionStats>> entries;
    for (const auto& [source, stats] : result_.selection) {
      entries.emplace_back(static_cast<std::uint32_t>(source), stats);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w->WriteU64(entries.size());
    for (const auto& [source, stats] : entries) {
      w->WriteU32(source);
      w->WriteU64(stats.seen);
      w->WriteU64(stats.selected);
      w->WriteF64(stats.weight_mass);
    }
    params_->Save(ckpt->AddSection("model_params"));
    optimizer_.Save(*params_, ckpt->AddSection("optimizer"));
    util::BinaryWriter* rng = ckpt->AddSection("rng");
    for (std::uint64_t word : rng_.state()) rng->WriteU64(word);
  }

  /// Restores what SaveCheckpoint wrote, in place.
  util::Status LoadCheckpoint(const store::CheckpointReader& ckpt) {
    auto trainer = ckpt.Section("meta_trainer");
    if (!trainer.ok()) return trainer.status();
    std::uint32_t tag = 0;
    METABLINK_RETURN_IF_ERROR(trainer->ReadU32(&tag));
    if (tag != kMetaTrainerTag) {
      return util::Status::InvalidArgument(
          "checkpoint was written by a different trainer type");
    }
    MetaTrainResult result;
    std::uint64_t steps = 0;
    METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&steps));
    result.steps = static_cast<std::size_t>(steps);
    METABLINK_RETURN_IF_ERROR(trainer->ReadF64(&result.final_synthetic_loss));
    METABLINK_RETURN_IF_ERROR(trainer->ReadF64(&result.final_seed_loss));
    std::uint64_t num_sources = 0;
    METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&num_sources));
    for (std::uint64_t i = 0; i < num_sources; ++i) {
      std::uint32_t source = 0;
      SelectionStats stats;
      std::uint64_t seen = 0, selected = 0;
      METABLINK_RETURN_IF_ERROR(trainer->ReadU32(&source));
      METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&seen));
      METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&selected));
      METABLINK_RETURN_IF_ERROR(trainer->ReadF64(&stats.weight_mass));
      stats.seen = static_cast<std::size_t>(seen);
      stats.selected = static_cast<std::size_t>(selected);
      result.selection[static_cast<data::ExampleSource>(source)] = stats;
    }

    auto model_params = ckpt.Section("model_params");
    if (!model_params.ok()) return model_params.status();
    METABLINK_RETURN_IF_ERROR(params_->Load(&*model_params));

    auto opt = ckpt.Section("optimizer");
    if (!opt.ok()) return opt.status();
    METABLINK_RETURN_IF_ERROR(optimizer_.Load(*params_, &*opt));

    auto rng = ckpt.Section("rng");
    if (!rng.ok()) return rng.status();
    std::array<std::uint64_t, 4> state{};
    for (std::uint64_t& word : state) {
      METABLINK_RETURN_IF_ERROR(rng->ReadU64(&word));
    }
    rng_.set_state(state);
    result_ = std::move(result);
    return util::Status::OK();
  }

  /// Runs `options.steps` reweighted steps, sampling batches from
  /// `synthetic` (D_f) and `seed_set` (D_g). With checkpoint_path set, a
  /// rerun after a kill resumes from the last saved step instead of
  /// starting over.
  util::Result<MetaTrainResult> Train(
      const std::vector<InstanceT>& synthetic,
      const std::vector<InstanceT>& seed_set) {
    if (synthetic.size() < 2) {
      return util::Status::InvalidArgument(
          "need at least 2 synthetic examples");
    }
    if (seed_set.empty()) {
      return util::Status::InvalidArgument("seed set is empty");
    }
    if (!options_.checkpoint_path.empty() &&
        CheckpointExists(options_.checkpoint_path)) {
      auto ckpt =
          store::CheckpointReader::FromFile(options_.checkpoint_path);
      if (!ckpt.ok()) return ckpt.status();
      METABLINK_RETURN_IF_ERROR(LoadCheckpoint(*ckpt));
    }
    for (std::size_t step = result_.steps; step < options_.steps; ++step) {
      std::vector<InstanceT> synthetic_batch;
      for (std::size_t idx : rng_.SampleIndices(
               synthetic.size(),
               std::min(options_.batch_size, synthetic.size()))) {
        synthetic_batch.push_back(synthetic[idx]);
      }
      std::vector<InstanceT> seed_batch;
      for (std::size_t idx : rng_.SampleIndices(
               seed_set.size(),
               std::min(options_.meta_batch_size, seed_set.size()))) {
        seed_batch.push_back(seed_set[idx]);
      }
      auto weights = Step(synthetic_batch, seed_batch);
      if (!weights.ok()) return weights.status();
      if (!options_.checkpoint_path.empty() &&
          options_.checkpoint_every > 0 &&
          result_.steps % options_.checkpoint_every == 0) {
        store::CheckpointWriter ckpt;
        SaveCheckpoint(&ckpt);
        METABLINK_RETURN_IF_ERROR(
            ckpt.WriteToFile(options_.checkpoint_path));
      }
    }
    return result_;
  }

  const MetaTrainResult& result() const { return result_; }

 private:
  // Trainer-type tag ("METR") namespacing meta-reweight checkpoints.
  static constexpr std::uint32_t kMetaTrainerTag = 0x5254454Du;

  MetaTrainOptions options_;
  tensor::ParameterStore* params_;
  LossFn loss_fn_;
  tensor::AdamOptimizer optimizer_;
  util::Rng rng_;
  MetaTrainResult result_;
};

/// Meta trainer over plain linking examples (bi-encoder).
using MetaReweightTrainer = MetaReweightTrainerT<data::LinkingExample>;

/// Meta trainer over cross-encoder instances.
using CrossMetaTrainer = MetaReweightTrainerT<CrossInstance>;

}  // namespace metablink::train

#endif  // METABLINK_TRAIN_META_TRAINER_H_
