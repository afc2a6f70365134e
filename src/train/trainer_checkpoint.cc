#include "train/trainer_checkpoint.h"

#include <sys/stat.h>

#include <array>

namespace metablink::train {

namespace {

void SaveRngState(const util::Rng& rng, util::BinaryWriter* w) {
  for (std::uint64_t word : rng.state()) w->WriteU64(word);
}

util::Status LoadRngState(util::BinaryReader* r, util::Rng* rng) {
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) {
    METABLINK_RETURN_IF_ERROR(r->ReadU64(&word));
  }
  rng->set_state(state);
  return util::Status::OK();
}

}  // namespace

bool CheckpointExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

util::Status SaveEpochCheckpoint(std::uint32_t tag,
                                 const EpochCheckpointState& state,
                                 const tensor::ParameterStore& params,
                                 const tensor::Optimizer& optimizer,
                                 const util::Rng& rng,
                                 const std::string& path) {
  store::CheckpointWriter ckpt;
  util::BinaryWriter* w = ckpt.AddSection("trainer");
  w->WriteU32(tag);
  w->WriteU64(state.next_epoch);
  w->WriteU64(state.order.size());
  for (std::uint64_t idx : state.order) w->WriteU64(idx);
  w->WriteU64(state.result.steps);
  w->WriteF64(state.result.final_epoch_loss);
  w->WriteU64(state.result.epoch_losses.size());
  for (double loss : state.result.epoch_losses) w->WriteF64(loss);
  params.Save(ckpt.AddSection("model_params"));
  optimizer.Save(params, ckpt.AddSection("optimizer"));
  SaveRngState(rng, ckpt.AddSection("rng"));
  return ckpt.WriteToFile(path);
}

util::Result<EpochCheckpointState> LoadEpochCheckpoint(
    std::uint32_t tag, const std::string& path,
    tensor::ParameterStore* params, tensor::Optimizer* optimizer,
    util::Rng* rng) {
  auto ckpt = store::CheckpointReader::FromFile(path);
  if (!ckpt.ok()) return ckpt.status();

  auto trainer = ckpt->Section("trainer");
  if (!trainer.ok()) return trainer.status();
  std::uint32_t stored_tag = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU32(&stored_tag));
  if (stored_tag != tag) {
    return util::Status::InvalidArgument(
        "checkpoint was written by a different trainer type: " + path);
  }
  EpochCheckpointState state;
  std::uint64_t next_epoch = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&next_epoch));
  state.next_epoch = static_cast<std::size_t>(next_epoch);
  std::uint64_t order_size = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&order_size));
  if (order_size > trainer->Remaining() / sizeof(std::uint64_t)) {
    return util::Status::OutOfRange(
        "truncated trainer state (example order): " + path);
  }
  state.order.resize(static_cast<std::size_t>(order_size));
  for (std::uint64_t& idx : state.order) {
    METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&idx));
  }
  std::uint64_t steps = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&steps));
  state.result.steps = static_cast<std::size_t>(steps);
  METABLINK_RETURN_IF_ERROR(trainer->ReadF64(&state.result.final_epoch_loss));
  std::uint64_t num_losses = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&num_losses));
  if (num_losses > trainer->Remaining() / sizeof(double)) {
    return util::Status::OutOfRange(
        "truncated trainer state (epoch losses): " + path);
  }
  state.result.epoch_losses.resize(static_cast<std::size_t>(num_losses));
  for (double& loss : state.result.epoch_losses) {
    METABLINK_RETURN_IF_ERROR(trainer->ReadF64(&loss));
  }

  auto model_params = ckpt->Section("model_params");
  if (!model_params.ok()) return model_params.status();
  METABLINK_RETURN_IF_ERROR(params->Load(&*model_params));

  auto opt = ckpt->Section("optimizer");
  if (!opt.ok()) return opt.status();
  METABLINK_RETURN_IF_ERROR(optimizer->Load(*params, &*opt));

  auto rng_section = ckpt->Section("rng");
  if (!rng_section.ok()) return rng_section.status();
  METABLINK_RETURN_IF_ERROR(LoadRngState(&*rng_section, rng));
  return state;
}

}  // namespace metablink::train
