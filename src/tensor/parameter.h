#ifndef METABLINK_TENSOR_PARAMETER_H_
#define METABLINK_TENSOR_PARAMETER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace metablink::tensor {

/// A trainable weight matrix with its gradient accumulator. Parameters are
/// owned by a ParameterStore and referenced (never copied) by autodiff
/// graphs and optimizers.
///
/// Large embedding tables opt into row-sparse gradient tracking
/// (`row_sparse_grad`): ops that scatter into the gradient mark the touched
/// rows, and ZeroGrads / GradDot / optimizers then only visit those rows.
/// This is what makes the per-example gradient loop of the meta trainer
/// tractable (each example touches a few hundred of tens of thousands of
/// rows).
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Enables touched-row tracking; set via ParameterStore::CreateEmbedding.
  bool row_sparse_grad = false;
  /// Rows with (potentially) non-zero gradient, deduplicated via the mask.
  std::vector<std::uint32_t> touched_rows;
  std::vector<std::uint8_t> touched_mask;

  Parameter(std::string n, std::size_t rows, std::size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}

  /// Marks `row` as holding gradient (no-op unless row_sparse_grad).
  void TouchRow(std::uint32_t row) {
    if (!row_sparse_grad) return;
    if (touched_mask[row] == 0) {
      touched_mask[row] = 1;
      touched_rows.push_back(row);
    }
  }
};

/// Owns a model's parameters. Provides the flattened-gradient views used by
/// the meta-learning reweighting step (gradient dot products) and
/// checkpointing.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;

  /// Creates a zero-initialized parameter. Names must be unique.
  Parameter* Create(const std::string& name, std::size_t rows,
                    std::size_t cols);

  /// Creates a parameter with Xavier/Glorot uniform init:
  /// U(-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))).
  Parameter* CreateXavier(const std::string& name, std::size_t rows,
                          std::size_t cols, util::Rng* rng);

  /// Creates a parameter with scaled normal init (std = `stddev`).
  Parameter* CreateNormal(const std::string& name, std::size_t rows,
                          std::size_t cols, float stddev, util::Rng* rng);

  /// Creates an embedding table: normal init plus row-sparse gradient
  /// tracking (see Parameter).
  Parameter* CreateEmbedding(const std::string& name, std::size_t rows,
                             std::size_t cols, float stddev, util::Rng* rng);

  /// Looks up a parameter by name (nullptr if absent).
  Parameter* Find(const std::string& name);
  const Parameter* Find(const std::string& name) const;

  const std::vector<std::unique_ptr<Parameter>>& parameters() const {
    return params_;
  }

  /// Total number of scalar weights.
  std::size_t TotalSize() const;

  /// Zeroes every gradient.
  void ZeroGrads();

  /// Copies all gradients into one flat vector (parameter registration
  /// order). Used to hold the meta (seed-batch) gradient.
  std::vector<float> FlattenGrads() const;

  /// Dot product of the current gradients with a previously flattened
  /// gradient vector. Pre: snapshot.size() == TotalSize().
  double GradDot(const std::vector<float>& snapshot) const;

  /// Copies all values into one flat vector / restores them.
  std::vector<float> FlattenValues() const;
  util::Status LoadValues(const std::vector<float>& flat);

  /// CRC-32 over every parameter's raw value bytes in registration order.
  /// Two stores with identical weights have identical checksums, which is
  /// how the resume-parity tests and the checkpoint smoke gate assert
  /// bit-identity without holding both models in memory.
  std::uint32_t ValuesCrc32() const;

  /// Serializes names, shapes and values.
  void Save(util::BinaryWriter* writer) const;

  /// Restores values from `reader`. Parameters must already exist with
  /// matching names and shapes (i.e. build the model first, then Load).
  util::Status Load(util::BinaryReader* reader);

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

}  // namespace metablink::tensor

#endif  // METABLINK_TENSOR_PARAMETER_H_
