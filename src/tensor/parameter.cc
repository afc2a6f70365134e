#include "tensor/parameter.h"

#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace metablink::tensor {

Parameter* ParameterStore::Create(const std::string& name, std::size_t rows,
                                  std::size_t cols) {
  METABLINK_CHECK(Find(name) == nullptr) << "duplicate parameter " << name;
  params_.push_back(std::make_unique<Parameter>(name, rows, cols));
  return params_.back().get();
}

Parameter* ParameterStore::CreateXavier(const std::string& name,
                                        std::size_t rows, std::size_t cols,
                                        util::Rng* rng) {
  Parameter* p = Create(name, rows, cols);
  const float bound =
      std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (float& v : p->value.data()) v = rng->NextFloat(-bound, bound);
  return p;
}

Parameter* ParameterStore::CreateNormal(const std::string& name,
                                        std::size_t rows, std::size_t cols,
                                        float stddev, util::Rng* rng) {
  Parameter* p = Create(name, rows, cols);
  for (float& v : p->value.data()) {
    v = static_cast<float>(rng->NextGaussian()) * stddev;
  }
  return p;
}

Parameter* ParameterStore::CreateEmbedding(const std::string& name,
                                           std::size_t rows, std::size_t cols,
                                           float stddev, util::Rng* rng) {
  Parameter* p = CreateNormal(name, rows, cols, stddev, rng);
  p->row_sparse_grad = true;
  p->touched_mask.assign(rows, 0);
  p->touched_rows.reserve(1024);
  return p;
}

Parameter* ParameterStore::Find(const std::string& name) {
  for (auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

const Parameter* ParameterStore::Find(const std::string& name) const {
  for (const auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

std::size_t ParameterStore::TotalSize() const {
  std::size_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

void ParameterStore::ZeroGrads() {
  for (auto& p : params_) {
    if (p->row_sparse_grad) {
      const std::size_t cols = p->grad.cols();
      for (std::uint32_t row : p->touched_rows) {
        std::fill_n(p->grad.row_data(row), cols, 0.0f);
        p->touched_mask[row] = 0;
      }
      p->touched_rows.clear();
    } else {
      p->grad.SetZero();
    }
  }
}

std::vector<float> ParameterStore::FlattenGrads() const {
  std::vector<float> out;
  out.reserve(TotalSize());
  for (const auto& p : params_) {
    out.insert(out.end(), p->grad.data().begin(), p->grad.data().end());
  }
  return out;
}

double ParameterStore::GradDot(const std::vector<float>& snapshot) const {
  double acc = 0.0;
  std::size_t offset = 0;
  for (const auto& p : params_) {
    const auto& g = p->grad.data();
    if (p->row_sparse_grad) {
      const std::size_t cols = p->grad.cols();
      for (std::uint32_t row : p->touched_rows) {
        const float* gr = p->grad.row_data(row);
        const float* sr = snapshot.data() + offset + row * cols;
        for (std::size_t c = 0; c < cols; ++c) {
          acc += static_cast<double>(gr[c]) * sr[c];
        }
      }
    } else {
      for (std::size_t i = 0; i < g.size(); ++i) {
        acc += static_cast<double>(g[i]) * snapshot[offset + i];
      }
    }
    offset += g.size();
  }
  return acc;
}

std::vector<float> ParameterStore::FlattenValues() const {
  std::vector<float> out;
  out.reserve(TotalSize());
  for (const auto& p : params_) {
    out.insert(out.end(), p->value.data().begin(), p->value.data().end());
  }
  return out;
}

std::uint32_t ParameterStore::ValuesCrc32() const {
  std::uint32_t crc = 0;
  for (const auto& p : params_) {
    crc = util::Crc32(p->value.data().data(),
                      p->value.data().size() * sizeof(float), crc);
  }
  return crc;
}

util::Status ParameterStore::LoadValues(const std::vector<float>& flat) {
  if (flat.size() != TotalSize()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "flat size %zu != total parameter size %zu", flat.size(),
        TotalSize()));
  }
  std::size_t offset = 0;
  for (auto& p : params_) {
    std::copy(flat.begin() + offset, flat.begin() + offset + p->value.size(),
              p->value.data().begin());
    offset += p->value.size();
  }
  return util::Status::OK();
}

void ParameterStore::Save(util::BinaryWriter* writer) const {
  writer->WriteU64(params_.size());
  for (const auto& p : params_) {
    writer->WriteString(p->name);
    writer->WriteU64(p->value.rows());
    writer->WriteU64(p->value.cols());
    writer->WriteFloatVector(p->value.data());
  }
}

util::Status ParameterStore::Load(util::BinaryReader* reader) {
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&n));
  if (n != params_.size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "checkpoint has %llu parameters, model has %zu",
        static_cast<unsigned long long>(n), params_.size()));
  }
  for (auto& p : params_) {
    std::string name;
    std::uint64_t rows = 0, cols = 0;
    METABLINK_RETURN_IF_ERROR(reader->ReadString(&name));
    METABLINK_RETURN_IF_ERROR(reader->ReadU64(&rows));
    METABLINK_RETURN_IF_ERROR(reader->ReadU64(&cols));
    if (name != p->name || rows != p->value.rows() ||
        cols != p->value.cols()) {
      return util::Status::InvalidArgument(
          util::StrFormat("checkpoint mismatch at parameter %s", name.c_str()));
    }
    METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&p->value.data()));
  }
  return util::Status::OK();
}

}  // namespace metablink::tensor
