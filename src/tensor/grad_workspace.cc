#include "tensor/grad_workspace.h"

#include "tensor/graph.h"

namespace metablink::tensor {

void GradWorkspace::EnsureSize(std::size_t n) {
  if (grads_.size() < n) {
    grads_.resize(n);
    dirty_.resize(n, 0);
  }
}

const Tensor& GradWorkspace::grad(const Graph& g, Var v) {
  EnsureSize(g.num_nodes());
  Tensor& t = grads_[static_cast<std::size_t>(v.id)];
  const Tensor& val = g.value(v);
  if (t.rows() != val.rows() || t.cols() != val.cols()) {
    t = Tensor(val.rows(), val.cols());
  }
  return t;
}

Tensor& GradWorkspace::GradForWrite(const Graph& g, Var v) {
  EnsureSize(g.num_nodes());
  const std::size_t id = static_cast<std::size_t>(v.id);
  Tensor& t = grads_[id];
  const Tensor& val = g.value(v);
  if (t.rows() != val.rows() || t.cols() != val.cols()) {
    t = Tensor(val.rows(), val.cols());
  }
  if (dirty_[id] == 0) {
    dirty_[id] = 1;
    dirty_list_.push_back(v.id);
  }
  return t;
}

bool GradWorkspace::dirty(Var v) const {
  const std::size_t id = static_cast<std::size_t>(v.id);
  return id < dirty_.size() && dirty_[id] != 0;
}

void GradWorkspace::Reset() {
  for (std::int32_t id : dirty_list_) {
    grads_[static_cast<std::size_t>(id)].SetZero();
    dirty_[static_cast<std::size_t>(id)] = 0;
  }
  dirty_list_.clear();
}

const Tensor& JvpWorkspace::tangent(const Graph& g, Var v) {
  return TangentForWrite(g, v);
}

Tensor& JvpWorkspace::TangentForWrite(const Graph& g, Var v) {
  if (tangents_.size() < g.num_nodes()) tangents_.resize(g.num_nodes());
  Tensor& t = tangents_[static_cast<std::size_t>(v.id)];
  const Tensor& val = g.value(v);
  if (t.rows() != val.rows() || t.cols() != val.cols()) {
    t = Tensor(val.rows(), val.cols());
  }
  return t;
}

}  // namespace metablink::tensor
