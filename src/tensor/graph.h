#ifndef METABLINK_TENSOR_GRAPH_H_
#define METABLINK_TENSOR_GRAPH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/grad_workspace.h"
#include "tensor/parameter.h"
#include "tensor/tensor.h"

namespace metablink::util {
class ThreadPool;
}  // namespace metablink::util

namespace metablink::tensor {

/// Handle to a node in a Graph.
struct Var {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
};

/// Op discriminator recorded on every tape node. The numeric kernels never
/// branch on it; it exists so analysis::GraphLint (via DebugTape) can
/// re-derive and verify the structural invariants of a built tape.
enum class OpKind : std::uint8_t {
  kInput,
  kParam,
  kEmbeddingBagMean,
  kMatMul,
  kMatMulTransposeB,
  kAddBiasRow,
  kAdd,
  kSub,
  kMul,
  kScale,
  kTanh,
  kRelu,
  kSigmoid,
  kRowL2Normalize,
  kConcatCols,
  kConcatRows,
  kBroadcastRow,
  kReshape,
  kRowDot,
  kSoftmaxCrossEntropy,
  kMean,
  kWeightedSum,
  kSum,
};

/// Human-readable op name ("MatMul", "EmbeddingBagMean", ...).
const char* OpKindName(OpKind kind);

/// Structural view of one tape node, exported by Graph::DebugTape for the
/// static analyzers. Tests forge TapeOp vectors directly to seed defects
/// that the op builders themselves refuse to construct.
struct TapeOp {
  OpKind kind = OpKind::kInput;
  std::int32_t id = -1;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int32_t> inputs;
  /// Parameter read by kParam / kEmbeddingBagMean nodes (else nullptr).
  const Parameter* param = nullptr;
  /// Node value; nullptr in hand-forged tapes (disables value scans).
  const Tensor* value = nullptr;
};

/// Reverse-mode autodiff over dense matrices.
///
/// A Graph is a single-use tape: build the forward computation with the op
/// methods, then call Backward() (possibly several times with different
/// seeds, after ResetGrads()). Gradients w.r.t. Parameter leaves accumulate
/// into Parameter::grad, so callers typically do:
///
///   store.ZeroGrads();
///   Graph g;
///   Var loss = ...;           // build forward pass
///   g.Backward(loss);         // fills Parameter::grad
///   optimizer.Step(&store);
///
/// Node gradients live in a GradWorkspace, not on the tape: after the
/// forward pass the tape is read-only, so repeated backward passes with
/// different seeds (the meta trainer's one-hot passes) each bring a
/// recycled workspace instead of rebuilding the tape (see BackwardWithSeed
/// below). Backward()/grad() use the graph's built-in workspace and behave
/// exactly like the classic flow.
///
/// Heavy ops (MatMul, MatMulTransposeB, EmbeddingBagMean, RowL2Normalize)
/// split their work across a util::ThreadPool when one is attached via
/// SetPool. The default (`pool == nullptr`) is fully serial and the
/// parallel paths partition output rows, so both produce identical results.
///
/// The per-example meta-gradient computation (Algorithm 1) re-runs Backward
/// with one-hot row seeds over the same tape, or uses the forward-mode
/// Jvp() fast path; see train::MetaReweightTrainer.
class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Attaches a thread pool used to parallelize large ops (forward and
  /// backward). Not owned; nullptr (the default) means serial execution.
  void SetPool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* pool() const { return pool_; }

  // ---- Leaves -----------------------------------------------------------

  /// Constant input; receives no parameter gradient.
  Var Input(Tensor value);

  /// Parameter leaf: the whole matrix participates in the computation and
  /// its gradient accumulates into `p->grad` during Backward().
  Var Param(Parameter* p);

  // ---- Ops ---------------------------------------------------------------

  /// Mean-pooled embedding-bag lookup: for each bag b of feature ids,
  /// out[b] = mean_{i in bag} table[i]. Empty bags produce a zero row.
  /// Gradients scatter directly into `table->grad`.
  Var EmbeddingBagMean(Parameter* table,
                       std::vector<std::vector<std::uint32_t>> bags);

  /// Matrix product: [n,k] x [k,m] -> [n,m].
  Var MatMul(Var a, Var b);

  /// a * b^T: [n,d] x [m,d] -> [n,m]. This is the batch score matrix
  /// S(m_i, e_j) of eq. (5) when a/b are mention/entity embeddings.
  Var MatMulTransposeB(Var a, Var b);

  /// Adds a [1,c] bias row to every row of x [n,c].
  Var AddBiasRow(Var x, Var bias);

  Var Add(Var a, Var b);
  Var Sub(Var a, Var b);
  /// Elementwise (Hadamard) product; shapes must match.
  Var Mul(Var a, Var b);
  Var Scale(Var x, float s);
  Var Tanh(Var x);
  Var Relu(Var x);
  Var Sigmoid(Var x);

  /// Row-wise L2 normalization: out[r] = x[r] / max(||x[r]||, eps).
  Var RowL2Normalize(Var x, float eps = 1e-8f);

  /// Horizontal concatenation [n,c1]+[n,c2] -> [n,c1+c2].
  Var ConcatCols(Var a, Var b);

  /// Vertical concatenation of equal-width vars -> [sum rows, c]. Used to
  /// stack per-example scalar losses into one column.
  Var ConcatRows(const std::vector<Var>& parts);

  /// Repeats a [1,c] row n times -> [n,c]; backward sums row gradients.
  /// Lets the cross-encoder encode the mention once per candidate list.
  Var BroadcastRow(Var row, std::size_t n);

  /// Reinterprets the buffer with a new shape (rows*cols must match).
  Var Reshape(Var x, std::size_t rows, std::size_t cols);

  /// Per-row dot product: [n,d],[n,d] -> [n,1].
  Var RowDot(Var a, Var b);

  /// Per-row softmax cross entropy against integer targets:
  /// out[r,0] = -logits[r,targets[r]] + log sum_c exp(logits[r,c]).
  /// This is exactly the in-batch-negatives loss of eq. (6) when `logits` is
  /// the batch score matrix and targets[r] = r.
  Var SoftmaxCrossEntropy(Var logits, std::vector<std::size_t> targets);

  /// Mean over all elements -> [1,1].
  Var Mean(Var x);

  /// Weighted sum of rows of a [n,1] column: sum_r w[r]*x[r,0] -> [1,1].
  /// This is the weighted loss of eq. (7)/(15).
  Var WeightedSum(Var column, std::vector<float> weights);

  /// Sum of all elements -> [1,1].
  Var Sum(Var x);

  // ---- Execution ---------------------------------------------------------

  const Tensor& value(Var v) const;

  /// Gradient of `v` in the graph's built-in workspace (zeros before any
  /// Backward call).
  const Tensor& grad(Var v) const;

  /// Runs backward from `v`, seeding every element of v's gradient with 1.
  void Backward(Var v);

  /// Runs backward from `v` with an explicit seed (same size as v's value).
  void BackwardWithSeed(Var v, const std::vector<float>& seed);

  /// Backward into a caller-provided workspace. The tape itself is not
  /// mutated; parameter gradients accumulate into Parameter::grad. When
  /// ws->sparsity_skip() is set (the default), nodes whose gradient was
  /// never written are skipped — their closures would only add exact
  /// zeros.
  void BackwardWithSeed(Var v, const std::vector<float>& seed,
                        GradWorkspace* ws) const;

  /// Forward-mode sweep: returns the directional derivative (tangent) of
  /// `v` along the parameter direction currently held in Parameter::grad
  /// (inputs have zero tangent). One sweep costs about one forward pass
  /// and yields d/dε value(v)(φ + ε·dir) for every element of v at once —
  /// this is the meta trainer's fast path for raw[j] = ⟨∇_φ l_j, g_meta⟩,
  /// replacing n one-hot backward passes.
  Tensor Jvp(Var v) const;

  /// Zeroes all node gradients so Backward can run again over the same tape
  /// (Parameter::grad is managed separately via ParameterStore::ZeroGrads).
  void ResetGrads();

  std::size_t num_nodes() const { return nodes_.size(); }

  /// Structural snapshot of the tape (op kinds, shapes, input edges,
  /// parameter bindings) for analysis::GraphLint. O(nodes); values are
  /// referenced, not copied, so the Graph must outlive the snapshot.
  std::vector<TapeOp> DebugTape() const;

 private:
  struct Node {
    Tensor value;
    // Propagates this node's workspace grad to its inputs; empty for
    // leaves. Must not mutate the Graph (tape is shared across passes).
    std::function<void(const Graph*, GradWorkspace*)> backward;
    // Computes this node's tangent from its inputs' tangents; empty for
    // zero-tangent leaves (Input).
    std::function<void(const Graph*, JvpWorkspace*)> jvp;
    // Structural metadata consumed by DebugTape/GraphLint.
    OpKind kind = OpKind::kInput;
    std::vector<std::int32_t> inputs;
    const Parameter* param = nullptr;
  };

  Var AddNode(Tensor value, OpKind kind,
              std::vector<std::int32_t> inputs = {},
              const Parameter* param = nullptr);
  Node& node(Var v) { return nodes_[static_cast<std::size_t>(v.id)]; }
  const Node& node(Var v) const {
    return nodes_[static_cast<std::size_t>(v.id)];
  }

  std::vector<Node> nodes_;
  util::ThreadPool* pool_ = nullptr;
  // Backs the two-argument Backward/BackwardWithSeed and grad(); mutable
  // because reading grad() lazily allocates zero buffers.
  mutable GradWorkspace default_ws_;
};

}  // namespace metablink::tensor

#endif  // METABLINK_TENSOR_GRAPH_H_
