#ifndef METABLINK_RETRIEVAL_DENSE_INDEX_H_
#define METABLINK_RETRIEVAL_DENSE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kb/entity.h"
#include "tensor/tensor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace metablink::util {
class BinaryWriter;
class BinaryReader;
}  // namespace metablink::util

namespace metablink::retrieval {

/// One retrieval hit.
struct ScoredEntity {
  kb::EntityId id = kb::kInvalidEntityId;
  float score = 0.0f;
};

/// Caller-reusable buffers for TopKInto. Reusing one scratch across calls
/// makes the hot selection path allocation-free after the first query.
struct TopKScratch {
  /// Bounded selection heap (at most k+1 live entries).
  std::vector<ScoredEntity> heap;
  /// Per-block score strip used by the single-query scans.
  std::vector<float> scores;
  /// Symmetric-quantized query (int8 path).
  std::vector<std::int8_t> qquery;
  /// Candidate pool surviving the approximate scan, before exact re-scoring.
  std::vector<ScoredEntity> pool;
};

/// Caller-reusable buffers for BatchTopKInto. Each chunk owns one score
/// tile and one selection scratch per query slot; both are sized once for
/// the (query block, entity block) tile shape and then reused for every
/// block of every call, so the hot loop never reallocates.
struct BatchTopKScratch {
  struct Chunk {
    std::vector<TopKScratch> per_query;
    std::vector<float> tile;
  };
  std::vector<Chunk> chunks;
};

/// Exact top-k dense retrieval over an entity embedding matrix (stage 1 of
/// the two-stage protocol). Inner-product scores; embeddings are typically
/// L2-normalized so this is cosine ranking. Brute force — exact by
/// construction, which keeps R@64 measurements free of ANN artifacts — but
/// engineered for throughput: selection uses a bounded heap (no O(N)
/// score materialization or partial_sort), batch scoring is blocked
/// query×entity GEMM tiles for cache locality, and queries parallelize
/// over an optional thread pool.
///
/// An optional int8 symmetric-quantized form (Quantize) serves the same
/// queries at 4× memory bandwidth savings: the full scan runs on integer
/// dot products, then a bounded candidate pool is exactly re-scored in
/// fp32, so the final top-k comes from true fp32 scores.
class DenseIndex {
 public:
  DenseIndex() = default;

  /// Builds the index. `embeddings` row i is the vector of `ids[i]`.
  /// Pre: embeddings.rows() == ids.size(). Drops any previous int8 form.
  util::Status Build(tensor::Tensor embeddings, std::vector<kb::EntityId> ids);

  std::size_t size() const { return ids_.size(); }
  std::size_t dim() const { return embeddings_.cols(); }
  bool built() const { return !ids_.empty(); }
  /// Entity id of each stored row, in row order.
  const std::vector<kb::EntityId>& ids() const { return ids_; }

  /// Top-k by inner product for one query of length dim(), appending the
  /// hits (best first; ties broken by ascending id) to `*out` after
  /// clearing it. Allocation-free when `scratch` and `out` are reused.
  void TopKInto(const float* query, std::size_t k, TopKScratch* scratch,
                std::vector<ScoredEntity>* out) const;

  /// Convenience wrapper around TopKInto with one-shot buffers.
  std::vector<ScoredEntity> TopK(const float* query, std::size_t k) const;

  /// Top-k for every row of `queries` ([n, dim]); parallelized over `pool`
  /// when provided. Scores are computed in blocked query×entity tiles by a
  /// SIMD fp32 kernel; the best (k + margin) candidates per query are then
  /// exactly re-scored with tensor::Dot, so the returned scores are
  /// identical to TopKInto's. Query blocks are distributed to workers via
  /// an atomic work-stealing cursor, and per-worker tiles/heaps come from
  /// `scratch` (sized once per tile shape, reused across calls).
  /// k == 0 returns n empty hit lists without scanning.
  void BatchTopKInto(const tensor::Tensor& queries, std::size_t k,
                     util::ThreadPool* pool, BatchTopKScratch* scratch,
                     std::vector<std::vector<ScoredEntity>>* out) const;

  /// Convenience wrapper around BatchTopKInto with one-shot scratch.
  std::vector<std::vector<ScoredEntity>> BatchTopK(
      const tensor::Tensor& queries, std::size_t k,
      util::ThreadPool* pool = nullptr) const;

  // ---- Int8 symmetric quantization ---------------------------------------

  /// Builds the per-row symmetric int8 form: q[r][j] = round(x[r][j] / s_r)
  /// with s_r = max_j |x[r][j]| / 127. Idempotent; rebuilt by Build.
  void Quantize();
  bool quantized() const { return !q_rows_.empty(); }

  /// Below this row count TopKQuantizedInto dispatches to the exact fp32
  /// scan: small KBs fit in cache, so the int8 path's quantize + pool +
  /// re-score overhead loses to the straight scan (the 4k-entity operating
  /// point regressed ~1.5× before this gate; bench_retrieval pins it).
  static constexpr std::size_t kQuantizedDispatchMinRows = 65536;

  /// Heap bytes of the int8 form (rows + per-row scales); 0 until
  /// Quantize(). The bench's bytes/entity column divides this by size().
  std::size_t QuantizedMemoryBytes() const {
    return q_rows_.size() * sizeof(std::int8_t) +
           q_scales_.size() * sizeof(float);
  }

  /// Top-k via the int8 scan: every entity is scored with an integer dot
  /// product, the best `pool_size` survivors (clamped to [k, size()]) are
  /// exactly re-scored in fp32, and the final top-k is selected from those
  /// fp32 scores — identical output to TopKInto whenever the true top-k
  /// survives the quantized scan (guaranteed when pool_size == size()).
  /// Pre: Quantize() was called.
  void TopKQuantizedInto(const float* query, std::size_t k,
                         std::size_t pool_size, TopKScratch* scratch,
                         std::vector<ScoredEntity>* out) const;

  // ---- Persistence --------------------------------------------------------

  /// Serializes the index (fp32 rows, ids, and the int8 form if built), so
  /// a served KB reloads without re-encoding entities.
  void Save(util::BinaryWriter* writer) const;
  util::Status Load(util::BinaryReader* reader);
  /// Writes a framed checkpoint container with one "index" section.
  util::Status SaveToFile(const std::string& path) const;
  /// Loads the "index" section of a framed container; any other file is
  /// rejected.
  util::Status LoadFromFile(const std::string& path);

  /// The raw stored embedding row for position `i` (test/diagnostic use).
  const float* EmbeddingAt(std::size_t i) const {
    return embeddings_.row_data(i);
  }

  // ---- Row access for layered indexes (ClusteredIndex) -------------------

  /// Int8 row at position `i`. Pre: quantized().
  const std::int8_t* QuantizedRowAt(std::size_t i) const {
    return q_rows_.data() + i * embeddings_.cols();
  }
  /// Dequantization scale of row `i`. Pre: quantized().
  float QuantizedScaleAt(std::size_t i) const { return q_scales_[i]; }

  /// Symmetric int8 quantization of one query (the same scheme as the
  /// stored rows), written into `*out` (resized to dim()). Returns the
  /// query's dequantization scale (0 for an all-zero query).
  float QuantizeQueryInto(const float* query,
                          std::vector<std::int8_t>* out) const;

 private:
  /// Offers entities [e_begin, e_begin + count) with the given scores to
  /// the bounded selection heap in `scratch`.
  void OfferBlock(const float* scores, std::size_t e_begin,
                  std::size_t count, std::size_t k,
                  TopKScratch* scratch) const;

  /// Scores queries [q0, q0 + block) against every entity and selects each
  /// query's exact top-k into `out` (approximate fp32 tile scan, bounded
  /// position pool, exact re-score). One block of BatchTopKInto.
  void BatchBlock(const tensor::Tensor& queries, std::size_t q0,
                  std::size_t k, BatchTopKScratch::Chunk* chunk,
                  std::vector<std::vector<ScoredEntity>>* out) const;

  /// Sorts the heap contents into `*out` (best first).
  static void DrainHeap(TopKScratch* scratch, std::vector<ScoredEntity>* out);

  tensor::Tensor embeddings_;
  std::vector<kb::EntityId> ids_;
  /// Int8 rows, row-major [size, dim]; empty until Quantize().
  std::vector<std::int8_t> q_rows_;
  /// Per-row dequantization scales.
  std::vector<float> q_scales_;
};

}  // namespace metablink::retrieval

#endif  // METABLINK_RETRIEVAL_DENSE_INDEX_H_
