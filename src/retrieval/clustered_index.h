#ifndef METABLINK_RETRIEVAL_CLUSTERED_INDEX_H_
#define METABLINK_RETRIEVAL_CLUSTERED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "retrieval/dense_index.h"
#include "tensor/tensor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace metablink::util {
class BinaryWriter;
class BinaryReader;
}  // namespace metablink::util

namespace metablink::retrieval {

/// Build- and probe-time knobs for ClusteredIndex.
struct ClusteredIndexOptions {
  /// Coarse centroids. 0 → round(sqrt(N)) clamped to [1, N] — the classic
  /// IVF balance point where centroid scoring and list scanning cost the
  /// same per query.
  std::size_t num_clusters = 0;
  /// Lloyd iterations over the training sample.
  std::size_t train_iterations = 8;
  /// K-means trains on at most this many rows (seeded, deterministic
  /// subsample); the final assignment pass always covers every row.
  std::size_t max_train_points = 65536;
  /// Seed for subsampling and centroid init. Same seed + same rows →
  /// byte-identical centroids and inverted lists.
  std::uint64_t seed = 0x1337u;
  /// Clusters probed per query when the caller passes nprobe == 0.
  /// 0 → ceil(sqrt(num_clusters)).
  std::size_t default_nprobe = 0;
  /// Candidate-pool width for the approximate list scan (int8 or PQ)
  /// before exact fp32 re-scoring. 0 → max(2k, k + 64) at query time for
  /// the int8 scan, max(4k, k + 192) for the PQ scan (PQ distortion is
  /// coarser than int8's, so the pool carries a wider safety margin).
  std::size_t rescore_pool = 0;
  /// Train a product-quantized residual form during Build: per-subspace
  /// codebooks over (row − assigned centroid), one 8-bit code per subspace
  /// per entry. Probes then scan M-byte codes via per-query ADC tables
  /// instead of d-byte int8 rows — the FAISS-style IVF-PQ memory layout.
  bool use_pq = false;
  /// PQ subspaces (codes per entry). Clamped to [1, dim] at Build; dim need
  /// not divide evenly (subspace m covers columns [m*d/M, (m+1)*d/M)).
  /// Codes are always 8 bits (256 centroids per subspace).
  std::size_t pq_m = 8;
};

/// Reusable per-caller buffers for ClusteredIndex::TopKInto.
struct ClusteredScratch {
  /// Adjusted query·centroid scores, one per centroid.
  std::vector<float> cluster_scores;
  /// Probed cluster ids, best centroid first.
  std::vector<std::uint32_t> probe;
  /// Heap / pool / quantized-query buffers for the list scans.
  TopKScratch topk;
  /// Per-query ADC lookup tables ([pq_m × 256] partial inner products),
  /// filled once per query when the index carries a PQ form.
  std::vector<float> lut;
};

/// Clustered (IVF-style) approximate index layered over a DenseIndex: a
/// seeded k-means partitions the entity rows into ~sqrt(N) cells, an
/// inverted list maps each cell to its row positions, and a query probes
/// only the `nprobe` cells whose centroids score highest instead of
/// scanning every row — the BLINK-style coarse-probe → exact-re-score
/// recipe that keeps million-entity retrieval off the exhaustive path.
///
/// Probe protocol: score the query against every centroid (adjusted inner
/// product, x·c − ½‖c‖², equivalent to nearest-centroid in Euclidean
/// distance), visit the top-`nprobe` inverted lists, scan their rows — an
/// ADC table scan over M-byte PQ codes when the index carries a PQ form,
/// an integer int8 scan when the base index is quantized, fp32 otherwise —
/// and exactly re-score the bounded candidate pool with tensor::Dot so the
/// returned scores are true fp32 regardless of scan precision.
///
/// PQ form (options.use_pq): Build additionally trains per-subspace
/// codebooks on the row residuals (row − assigned centroid) and stores one
/// 8-bit code per subspace per inverted-list entry. A query then estimates
/// q·row ≈ q·c + Σ_m lut[m][code_m] with lut[m][j] = q_sub(m)·codebook[m][j]
/// — M table lookups per entry instead of a d-wide dot — and the exact
/// re-score of the pool removes the quantization error from everything it
/// returns. The codes replace the int8 rows in the scan's working set:
/// M + 4 bytes of scan payload per entry instead of d + 4.
///
/// Exactness invariant: with nprobe == num_clusters() every row is visited
/// and the result is identical (ids, scores, tie order) to the base
/// index's exhaustive TopKInto, because both select under the same strict
/// total order (score desc, id asc). Smaller nprobe trades recall for
/// latency; the R@64 overlap gate lives in bench_retrieval.
///
/// The index borrows its base: Build/Load/Attach bind it to a DenseIndex
/// that must stay alive and unmodified (Build()/Quantize() on the base
/// invalidate the attachment). Serialization stores only the clustering
/// (centroids + lists), never the rows — reload the base first, then
/// Attach.
///
/// Thread safety: all probe methods are const and share no mutable state;
/// any number of threads may query concurrently with caller-owned scratch.
class ClusteredIndex {
 public:
  ClusteredIndex() = default;

  /// Trains k-means over `base`'s rows (deterministic given options.seed)
  /// and builds the inverted lists. Lloyd assignment parallelizes over
  /// `pool` when provided; the result is identical serial or pooled.
  /// Pre: base.built(). Keeps a pointer to `base`.
  util::Status Build(const DenseIndex& base,
                     const ClusteredIndexOptions& options,
                     util::ThreadPool* pool = nullptr);

  bool built() const { return !list_offsets_.empty(); }
  std::size_t size() const { return list_entries_.size(); }
  std::size_t dim() const { return centroids_.cols(); }
  std::size_t num_clusters() const { return centroids_.rows(); }
  std::size_t default_nprobe() const { return default_nprobe_; }
  const DenseIndex* base() const { return base_; }
  const ClusteredIndexOptions& options() const { return options_; }

  /// Top-k by true fp32 inner product among the rows of the top-`nprobe`
  /// probed cells (nprobe == 0 → default_nprobe()), best first, ties by
  /// ascending id. Appends to `*out` after clearing it; allocation-free
  /// when `scratch` and `out` are reused.
  void TopKInto(const float* query, std::size_t k, std::size_t nprobe,
                ClusteredScratch* scratch,
                std::vector<ScoredEntity>* out) const;

  /// Convenience wrapper around TopKInto with one-shot buffers.
  std::vector<ScoredEntity> TopK(const float* query, std::size_t k,
                                 std::size_t nprobe = 0) const;

  // ---- Persistence --------------------------------------------------------

  /// Serializes the clustering (centroids, norms, inverted lists, resolved
  /// probe defaults). The base rows are NOT written; pair the payload with
  /// the base index artifact. A PQ form appends a version-2 "PQIV" block
  /// (codebooks + codes); without one, the bytes are identical to the
  /// version-1 format, so PQ-free artifacts round-trip with older readers.
  void Save(util::BinaryWriter* writer) const;

  /// Loads and integrity-checks a clustering payload (shape consistency,
  /// monotonic offsets, entries form a permutation of [0, N); for version-2
  /// payloads also PQ tag/shape/finiteness/code-range checks). The index
  /// is detached afterwards; call Attach before querying.
  util::Status Load(util::BinaryReader* reader);

  /// Binds (or re-binds, e.g. after the base was moved) the clustering to
  /// its base index, validating row count and dimension.
  util::Status Attach(const DenseIndex* base);

  /// Writes a framed checkpoint container with one "clustered" section.
  util::Status SaveToFile(const std::string& path) const;
  /// Loads the "clustered" section of a framed container, then attaches to
  /// `base`.
  util::Status LoadFromFile(const std::string& path, const DenseIndex* base);

  // ---- Product-quantized residual form ------------------------------------

  /// True when the index carries trained PQ codebooks + codes (probes then
  /// use the ADC scan regardless of base quantization).
  bool pq_built() const { return !pq_codebooks_.empty(); }
  /// Subspaces per entry (codes per row). 0 when !pq_built().
  std::size_t pq_m() const { return pq_m_; }
  /// Trained centroids per subspace (≤ 256; smaller only when the training
  /// sample had fewer rows).
  std::size_t pq_kc() const { return pq_kc_; }
  /// Heap bytes of the PQ structures: codes + codebooks + subspace bounds.
  /// The scan-resident marginal cost per entry is pq_m() bytes; the
  /// codebooks are an O(256·d) constant amortized over the whole KB.
  std::size_t PqMemoryBytes() const;
  /// Discards the PQ form (codes + codebooks), reverting probes to the
  /// int8/fp32 list scan. The coarse clustering is untouched. Used by
  /// servers configured with use_pq=false that adopt a bundle whose
  /// clustered artifact ships PQ, so their serving path stays byte-
  /// identical to a PQ-free build.
  void DropPq();

  // ---- Introspection (tests, benches) ------------------------------------

  const tensor::Tensor& centroids() const { return centroids_; }
  /// CSR offsets into list_entries(), one per cluster plus a final bound.
  const std::vector<std::uint32_t>& list_offsets() const {
    return list_offsets_;
  }
  /// Row positions grouped by cluster, ascending within each list.
  const std::vector<std::uint32_t>& list_entries() const {
    return list_entries_;
  }
  /// PQ codes in list-entry order ([size × pq_m], entry i of list_entries()
  /// owns bytes [i*pq_m, (i+1)*pq_m)). Empty when !pq_built().
  const std::vector<std::int8_t>& pq_codes() const { return pq_codes_; }
  /// Flat subspace codebooks: entry (m, j) starts at
  /// 256 * pq_sub_offsets()[m] + j * dsub_m, dsub_m columns.
  const std::vector<float>& pq_codebooks() const { return pq_codebooks_; }
  /// Column bounds of each subspace ([pq_m + 1], 0 … dim).
  const std::vector<std::uint32_t>& pq_sub_offsets() const {
    return pq_sub_offsets_;
  }

 private:
  friend class ShardedIndex;

  /// A CSR view of inverted lists to scan: ShardedIndex substitutes its
  /// per-shard row-range restrictions for the index's own full lists.
  /// `codes` is null when the view carries no PQ form.
  struct ListView {
    const std::uint32_t* offsets = nullptr;  // [num_clusters + 1]
    const std::uint32_t* entries = nullptr;  // global row positions
    const std::int8_t* codes = nullptr;      // pq_m bytes per entry
  };

  /// Read-only per-query state shared by every list scan of one probe.
  struct ScanContext {
    const float* query = nullptr;
    std::size_t k = 0;
    std::size_t pool_cap = 0;
    // int8 path:
    float qscale = 0.0f;
    const std::int8_t* qquery = nullptr;
    // PQ path:
    const float* lut = nullptr;  // [pq_m × 256] ADC tables
    /// Adjusted centroid scores (ScoreClusters output); the PQ scan
    /// recovers the raw q·c base term as scores[c] + ½‖c‖².
    const std::vector<float>* cluster_scores = nullptr;
  };
  /// Adjusted centroid scores (x·c − ½‖c‖²) for one query.
  void ScoreClusters(const float* query, std::vector<float>* scores) const;
  /// Top-`nprobe` cluster ids by adjusted score (desc, ties by id asc).
  void SelectProbe(const std::vector<float>& scores, std::size_t nprobe,
                   std::vector<std::uint32_t>* probe) const;
  /// Fills the per-query ADC tables: lut[m * 256 + j] = q_sub(m)·cb[m][j].
  /// Pre: pq_built().
  void PreparePqLut(const float* query, std::vector<float>* lut) const;
  /// Scans the `probe` lists of `view` into `scratch`: PQ ADC candidates
  /// keyed by position when the context carries a lut, int8 candidates
  /// keyed by position when it carries a quantized query (both bounded by
  /// pool_cap), exact fp32 hits keyed by id otherwise (bounded by k). The
  /// per-entry scores depend only on (entry, context), never on which view
  /// presented the entry — the property that makes sharded scans mergeable
  /// bit-identically.
  void ScanLists(const ScanContext& ctx,
                 const std::vector<std::uint32_t>& probe, const ListView& view,
                 TopKScratch* scratch) const;
  /// Fills `ctx` for one query: pool cap, ADC tables or quantized query.
  void PrepareScan(const float* query, std::size_t k,
                   ClusteredScratch* scratch, ScanContext* ctx) const;
  /// The index's own full inverted lists as a scan view.
  ListView OwnView() const;
  /// Bounded offer under the strict (score desc, id asc) total order — the
  /// same selection primitive every scan in the .cc uses; exposed to the
  /// friend so sharded merges re-offer under the identical order.
  static void Offer(const ScoredEntity& cand, std::size_t cap,
                    std::vector<ScoredEntity>* heap);
  /// Exact fp32 re-score of pooled positions + final top-k selection.
  void RescoreAndSelect(const float* query, std::size_t k,
                        TopKScratch* scratch,
                        std::vector<ScoredEntity>* out) const;
  std::size_t ResolveNprobe(std::size_t nprobe) const;
  std::size_t ResolvePoolCap(std::size_t k) const;
  /// Trains the residual codebooks and encodes every inverted-list entry.
  /// `assign` is the final per-row cluster assignment from Build.
  util::Status BuildPq(const DenseIndex& base,
                       const ClusteredIndexOptions& options,
                       util::ThreadPool* pool,
                       const std::vector<std::uint32_t>& assign);

  const DenseIndex* base_ = nullptr;
  ClusteredIndexOptions options_;
  tensor::Tensor centroids_;             // [num_clusters, dim]
  std::vector<float> half_cnorm_;        // ½‖c‖² per centroid
  std::vector<std::uint32_t> list_offsets_;  // [num_clusters + 1]
  std::vector<std::uint32_t> list_entries_;  // [N] row positions
  std::size_t default_nprobe_ = 1;
  // PQ form (empty/zero when not built): see the accessor docs for layout.
  std::size_t pq_m_ = 0;
  std::size_t pq_kc_ = 0;
  std::vector<std::uint32_t> pq_sub_offsets_;  // [pq_m + 1]
  std::vector<float> pq_codebooks_;            // [256 × dim], subspace-major
  std::vector<std::int8_t> pq_codes_;          // [N × pq_m], list order
};

}  // namespace metablink::retrieval

#endif  // METABLINK_RETRIEVAL_CLUSTERED_INDEX_H_
