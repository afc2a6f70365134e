#include "retrieval/clustered_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "retrieval/score_kernel.h"
#include "store/checkpoint.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/string_util.h"

namespace metablink::retrieval {

namespace {

constexpr std::uint32_t kClusteredTag = 0x46564943u;  // "CIVF"
// Version 1: coarse clustering only. Version 2 appends the "PQIV" product-
// quantization block; Save emits version 1 when no PQ form is present so
// PQ-free artifacts stay byte-identical to pre-PQ builds.
constexpr std::uint32_t kClusteredVersion = 2;
constexpr std::uint32_t kPqTag = 0x56495150u;  // "PQIV"
// PQ codes are always 8 bits, so subspace tables span 256 slots; a smaller
// trained pq_kc just leaves the tail slots zero and unreferenced.
constexpr std::uint64_t kPqNbits = 8;
constexpr std::size_t kPqSlots = std::size_t{1} << kPqNbits;

// Points scored per assignment tile. 32 rows of d=128 floats (16 KiB) stay
// cache-resident while the centroid panel (up to ~sqrt(1M) rows) streams.
constexpr std::size_t kAssignBlock = 32;

// Strict total order on hits: higher score first, ascending id on ties.
// Shared by every selection in this file so the probe-all result is
// identical to DenseIndex's exhaustive scan and sharded merges are
// insertion-order independent.
bool Better(const ScoredEntity& a, const ScoredEntity& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

// Bounded selection: keeps the `cap` Better-most candidates ever offered,
// regardless of offer order (the root is the worst retained entry).
void OfferCandidate(const ScoredEntity& cand, std::size_t cap,
                    std::vector<ScoredEntity>* heap) {
  if (heap->size() < cap) {
    heap->push_back(cand);
    std::push_heap(heap->begin(), heap->end(), Better);
  } else if (Better(cand, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), Better);
    heap->back() = cand;
    std::push_heap(heap->begin(), heap->end(), Better);
  }
}

// Sorts heap contents best-first into `*out` and clears the heap.
void DrainHeap(std::vector<ScoredEntity>* heap,
               std::vector<ScoredEntity>* out) {
  std::sort_heap(heap->begin(), heap->end(), Better);
  out->assign(heap->begin(), heap->end());
  heap->clear();
}

// Nearest-centroid assignment for `count` contiguous points: each point p
// gets argmax_c (p·c − ½‖c‖²), ties to the lowest cluster id — the inner-
// product form of Euclidean argmin, so Lloyd still converges. Per-point
// results are independent, so any chunking over `pool` produces the same
// assignment as the serial loop.
void AssignPoints(const float* points, std::size_t count,
                  const tensor::Tensor& centroids,
                  const std::vector<float>& half_cnorm,
                  util::ThreadPool* pool, std::vector<std::uint32_t>* assign,
                  std::vector<float>* best_score) {
  const std::size_t d = centroids.cols();
  const std::size_t kc = centroids.rows();
  assign->resize(count);
  best_score->resize(count);
  const std::size_t nblocks = (count + kAssignBlock - 1) / kAssignBlock;
  auto run_block = [&](std::size_t b, std::vector<float>* tile) {
    const std::size_t p0 = b * kAssignBlock;
    const std::size_t pn = std::min(kAssignBlock, count - p0);
    internal::ScoreTileF32(points + p0 * d, centroids.row_data(0),
                           tile->data(), pn, d, kc);
    for (std::size_t i = 0; i < pn; ++i) {
      const float* trow = tile->data() + i * kc;
      std::uint32_t best_c = 0;
      float best_s = trow[0] - half_cnorm[0];
      for (std::size_t c = 1; c < kc; ++c) {
        const float s = trow[c] - half_cnorm[c];
        if (s > best_s) {  // strict: ties keep the lowest cluster id
          best_s = s;
          best_c = static_cast<std::uint32_t>(c);
        }
      }
      (*assign)[p0 + i] = best_c;
      (*best_score)[p0 + i] = best_s;
    }
  };
  if (pool != nullptr && nblocks > 1) {
    pool->ParallelForChunks(
        nblocks, 0, [&](std::size_t, std::size_t b0, std::size_t b1) {
          std::vector<float> tile(kAssignBlock * kc);
          for (std::size_t b = b0; b < b1; ++b) run_block(b, &tile);
        });
  } else {
    std::vector<float> tile(kAssignBlock * kc);
    for (std::size_t b = 0; b < nblocks; ++b) run_block(b, &tile);
  }
}

void RecomputeHalfNorms(const tensor::Tensor& centroids,
                        std::vector<float>* half_cnorm) {
  const std::size_t kc = centroids.rows();
  const std::size_t d = centroids.cols();
  half_cnorm->resize(kc);
  for (std::size_t c = 0; c < kc; ++c) {
    const float* row = centroids.row_data(c);
    (*half_cnorm)[c] = 0.5f * tensor::Dot(row, row, d);
  }
}

// Deterministic seeded Lloyd's k-means over a dense [n, d] panel: centroids
// seeded from kc distinct sample rows (sorted so the layout depends only on
// which rows were drawn), then `iters` rounds of parallel deterministic
// assignment + serial point-order double accumulation + worst-fit empty-
// cluster repair. Byte-identical with or without a pool. Shared by the
// coarse clustering and the per-subspace PQ residual codebooks; `rng`
// advances by exactly one SampleIndices draw.
void TrainKmeans(const float* data, std::size_t n, std::size_t d,
                 std::size_t kc, std::size_t iters, util::Rng* rng,
                 util::ThreadPool* pool, tensor::Tensor* centroids,
                 std::vector<float>* half_norms) {
  *centroids = tensor::Tensor(kc, d);
  {
    std::vector<std::size_t> seeds = rng->SampleIndices(n, kc);
    std::sort(seeds.begin(), seeds.end());
    for (std::size_t c = 0; c < kc; ++c) {
      std::memcpy(centroids->row_data(c), data + seeds[c] * d,
                  d * sizeof(float));
    }
  }
  RecomputeHalfNorms(*centroids, half_norms);

  std::vector<std::uint32_t> assign;
  std::vector<float> best_score;
  std::vector<std::size_t> counts(kc, 0);
  std::vector<double> sums(kc * d, 0.0);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    AssignPoints(data, n, *centroids, *half_norms, pool, &assign, &best_score);
    std::fill(counts.begin(), counts.end(), 0);
    std::fill(sums.begin(), sums.end(), 0.0);
    for (std::size_t p = 0; p < n; ++p) {
      const std::uint32_t c = assign[p];
      ++counts[c];
      const float* row = data + p * d;
      double* acc = sums.data() + c * d;
      for (std::size_t j = 0; j < d; ++j) acc[j] += row[j];
    }
    for (std::size_t c = 0; c < kc; ++c) {
      if (counts[c] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      float* row = centroids->row_data(c);
      const double* acc = sums.data() + c * d;
      for (std::size_t j = 0; j < d; ++j) {
        row[j] = static_cast<float>(acc[j] * inv);
      }
    }
    // Empty-cluster repair: each empty centroid (ascending id) is re-seeded
    // from the worst-fit point (lowest assigned score, ties to the lowest
    // index) still living in a cluster with more than one member. Fully
    // deterministic, and every cluster ends non-empty while the data has at
    // least kc distinct rows.
    for (std::size_t c = 0; c < kc; ++c) {
      if (counts[c] != 0) continue;
      std::size_t worst = n;
      for (std::size_t p = 0; p < n; ++p) {
        if (counts[assign[p]] < 2) continue;
        if (worst == n || best_score[p] < best_score[worst]) worst = p;
      }
      if (worst == n) break;  // nothing left to donate
      --counts[assign[worst]];
      assign[worst] = static_cast<std::uint32_t>(c);
      counts[c] = 1;
      std::memcpy(centroids->row_data(c), data + worst * d,
                  d * sizeof(float));
      best_score[worst] = std::numeric_limits<float>::max();  // donated
    }
    RecomputeHalfNorms(*centroids, half_norms);
  }
}

}  // namespace

util::Status ClusteredIndex::Build(const DenseIndex& base,
                                   const ClusteredIndexOptions& options,
                                   util::ThreadPool* pool) {
  if (!base.built()) {
    return util::Status::InvalidArgument(
        "cannot cluster an unbuilt DenseIndex");
  }
  if (options.use_pq && options.pq_m == 0) {
    return util::Status::InvalidArgument("pq_m must be at least 1");
  }
  const std::size_t n = base.size();
  const std::size_t d = base.dim();
  std::size_t kc = options.num_clusters;
  if (kc == 0) {
    kc = static_cast<std::size_t>(
        std::llround(std::sqrt(static_cast<double>(n))));
  }
  kc = std::clamp<std::size_t>(kc, 1, n);

  // Deterministic training sample: at most max_train_points rows (never
  // fewer than kc so init can pick distinct seeds), gathered contiguously
  // in ascending row order so tile scoring sees one dense matrix.
  util::Rng rng(options.seed);
  const std::size_t limit =
      std::min(n, std::max(options.max_train_points, kc));
  const float* train_data = base.EmbeddingAt(0);
  std::size_t train_n = n;
  tensor::Tensor gathered;
  if (limit < n) {
    std::vector<std::size_t> sample = rng.SampleIndices(n, limit);
    std::sort(sample.begin(), sample.end());
    gathered = tensor::Tensor(sample.size(), d);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      std::memcpy(gathered.row_data(i), base.EmbeddingAt(sample[i]),
                  d * sizeof(float));
    }
    train_data = gathered.row_data(0);
    train_n = sample.size();
  }

  TrainKmeans(train_data, train_n, d, kc, options.train_iterations, &rng,
              pool, &centroids_, &half_cnorm_);

  // Final assignment over every row, then CSR inverted lists with each
  // list's entries in ascending row position — the canonical layout the
  // determinism test hashes.
  std::vector<std::uint32_t> assign;
  std::vector<float> best_score;
  AssignPoints(base.EmbeddingAt(0), n, centroids_, half_cnorm_, pool, &assign,
               &best_score);
  list_offsets_.assign(kc + 1, 0);
  for (std::size_t p = 0; p < n; ++p) ++list_offsets_[assign[p] + 1];
  for (std::size_t c = 0; c < kc; ++c) {
    list_offsets_[c + 1] += list_offsets_[c];
  }
  list_entries_.resize(n);
  std::vector<std::uint32_t> cursor(list_offsets_.begin(),
                                    list_offsets_.end() - 1);
  for (std::size_t p = 0; p < n; ++p) {
    list_entries_[cursor[assign[p]]++] = static_cast<std::uint32_t>(p);
  }

  options_ = options;
  default_nprobe_ = options.default_nprobe;
  if (default_nprobe_ == 0) {
    default_nprobe_ = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(kc))));
  }
  default_nprobe_ = std::clamp<std::size_t>(default_nprobe_, 1, kc);
  base_ = &base;

  // Any previous PQ form belongs to the old clustering; drop it before
  // (optionally) training a fresh one against the new residuals.
  pq_m_ = 0;
  pq_kc_ = 0;
  pq_sub_offsets_.clear();
  pq_codebooks_.clear();
  pq_codes_.clear();
  if (options.use_pq) {
    METABLINK_RETURN_IF_ERROR(BuildPq(base, options, pool, assign));
  }
  return util::Status::OK();
}

util::Status ClusteredIndex::BuildPq(const DenseIndex& base,
                                     const ClusteredIndexOptions& options,
                                     util::ThreadPool* pool,
                                     const std::vector<std::uint32_t>& assign) {
  const std::size_t n = base.size();
  const std::size_t d = base.dim();
  const std::size_t m_sub = std::min(options.pq_m, d);

  std::vector<std::uint32_t> sub_offsets(m_sub + 1);
  for (std::size_t m = 0; m <= m_sub; ++m) {
    sub_offsets[m] = static_cast<std::uint32_t>(m * d / m_sub);
  }

  // Residual training sample: seeded like the coarse subsample but from an
  // independent stream (seed XOR), so adding PQ never perturbs the coarse
  // clustering's draws and a PQ rebuild reproduces the same lists.
  util::Rng rng(options.seed ^ 0x5149505155ULL);
  const std::size_t limit =
      std::min(n, std::max<std::size_t>(options.max_train_points, kPqSlots));
  std::vector<std::size_t> sample;
  if (limit < n) {
    sample = rng.SampleIndices(n, limit);
    std::sort(sample.begin(), sample.end());
  } else {
    sample.resize(n);
    std::iota(sample.begin(), sample.end(), std::size_t{0});
  }
  const std::size_t train_n = sample.size();
  tensor::Tensor residuals(train_n, d);
  for (std::size_t i = 0; i < train_n; ++i) {
    const float* x = base.EmbeddingAt(sample[i]);
    const float* c = centroids_.row_data(assign[sample[i]]);
    float* r = residuals.row_data(i);
    for (std::size_t j = 0; j < d; ++j) r[j] = x[j] - c[j];
  }

  const std::size_t kpq = std::min<std::size_t>(kPqSlots, train_n);
  std::vector<float> codebooks(kPqSlots * d, 0.0f);
  std::vector<std::int8_t> codes(n * m_sub, 0);

  // Entry → cluster map so the encoder can reconstruct each inverted-list
  // entry's residual without re-running assignment.
  std::vector<std::uint32_t> entry_cluster(n);
  for (std::size_t c = 0; c + 1 < list_offsets_.size(); ++c) {
    for (std::uint32_t idx = list_offsets_[c]; idx < list_offsets_[c + 1];
         ++idx) {
      entry_cluster[idx] = static_cast<std::uint32_t>(c);
    }
  }

  std::vector<float> sub_half_norms;
  for (std::size_t m = 0; m < m_sub; ++m) {
    const std::size_t lo = sub_offsets[m];
    const std::size_t dsub = sub_offsets[m + 1] - lo;
    tensor::Tensor sub_train(train_n, dsub);
    for (std::size_t i = 0; i < train_n; ++i) {
      std::memcpy(sub_train.row_data(i), residuals.row_data(i) + lo,
                  dsub * sizeof(float));
    }
    tensor::Tensor cb;
    TrainKmeans(sub_train.row_data(0), train_n, dsub, kpq,
                options.train_iterations, &rng, pool, &cb, &sub_half_norms);
    std::memcpy(codebooks.data() + kPqSlots * lo, cb.row_data(0),
                kpq * dsub * sizeof(float));

    // Encode every entry's subspace residual: nearest codeword under the
    // same adjusted-inner-product argmax as AssignPoints (ties to the
    // lowest code). Per-entry results are independent, so pool chunking
    // over entry blocks is deterministic.
    const std::size_t nblocks = (n + kAssignBlock - 1) / kAssignBlock;
    auto run_block = [&](std::size_t b, std::vector<float>* sub,
                         std::vector<float>* tile) {
      const std::size_t i0 = b * kAssignBlock;
      const std::size_t bn = std::min(kAssignBlock, n - i0);
      for (std::size_t i = 0; i < bn; ++i) {
        const float* x = base.EmbeddingAt(list_entries_[i0 + i]) + lo;
        const float* c = centroids_.row_data(entry_cluster[i0 + i]) + lo;
        float* r = sub->data() + i * dsub;
        for (std::size_t j = 0; j < dsub; ++j) r[j] = x[j] - c[j];
      }
      internal::ScoreTileF32(sub->data(), cb.row_data(0), tile->data(), bn,
                             dsub, kpq);
      for (std::size_t i = 0; i < bn; ++i) {
        const float* trow = tile->data() + i * kpq;
        std::size_t best_j = 0;
        float best_s = trow[0] - sub_half_norms[0];
        for (std::size_t j = 1; j < kpq; ++j) {
          const float s = trow[j] - sub_half_norms[j];
          if (s > best_s) {  // strict: ties keep the lowest code
            best_s = s;
            best_j = j;
          }
        }
        codes[(i0 + i) * m_sub + m] = static_cast<std::int8_t>(best_j);
      }
    };
    if (pool != nullptr && nblocks > 1) {
      pool->ParallelForChunks(
          nblocks, 0, [&](std::size_t, std::size_t b0, std::size_t b1) {
            std::vector<float> sub(kAssignBlock * dsub);
            std::vector<float> tile(kAssignBlock * kpq);
            for (std::size_t b = b0; b < b1; ++b) run_block(b, &sub, &tile);
          });
    } else {
      std::vector<float> sub(kAssignBlock * dsub);
      std::vector<float> tile(kAssignBlock * kpq);
      for (std::size_t b = 0; b < nblocks; ++b) run_block(b, &sub, &tile);
    }
  }

  pq_m_ = m_sub;
  pq_kc_ = kpq;
  pq_sub_offsets_ = std::move(sub_offsets);
  pq_codebooks_ = std::move(codebooks);
  pq_codes_ = std::move(codes);
  return util::Status::OK();
}

std::size_t ClusteredIndex::PqMemoryBytes() const {
  return pq_codes_.size() * sizeof(std::int8_t) +
         pq_codebooks_.size() * sizeof(float) +
         pq_sub_offsets_.size() * sizeof(std::uint32_t);
}

void ClusteredIndex::DropPq() {
  pq_m_ = 0;
  pq_kc_ = 0;
  pq_sub_offsets_.clear();
  pq_codebooks_.clear();
  pq_codes_.clear();
  options_.use_pq = false;
}

std::size_t ClusteredIndex::ResolveNprobe(std::size_t nprobe) const {
  if (nprobe == 0) nprobe = default_nprobe_;
  return std::clamp<std::size_t>(nprobe, 1, num_clusters());
}

std::size_t ClusteredIndex::ResolvePoolCap(std::size_t k) const {
  std::size_t cap = options_.rescore_pool;
  if (cap == 0) {
    // PQ distortion is coarser than int8's, so its default pool carries a
    // wider safety margin before the exact re-score.
    cap = pq_built() ? std::max(4 * k, k + 192) : std::max(2 * k, k + 64);
  }
  return std::clamp(cap, k, size());
}

void ClusteredIndex::ScoreClusters(const float* query,
                                   std::vector<float>* scores) const {
  const std::size_t kc = num_clusters();
  scores->resize(kc);
  internal::ScoreTileF32(query, centroids_.row_data(0), scores->data(), 1,
                         centroids_.cols(), kc);
  for (std::size_t c = 0; c < kc; ++c) (*scores)[c] -= half_cnorm_[c];
}

void ClusteredIndex::SelectProbe(const std::vector<float>& scores,
                                 std::size_t nprobe,
                                 std::vector<std::uint32_t>* probe) const {
  probe->resize(scores.size());
  std::iota(probe->begin(), probe->end(), 0u);
  const auto cmp = [&scores](std::uint32_t a, std::uint32_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  std::partial_sort(probe->begin(), probe->begin() + nprobe, probe->end(),
                    cmp);
  probe->resize(nprobe);
}

void ClusteredIndex::Offer(const ScoredEntity& cand, std::size_t cap,
                           std::vector<ScoredEntity>* heap) {
  OfferCandidate(cand, cap, heap);
}

void ClusteredIndex::PreparePqLut(const float* query,
                                  std::vector<float>* lut) const {
  lut->resize(pq_m_ * kPqSlots);
  for (std::size_t m = 0; m < pq_m_; ++m) {
    const std::size_t lo = pq_sub_offsets_[m];
    const std::size_t dsub = pq_sub_offsets_[m + 1] - lo;
    // One 1×256 tile per subspace: lut[m][j] = q_sub(m)·codebook[m][j].
    // Untrained tail slots (j >= pq_kc_) are zero rows, so their table
    // entries are 0 and no stored code ever references them.
    internal::ScoreTileF32(query + lo, pq_codebooks_.data() + kPqSlots * lo,
                           lut->data() + m * kPqSlots, 1, dsub, kPqSlots);
  }
}

void ClusteredIndex::PrepareScan(const float* query, std::size_t k,
                                 ClusteredScratch* scratch,
                                 ScanContext* ctx) const {
  ctx->query = query;
  ctx->k = k;
  ctx->pool_cap = ResolvePoolCap(k);
  if (pq_built()) {
    PreparePqLut(query, &scratch->lut);
    ctx->lut = scratch->lut.data();
    ctx->cluster_scores = &scratch->cluster_scores;
  } else if (base_->quantized()) {
    ctx->qscale = base_->QuantizeQueryInto(query, &scratch->topk.qquery);
    ctx->qquery = scratch->topk.qquery.data();
  }
}

ClusteredIndex::ListView ClusteredIndex::OwnView() const {
  return ListView{list_offsets_.data(), list_entries_.data(),
                  pq_codes_.empty() ? nullptr : pq_codes_.data()};
}

void ClusteredIndex::ScanLists(const ScanContext& ctx,
                               const std::vector<std::uint32_t>& probe,
                               const ListView& view,
                               TopKScratch* scratch) const {
  const std::size_t d = base_->dim();
  if (ctx.lut != nullptr) {
    // PQ ADC scan keyed by row POSITION: per-list base term q·c (recovered
    // from the adjusted centroid score) plus pq_m table lookups per entry,
    // strip-scored by the dispatched kernel and offered to the bounded
    // pool, which RescoreAndSelect re-scores in fp32. One kernel per
    // process, so serial, pooled, and sharded scans build identical pools.
    for (const std::uint32_t c : probe) {
      const std::uint32_t lo = view.offsets[c];
      const std::uint32_t hi = view.offsets[c + 1];
      if (lo == hi) continue;
      const float base_term = (*ctx.cluster_scores)[c] + half_cnorm_[c];
      const std::size_t count = hi - lo;
      if (scratch->scores.size() < count) scratch->scores.resize(count);
      internal::PqAdcScores(
          ctx.lut,
          reinterpret_cast<const std::uint8_t*>(view.codes) +
              std::size_t{lo} * pq_m_,
          count, pq_m_, base_term, scratch->scores.data());
      for (std::size_t i = 0; i < count; ++i) {
        OfferCandidate({view.entries[lo + i], scratch->scores[i]},
                       ctx.pool_cap, &scratch->pool);
      }
    }
    return;
  }
  for (const std::uint32_t c : probe) {
    const std::uint32_t lo = view.offsets[c];
    const std::uint32_t hi = view.offsets[c + 1];
    for (std::uint32_t idx = lo; idx < hi; ++idx) {
      const std::uint32_t pos = view.entries[idx];
      if (ctx.qquery != nullptr) {
        // Integer scan keyed by row POSITION: approximate scores feed the
        // bounded candidate pool, which RescoreAndSelect re-scores in fp32.
        // DotInt8 dispatches to AVX2 when available and is exact either
        // way, so the pool is bit-identical to the scalar scan.
        const std::int8_t* row = base_->QuantizedRowAt(pos);
        const std::int32_t acc = internal::DotInt8(ctx.qquery, row, d);
        const float score = static_cast<float>(acc) * ctx.qscale *
                            base_->QuantizedScaleAt(pos);
        OfferCandidate({pos, score}, ctx.pool_cap, &scratch->pool);
      } else {
        // fp32 scan keyed by entity ID with exact Dot scores: selection is
        // final here, which is what makes probe-all identical to the base
        // index's exhaustive TopKInto.
        const float score =
            tensor::Dot(ctx.query, base_->EmbeddingAt(pos), d);
        OfferCandidate({base_->ids()[pos], score}, ctx.k, &scratch->heap);
      }
    }
  }
}

void ClusteredIndex::RescoreAndSelect(const float* query, std::size_t k,
                                      TopKScratch* scratch,
                                      std::vector<ScoredEntity>* out) const {
  if (pq_built() || base_->quantized()) {
    const std::size_t d = base_->dim();
    scratch->heap.clear();
    for (const ScoredEntity& cand : scratch->pool) {
      const std::size_t pos = cand.id;
      const float score = tensor::Dot(query, base_->EmbeddingAt(pos), d);
      OfferCandidate({base_->ids()[pos], score}, k, &scratch->heap);
    }
    scratch->pool.clear();
  }
  DrainHeap(&scratch->heap, out);
}

void ClusteredIndex::TopKInto(const float* query, std::size_t k,
                              std::size_t nprobe, ClusteredScratch* scratch,
                              std::vector<ScoredEntity>* out) const {
  METABLINK_CHECK(built() && base_ != nullptr)
      << "ClusteredIndex must be built/attached before querying";
  out->clear();
  k = std::min(k, size());
  if (k == 0) return;
  nprobe = ResolveNprobe(nprobe);
  ScoreClusters(query, &scratch->cluster_scores);
  SelectProbe(scratch->cluster_scores, nprobe, &scratch->probe);
  ScanContext ctx;
  PrepareScan(query, k, scratch, &ctx);
  scratch->topk.heap.clear();
  scratch->topk.pool.clear();
  ScanLists(ctx, scratch->probe, OwnView(), &scratch->topk);
  RescoreAndSelect(query, k, &scratch->topk, out);
}

std::vector<ScoredEntity> ClusteredIndex::TopK(const float* query,
                                               std::size_t k,
                                               std::size_t nprobe) const {
  ClusteredScratch scratch;
  std::vector<ScoredEntity> out;
  TopKInto(query, k, nprobe, &scratch, &out);
  return out;
}

void ClusteredIndex::Save(util::BinaryWriter* writer) const {
  writer->WriteU32(kClusteredTag);
  // PQ-free payloads keep writing version 1 so their bytes stay identical
  // to pre-PQ artifacts (and legible to pre-PQ readers).
  writer->WriteU32(pq_built() ? kClusteredVersion : 1u);
  writer->WriteU64(size());
  writer->WriteU64(dim());
  writer->WriteU64(num_clusters());
  writer->WriteU64(default_nprobe_);
  writer->WriteU64(options_.rescore_pool);
  writer->WriteU64(options_.seed);
  writer->WriteFloatVector(centroids_.data());
  writer->WriteFloatVector(half_cnorm_);
  writer->WriteU32Vector(list_offsets_);
  writer->WriteU32Vector(list_entries_);
  if (pq_built()) {
    writer->WriteU32(kPqTag);
    writer->WriteU64(pq_m_);
    writer->WriteU64(kPqNbits);
    writer->WriteU64(pq_kc_);
    writer->WriteU32Vector(pq_sub_offsets_);
    writer->WriteFloatVector(pq_codebooks_);
    writer->WriteByteVector(pq_codes_);
  }
}

util::Status ClusteredIndex::Load(util::BinaryReader* reader) {
  std::uint32_t tag = 0, version = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&tag));
  if (tag != kClusteredTag) {
    return util::Status::InvalidArgument("not a ClusteredIndex snapshot");
  }
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version == 0 || version > kClusteredVersion) {
    return util::Status::InvalidArgument(util::StrFormat(
        "unsupported ClusteredIndex version %u", version));
  }
  std::uint64_t n = 0, d = 0, kc = 0, nprobe = 0, rescore = 0, seed = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&n));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&d));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&kc));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&nprobe));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&rescore));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&seed));
  std::vector<float> centroids, half_cnorm;
  std::vector<std::uint32_t> offsets, entries;
  METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&centroids));
  METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&half_cnorm));
  METABLINK_RETURN_IF_ERROR(reader->ReadU32Vector(&offsets));
  METABLINK_RETURN_IF_ERROR(reader->ReadU32Vector(&entries));
  if (n == 0 || kc == 0 || kc > n || nprobe == 0 || nprobe > kc ||
      centroids.size() != kc * d || half_cnorm.size() != kc ||
      offsets.size() != kc + 1 || entries.size() != n) {
    return util::Status::InvalidArgument(
        "corrupt ClusteredIndex snapshot: inconsistent shapes");
  }
  if (offsets.front() != 0 || offsets.back() != n) {
    return util::Status::InvalidArgument(
        "corrupt ClusteredIndex snapshot: bad list bounds");
  }
  for (std::size_t c = 0; c < kc; ++c) {
    if (offsets[c] > offsets[c + 1]) {
      return util::Status::InvalidArgument(
          "corrupt ClusteredIndex snapshot: non-monotonic list offsets");
    }
  }
  std::vector<bool> seen(n, false);
  for (const std::uint32_t pos : entries) {
    if (pos >= n || seen[pos]) {
      return util::Status::InvalidArgument(
          "corrupt ClusteredIndex snapshot: entries are not a permutation");
    }
    seen[pos] = true;
  }

  // Version 2 carries a mandatory PQ block; validate it fully before
  // committing any state so a corrupt payload leaves the index untouched.
  std::uint64_t pq_m = 0, pq_kc = 0;
  std::vector<std::uint32_t> pq_sub_offsets;
  std::vector<float> pq_codebooks;
  std::vector<std::int8_t> pq_codes;
  if (version >= 2) {
    std::uint32_t pq_tag = 0;
    std::uint64_t pq_nbits = 0;
    METABLINK_RETURN_IF_ERROR(reader->ReadU32(&pq_tag));
    if (pq_tag != kPqTag) {
      return util::Status::InvalidArgument(
          "corrupt ClusteredIndex snapshot: missing PQIV block");
    }
    METABLINK_RETURN_IF_ERROR(reader->ReadU64(&pq_m));
    METABLINK_RETURN_IF_ERROR(reader->ReadU64(&pq_nbits));
    METABLINK_RETURN_IF_ERROR(reader->ReadU64(&pq_kc));
    METABLINK_RETURN_IF_ERROR(reader->ReadU32Vector(&pq_sub_offsets));
    METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&pq_codebooks));
    METABLINK_RETURN_IF_ERROR(reader->ReadByteVector(&pq_codes));
    if (pq_nbits != kPqNbits) {
      return util::Status::InvalidArgument(util::StrFormat(
          "unsupported PQ code width: %llu bits",
          static_cast<unsigned long long>(pq_nbits)));
    }
    if (pq_m == 0 || pq_m > d || pq_kc == 0 || pq_kc > kPqSlots ||
        pq_sub_offsets.size() != pq_m + 1 ||
        pq_codebooks.size() != kPqSlots * d || pq_codes.size() != n * pq_m) {
      return util::Status::InvalidArgument(
          "corrupt ClusteredIndex snapshot: inconsistent PQ shapes");
    }
    if (pq_sub_offsets.front() != 0 || pq_sub_offsets.back() != d) {
      return util::Status::InvalidArgument(
          "corrupt ClusteredIndex snapshot: bad PQ subspace bounds");
    }
    for (std::size_t m = 0; m < pq_m; ++m) {
      if (pq_sub_offsets[m] >= pq_sub_offsets[m + 1]) {
        return util::Status::InvalidArgument(
            "corrupt ClusteredIndex snapshot: non-increasing PQ subspaces");
      }
    }
    for (const float v : pq_codebooks) {
      if (!std::isfinite(v)) {
        return util::Status::InvalidArgument(
            "corrupt ClusteredIndex snapshot: non-finite PQ codebook");
      }
    }
    for (const std::int8_t code : pq_codes) {
      if (static_cast<std::uint8_t>(code) >= pq_kc) {
        return util::Status::InvalidArgument(
            "corrupt ClusteredIndex snapshot: PQ code out of range");
      }
    }
  }

  centroids_ = tensor::Tensor(static_cast<std::size_t>(kc),
                              static_cast<std::size_t>(d),
                              std::move(centroids));
  half_cnorm_ = std::move(half_cnorm);
  list_offsets_ = std::move(offsets);
  list_entries_ = std::move(entries);
  default_nprobe_ = static_cast<std::size_t>(nprobe);
  options_ = ClusteredIndexOptions{};
  options_.num_clusters = static_cast<std::size_t>(kc);
  options_.default_nprobe = static_cast<std::size_t>(nprobe);
  options_.rescore_pool = static_cast<std::size_t>(rescore);
  options_.seed = seed;
  pq_m_ = static_cast<std::size_t>(pq_m);
  pq_kc_ = static_cast<std::size_t>(pq_kc);
  pq_sub_offsets_ = std::move(pq_sub_offsets);
  pq_codebooks_ = std::move(pq_codebooks);
  pq_codes_ = std::move(pq_codes);
  options_.use_pq = pq_built();
  if (pq_built()) options_.pq_m = pq_m_;
  base_ = nullptr;  // detached until Attach()
  return util::Status::OK();
}

util::Status ClusteredIndex::Attach(const DenseIndex* base) {
  if (base == nullptr || !base->built()) {
    return util::Status::InvalidArgument(
        "ClusteredIndex::Attach requires a built base index");
  }
  if (!built()) {
    return util::Status::InvalidArgument(
        "ClusteredIndex::Attach before Build/Load");
  }
  if (base->size() != size() || base->dim() != dim()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "clustering shape [%zu x %zu] does not match base index [%zu x %zu]",
        size(), dim(), base->size(), base->dim()));
  }
  base_ = base;
  return util::Status::OK();
}

util::Status ClusteredIndex::SaveToFile(const std::string& path) const {
  store::CheckpointWriter ckpt;
  Save(ckpt.AddSection("clustered"));
  return ckpt.WriteToFile(path);
}

util::Status ClusteredIndex::LoadFromFile(const std::string& path,
                                          const DenseIndex* base) {
  auto ckpt = store::CheckpointReader::FromFile(path);
  if (!ckpt.ok()) return ckpt.status();
  auto section = ckpt->Section("clustered");
  if (!section.ok()) return section.status();
  METABLINK_RETURN_IF_ERROR(Load(&*section));
  return Attach(base);
}

}  // namespace metablink::retrieval
