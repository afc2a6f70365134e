#include "retrieval/dense_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "retrieval/score_kernel.h"
#include "store/checkpoint.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/string_util.h"

namespace metablink::retrieval {

namespace {

// Strict total order on hits: higher score first, ascending id on ties.
// With distinct ids this is a total order, so heap selection and the old
// full partial_sort pick exactly the same k hits in the same order.
bool Better(const ScoredEntity& a, const ScoredEntity& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

// Entities scored per tile; 512 rows of a 128-dim float matrix is 256 KiB,
// sized to stay L2-resident while a query block streams over it.
constexpr std::size_t kEntityBlock = 512;
// Queries per tile in BatchTopK. 16 query rows of d=128 floats are 8 KiB —
// small enough to stay L1-resident while the entity panel streams past,
// and twice the panel reuse of the previous 8-query tile.
constexpr std::size_t kQueryBlock = 16;

// Candidates beyond k kept per query by the approximate fp32 tile scan
// before exact re-scoring. The fp32 kernel's error relative to the double
// Dot sum is ~1 fp32 ulp of the score, so a true top-k member can only be
// displaced below the pool boundary by candidates within that error band —
// a 16-deep margin puts the boundary far outside it.
constexpr std::size_t kRescoreMargin = 16;

constexpr std::uint32_t kIndexTag = 0x44584e49u;  // "INXD"

// Bounded-heap selection keyed by row POSITION (ascending position breaks
// exact ties), shared by the batch scan and the int8 scan so both pools
// are insertion-order independent: under a strict total order the surviving
// pool is the global top-`cap` regardless of visit order.
void OfferPositions(const float* scores, std::size_t e_begin,
                    std::size_t count, std::size_t cap,
                    std::vector<ScoredEntity>* pool) {
  for (std::size_t i = 0; i < count; ++i) {
    const ScoredEntity cand{static_cast<kb::EntityId>(e_begin + i),
                            scores[i]};
    if (pool->size() < cap) {
      pool->push_back(cand);
      std::push_heap(pool->begin(), pool->end(), Better);
    } else if (Better(cand, pool->front())) {
      std::pop_heap(pool->begin(), pool->end(), Better);
      pool->back() = cand;
      std::push_heap(pool->begin(), pool->end(), Better);
    }
  }
}

}  // namespace

util::Status DenseIndex::Build(tensor::Tensor embeddings,
                               std::vector<kb::EntityId> ids) {
  if (embeddings.rows() != ids.size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "embedding rows (%zu) != id count (%zu)", embeddings.rows(),
        ids.size()));
  }
  if (ids.empty()) {
    return util::Status::InvalidArgument("cannot build an empty index");
  }
  embeddings_ = std::move(embeddings);
  ids_ = std::move(ids);
  q_rows_.clear();
  q_scales_.clear();
  return util::Status::OK();
}

void DenseIndex::OfferBlock(const float* scores, std::size_t e_begin,
                            std::size_t count, std::size_t k,
                            TopKScratch* scratch) const {
  // Bounded min-heap under Better: the root is the worst retained hit, so
  // a candidate only costs O(log k) when it actually displaces something.
  std::vector<ScoredEntity>& heap = scratch->heap;
  for (std::size_t i = 0; i < count; ++i) {
    const ScoredEntity cand{ids_[e_begin + i], scores[i]};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), Better);
    } else if (Better(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
  }
}

void DenseIndex::DrainHeap(TopKScratch* scratch,
                           std::vector<ScoredEntity>* out) {
  std::sort_heap(scratch->heap.begin(), scratch->heap.end(), Better);
  out->assign(scratch->heap.begin(), scratch->heap.end());
  scratch->heap.clear();
}

void DenseIndex::TopKInto(const float* query, std::size_t k,
                          TopKScratch* scratch,
                          std::vector<ScoredEntity>* out) const {
  out->clear();
  // Pinned edge cases: k > size() clamps to a full ranking; k == 0 (after
  // clamping an empty request) returns no hits without touching the data.
  k = std::min(k, ids_.size());
  if (k == 0) return;
  scratch->heap.clear();
  const std::size_t d = embeddings_.cols();
  const std::size_t total = ids_.size();
  scratch->scores.resize(std::min(kEntityBlock, total));
  for (std::size_t e0 = 0; e0 < total; e0 += kEntityBlock) {
    const std::size_t count = std::min(kEntityBlock, total - e0);
    for (std::size_t i = 0; i < count; ++i) {
      scratch->scores[i] =
          tensor::Dot(query, embeddings_.row_data(e0 + i), d);
    }
    OfferBlock(scratch->scores.data(), e0, count, k, scratch);
  }
  DrainHeap(scratch, out);
}

std::vector<ScoredEntity> DenseIndex::TopK(const float* query,
                                           std::size_t k) const {
  TopKScratch scratch;
  std::vector<ScoredEntity> out;
  TopKInto(query, k, &scratch, &out);
  return out;
}

void DenseIndex::BatchBlock(const tensor::Tensor& queries, std::size_t q0,
                            std::size_t k, BatchTopKScratch::Chunk* chunk,
                            std::vector<std::vector<ScoredEntity>>* out)
    const {
  const std::size_t nq = queries.rows();
  const std::size_t d = embeddings_.cols();
  const std::size_t total = ids_.size();
  const std::size_t qn = std::min(kQueryBlock, nq - q0);
  // Sized once per tile shape: both buffers depend only on the block
  // constants, so a reused scratch never grows again after its first block.
  if (chunk->per_query.size() < kQueryBlock) {
    chunk->per_query.resize(kQueryBlock);
  }
  if (chunk->tile.size() < kQueryBlock * kEntityBlock) {
    chunk->tile.resize(kQueryBlock * kEntityBlock);
  }
  const std::size_t pool_cap = std::min(total, k + kRescoreMargin);
  for (std::size_t qi = 0; qi < qn; ++qi) {
    chunk->per_query[qi].pool.clear();
  }
  // Phase 1: approximate fp32 tile scan. Each entity panel is read once
  // per query block instead of once per query, the tile is written by
  // assignment (never zero-filled), and selection keeps the best
  // (k + margin) row positions per query.
  for (std::size_t e0 = 0; e0 < total; e0 += kEntityBlock) {
    const std::size_t en = std::min(kEntityBlock, total - e0);
    internal::ScoreTileF32(queries.row_data(q0), embeddings_.row_data(e0),
                           chunk->tile.data(), qn, d, en);
    for (std::size_t qi = 0; qi < qn; ++qi) {
      OfferPositions(chunk->tile.data() + qi * en, e0, en, pool_cap,
                     &chunk->per_query[qi].pool);
    }
  }
  // Phase 2: exact re-score of each query's surviving positions with the
  // double-chain Dot, then final top-k selection — returned scores carry
  // no tile-kernel error and match TopKInto exactly.
  for (std::size_t qi = 0; qi < qn; ++qi) {
    TopKScratch& scr = chunk->per_query[qi];
    scr.heap.clear();
    scr.scores.resize(1);
    for (const ScoredEntity& cand : scr.pool) {
      const std::size_t position = cand.id;
      scr.scores[0] =
          tensor::Dot(queries.row_data(q0 + qi), embeddings_.row_data(position),
                      d);
      OfferBlock(scr.scores.data(), position, 1, k, &scr);
    }
    DrainHeap(&scr, &(*out)[q0 + qi]);
  }
}

void DenseIndex::BatchTopKInto(
    const tensor::Tensor& queries, std::size_t k, util::ThreadPool* pool,
    BatchTopKScratch* scratch,
    std::vector<std::vector<ScoredEntity>>* out) const {
  const std::size_t nq = queries.rows();
  out->resize(nq);
  if (nq == 0) return;
  const std::size_t kk = std::min(k, ids_.size());
  if (kk == 0) {
    // Pinned edge case: k == 0 asks for nothing — skip the scan entirely.
    for (auto& hits : *out) hits.clear();
    return;
  }
  if (nq == 1) {
    // A 1-row tile has no cross-query panel reuse to exploit; the direct
    // single-query path skips the tile entirely.
    if (scratch->chunks.empty()) scratch->chunks.resize(1);
    if (scratch->chunks[0].per_query.empty()) {
      scratch->chunks[0].per_query.resize(1);
    }
    TopKInto(queries.row_data(0), kk, &scratch->chunks[0].per_query[0],
             &(*out)[0]);
    return;
  }
  const std::size_t nblocks = (nq + kQueryBlock - 1) / kQueryBlock;

  if (pool != nullptr && nblocks >= 2) {
    // Work-stealing over query blocks: workers pull the next unclaimed
    // block from an atomic cursor, so a straggler block cannot idle the
    // other workers the way a static partition can. Each worker owns one
    // scratch chunk; block results land in disjoint `out` rows, and the
    // per-block computation is identical to the serial path, so stealing
    // order never changes the output.
    const std::size_t workers = std::min(pool->num_threads(), nblocks);
    if (scratch->chunks.size() < workers) scratch->chunks.resize(workers);
    std::atomic<std::size_t> next_block{0};
    pool->ParallelForChunks(
        workers, workers,
        [&](std::size_t chunk_id, std::size_t, std::size_t) {
          BatchTopKScratch::Chunk& chunk = scratch->chunks[chunk_id];
          for (;;) {
            const std::size_t b =
                next_block.fetch_add(1, std::memory_order_relaxed);
            if (b >= nblocks) break;
            BatchBlock(queries, b * kQueryBlock, kk, &chunk, out);
          }
        });
  } else {
    if (scratch->chunks.empty()) scratch->chunks.resize(1);
    for (std::size_t b = 0; b < nblocks; ++b) {
      BatchBlock(queries, b * kQueryBlock, kk, &scratch->chunks[0], out);
    }
  }
}

std::vector<std::vector<ScoredEntity>> DenseIndex::BatchTopK(
    const tensor::Tensor& queries, std::size_t k,
    util::ThreadPool* pool) const {
  BatchTopKScratch scratch;
  std::vector<std::vector<ScoredEntity>> out;
  BatchTopKInto(queries, k, pool, &scratch, &out);
  return out;
}

void DenseIndex::Quantize() {
  const std::size_t n = ids_.size();
  const std::size_t d = embeddings_.cols();
  q_rows_.assign(n * d, 0);
  q_scales_.assign(n, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    const float* row = embeddings_.row_data(r);
    float max_abs = 0.0f;
    for (std::size_t j = 0; j < d; ++j) {
      max_abs = std::max(max_abs, std::fabs(row[j]));
    }
    if (max_abs == 0.0f) continue;  // all-zero row quantizes to zeros
    const float scale = max_abs / 127.0f;
    q_scales_[r] = scale;
    const float inv = 1.0f / scale;
    std::int8_t* qrow = q_rows_.data() + r * d;
    for (std::size_t j = 0; j < d; ++j) {
      const float q = std::nearbyint(row[j] * inv);
      qrow[j] = static_cast<std::int8_t>(
          std::clamp(q, -127.0f, 127.0f));
    }
  }
}

float DenseIndex::QuantizeQueryInto(const float* query,
                                    std::vector<std::int8_t>* out) const {
  const std::size_t d = embeddings_.cols();
  float qmax = 0.0f;
  for (std::size_t j = 0; j < d; ++j) {
    qmax = std::max(qmax, std::fabs(query[j]));
  }
  out->resize(d);
  if (qmax == 0.0f) {
    std::fill(out->begin(), out->end(), static_cast<std::int8_t>(0));
    return 0.0f;
  }
  const float qscale = qmax / 127.0f;
  const float inv = 1.0f / qscale;
  for (std::size_t j = 0; j < d; ++j) {
    (*out)[j] = static_cast<std::int8_t>(
        std::clamp(std::nearbyint(query[j] * inv), -127.0f, 127.0f));
  }
  return qscale;
}

void DenseIndex::TopKQuantizedInto(const float* query, std::size_t k,
                                   std::size_t pool_size,
                                   TopKScratch* scratch,
                                   std::vector<ScoredEntity>* out) const {
  METABLINK_CHECK(quantized()) << "call Quantize() before TopKQuantizedInto";
  // Small KBs lose on the int8 path: the quantize/pool/re-score fixed cost
  // dwarfs the bandwidth it saves when every fp32 row already fits in
  // cache. Below the threshold the fp32 scan is both faster and exact, so
  // dispatch there — output is identical because the re-scored quantized
  // result equals the exact scan whenever the true top-k survives the
  // pool, and the bench pins the crossover.
  if (ids_.size() < kQuantizedDispatchMinRows) {
    TopKInto(query, k, scratch, out);
    return;
  }
  out->clear();
  const std::size_t total = ids_.size();
  const std::size_t d = embeddings_.cols();
  k = std::min(k, total);
  if (k == 0) return;
  pool_size = std::clamp(pool_size, k, total);

  // Symmetric per-query quantization, same scheme as the rows.
  const float qscale = QuantizeQueryInto(query, &scratch->qquery);

  // Phase 1: integer scan. Approximate scores select a candidate pool of
  // row POSITIONS (so phase 2 can address the fp32 rows directly) via the
  // same bounded-heap selection the fp32 path uses.
  scratch->heap.clear();
  scratch->scores.resize(std::min(kEntityBlock, total));
  const std::int8_t* qq = scratch->qquery.data();
  std::vector<ScoredEntity>& pool = scratch->pool;
  pool.clear();
  for (std::size_t e0 = 0; e0 < total; e0 += kEntityBlock) {
    const std::size_t count = std::min(kEntityBlock, total - e0);
    for (std::size_t i = 0; i < count; ++i) {
      // Exact int8 dot (AVX2 when available): the approximate scores — and
      // hence the surviving pool — are bit-identical to the scalar scan.
      const std::int8_t* row = q_rows_.data() + (e0 + i) * d;
      const std::int32_t acc = internal::DotInt8(qq, row, d);
      scratch->scores[i] =
          static_cast<float>(acc) * qscale * q_scales_[e0 + i];
    }
    OfferPositions(scratch->scores.data(), e0, count, pool_size, &pool);
  }

  // Phase 2: exact fp32 re-score of the surviving positions, then final
  // top-k selection — the returned scores carry no quantization error.
  scratch->heap.clear();
  scratch->scores.resize(1);
  for (const ScoredEntity& cand : pool) {
    const std::size_t position = cand.id;
    scratch->scores[0] =
        tensor::Dot(query, embeddings_.row_data(position), d);
    OfferBlock(scratch->scores.data(), position, 1, k, scratch);
  }
  DrainHeap(scratch, out);
}

void DenseIndex::Save(util::BinaryWriter* writer) const {
  writer->WriteU32(kIndexTag);
  writer->WriteU64(ids_.size());
  writer->WriteU64(embeddings_.cols());
  writer->WriteU32Vector(ids_);
  writer->WriteFloatVector(embeddings_.data());
  writer->WriteU32(quantized() ? 1u : 0u);
  if (quantized()) {
    writer->WriteByteVector(q_rows_);
    writer->WriteFloatVector(q_scales_);
  }
}

util::Status DenseIndex::Load(util::BinaryReader* reader) {
  std::uint32_t tag = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&tag));
  if (tag != kIndexTag) {
    return util::Status::InvalidArgument("not a DenseIndex snapshot");
  }
  std::uint64_t n = 0, d = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&n));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&d));
  std::vector<kb::EntityId> ids;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32Vector(&ids));
  std::vector<float> flat;
  METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&flat));
  if (ids.size() != n || flat.size() != n * d || n == 0) {
    return util::Status::InvalidArgument("corrupt DenseIndex snapshot");
  }
  std::uint32_t has_quant = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&has_quant));
  std::vector<std::int8_t> q_rows;
  std::vector<float> q_scales;
  if (has_quant != 0) {
    METABLINK_RETURN_IF_ERROR(reader->ReadByteVector(&q_rows));
    METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&q_scales));
    if (q_rows.size() != n * d || q_scales.size() != n) {
      return util::Status::InvalidArgument(
          "corrupt DenseIndex quantized payload");
    }
  }
  embeddings_ = tensor::Tensor(static_cast<std::size_t>(n),
                               static_cast<std::size_t>(d), std::move(flat));
  ids_ = std::move(ids);
  q_rows_ = std::move(q_rows);
  q_scales_ = std::move(q_scales);
  return util::Status::OK();
}

util::Status DenseIndex::SaveToFile(const std::string& path) const {
  store::CheckpointWriter ckpt;
  Save(ckpt.AddSection("index"));
  return ckpt.WriteToFile(path);
}

util::Status DenseIndex::LoadFromFile(const std::string& path) {
  auto ckpt = store::CheckpointReader::FromFile(path);
  if (!ckpt.ok()) return ckpt.status();
  auto section = ckpt->Section("index");
  if (!section.ok()) return section.status();
  return Load(&*section);
}

}  // namespace metablink::retrieval
