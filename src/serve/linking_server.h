#ifndef METABLINK_SERVE_LINKING_SERVER_H_
#define METABLINK_SERVE_LINKING_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/few_shot_linker.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cascade.h"
#include "model/cross_encoder.h"
#include "retrieval/clustered_index.h"
#include "retrieval/dense_index.h"
#include "retrieval/sharded_index.h"
#include "store/model_bundle.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace metablink::serve {

/// What a full bounded queue sheds (ServerOptions::max_queue).
enum class LoadShedPolicy {
  /// Refuse the arriving request with kUnavailable; queued requests keep
  /// their FIFO positions (oldest-first service, freshest rejected).
  kRejectNew,
  /// Complete the oldest queued request with kUnavailable and admit the
  /// arrival (freshest-first service under overload; the oldest request is
  /// the one whose caller has already waited longest and is most likely to
  /// have timed out upstream).
  kDropOldest,
};

/// Knobs for the micro-batching request scheduler.
struct ServerOptions {
  /// Flush a batch as soon as this many requests are pending.
  std::size_t max_batch = 16;
  /// ... or as soon as the oldest pending request has waited this long.
  std::uint64_t flush_deadline_us = 500;
  /// Stage-1 candidates per request (paper: 64).
  std::size_t retrieve_k = 64;
  /// Serve retrieval through the clustered (IVF) form of the index: probe
  /// only the best `nprobe` k-means cells instead of scanning every row.
  /// A bundle that ships a "clustered" artifact is adopted as-is; otherwise
  /// the clustering is trained at epoch build time.
  bool use_clustered = false;
  /// Cells probed per query when serving clustered. 0 uses the index's own
  /// default, ceil(sqrt(num_clusters)) cells. That default favours latency
  /// over recall: on perfbench serve_large's trained encoders (32768
  /// entities, 181 cells, 14 probed) it finds only 0.82 of the exhaustive
  /// top 64, and 0.95 needs nprobe 64. Callers who need recall should set
  /// nprobe.
  std::size_t nprobe = 0;
  /// Serve the clustered probe from the product-quantized residual form:
  /// per-subspace codebooks trained on (row − centroid) residuals, a few
  /// bytes of codes per entity scanned via per-query ADC tables, exact
  /// fp32 re-score of the survivors. Implies the clustered probe path. A
  /// bundle whose clustered artifact ships PQ is adopted as-is; one
  /// without it gets the PQ form trained at epoch build with the default
  /// ClusteredIndexOptions. With use_pq off, a shipped PQ form is dropped
  /// so serving stays byte-identical to a PQ-free build.
  bool use_pq = false;
  /// KB shards behind the probe path: the entity rows split into this many
  /// contiguous slices, probed in parallel per query and merged
  /// bit-identically to the single-index probe. 0 adopts the bundle
  /// manifest's declared count (unsharded for raw components and legacy
  /// bundles); 1 forces the single-index path. Requires the clustered
  /// probe (ignored otherwise).
  std::size_t num_shards = 0;
  /// LRU entries for repeated (mention, context) requests; 0 disables.
  /// Each entry holds the mention embedding and its retrieved top-k (both
  /// pure functions of the request text and the fixed index), so a hit
  /// skips encode + retrieval. Re-ranking always runs. The cache lives
  /// inside the model version it was filled against, so a SwapModel never
  /// serves stale features.
  std::size_t cache_capacity = 1024;
  /// Serve re-ranking through the three-tier adaptive cascade (see
  /// model::CascadeConfig): confident requests exit on the retrieval
  /// margin, middle-confidence requests rescore the ambiguous head with
  /// the distilled scorer, and only the rest cross-encode the head. Off
  /// (the default) serves the exact full-rerank path of previous builds,
  /// byte for byte.
  bool use_cascade = false;
  /// Override of the cascade's ambiguous-head cap; 0 adopts the cascade
  /// model's own calibrated value.
  std::size_t rerank_head_k = 0;
  /// Override of the cascade's early-exit margin threshold; negative
  /// adopts the cascade model's calibrated value.
  float margin_tau = -1.0f;
  /// Admission control: maximum depth of the pending-request queue. 0
  /// keeps the legacy unbounded queue — every Link blocks until served and
  /// responses are byte-identical to pre-admission-control builds. With a
  /// bound, a Link arriving at a full queue is shed per `shed_policy`
  /// instead of queueing, so overload degrades into prompt kUnavailable
  /// errors with bounded latency for the admitted requests rather than
  /// into unbounded queue growth.
  std::size_t max_queue = 0;
  /// Which request a full queue sheds. Only read when max_queue > 0.
  LoadShedPolicy shed_policy = LoadShedPolicy::kRejectNew;
  /// Borrowed calibrated cascade policy (train::CalibrateCascade) for
  /// servers built over raw components or bundles without a "cascade"
  /// artifact; must outlive the server. A bundle's own artifact takes
  /// precedence. Null with use_cascade serves an uncalibrated default
  /// config (never exit, no distilled tier, partial rerank of the top
  /// model::CascadeConfig{}.rerank_head_k).
  const model::CascadeModel* cascade = nullptr;
};

/// Monotonic serving counters, snapshotted by Stats(). Stage times are
/// cumulative wall-clock over all flushed batches.
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double encode_ms = 0.0;
  double retrieve_ms = 0.0;
  double rerank_ms = 0.0;
  /// Version of the currently published model (a bundle's model_version;
  /// 0 when serving in-process components).
  std::uint64_t model_version = 0;
  /// Successful SwapModel calls since construction.
  std::uint64_t swaps = 0;
  /// Per-tier rerank outcomes. Every request lands in exactly one tier, so
  /// rerank_exited + rerank_distilled + rerank_full == requests — always.
  /// With the cascade off every request counts as rerank_full; a request
  /// with no retrieved candidates counts as rerank_exited when the cascade
  /// is on (there is nothing to rerank).
  std::uint64_t rerank_exited = 0;
  std::uint64_t rerank_distilled = 0;
  std::uint64_t rerank_full = 0;
  /// Retrieval layout of the currently published epoch: shard count of the
  /// probe path (1 = single index) and whether the clustered scan reads PQ
  /// codes. Sharding and PQ never change responses — these exist so
  /// operators (and tests) can tell which path answered.
  std::uint64_t num_shards = 1;
  bool pq_active = false;
  /// Admission control. Every Link call lands in exactly one of
  /// accepted/rejected, and every accepted request is eventually either
  /// completed by a batch (counted in `requests`) or shed by kDropOldest —
  /// so the books always balance:
  ///   accepted == requests + shed + queue_depth + in_flight
  /// with the last two zero at quiescence. (The counters live on two
  /// mutexes, so a snapshot taken mid-batch can be transiently skewed by
  /// one in-flight batch; once every outstanding Link has returned the
  /// identity above is exact.)
  std::uint64_t accepted = 0;
  /// Refused at admission (kRejectNew with a full queue). Never queued, so
  /// never counted in accepted/requests/shed.
  std::uint64_t rejected = 0;
  /// Admitted, then dropped from the queue by kDropOldest; completed with
  /// kUnavailable, never served by a batch.
  std::uint64_t shed = 0;
  /// Gauges, snapshotted at Stats() time.
  std::size_t queue_depth = 0;
  /// Deepest the queue has ever been (== the bound it would have needed).
  std::size_t queue_depth_high_water = 0;
  /// Requests popped into a batch and not yet completed.
  std::size_t in_flight = 0;
  /// How long the current queue front has been waiting (0 when empty).
  double oldest_wait_us = 0.0;
};

/// Production-style serving front-end for a fitted MetaBLINK system.
///
/// Concurrent callers block in Link() while a single scheduler thread
/// coalesces their requests into bounded-latency micro-batches: a batch is
/// flushed when it reaches `max_batch` requests or when the oldest request
/// has waited `flush_deadline_us`, whichever comes first. Each flush runs
/// the tape-free pipeline — batched mention encode (BiEncoder::
/// EncodeMentionBagsInference) over the cache misses, top-k retrieval
/// against a prebuilt domain index, and cross-encoder re-ranking
/// (CrossEncoder::ScoreCachedInference against a precomputed entity-side
/// cache) — so steady-state serving does no Graph construction, no
/// per-request index rebuild, no per-candidate entity tokenization, and no
/// allocations beyond request bookkeeping.
///
/// Everything a batch touches (encoders, KB, index, rerank cache, feature
/// LRU) lives in one immutable-once-published ModelEpoch behind a
/// shared_ptr. SwapModel() loads a new artifact bundle off the request
/// path and publishes it atomically: in-flight batches finish on the
/// version they started with, later batches see the new one, and the old
/// version is destroyed when its last batch completes. A failed swap
/// (missing or corrupt bundle) returns a Status and leaves the old
/// version serving.
///
/// Scores are identical to MetaBlinkPipeline::Link: the tape-free kernels
/// are bit-compatible with the tape path, and every approximate retrieval
/// scan (int8 or PQ list scan) re-scores its candidate pool in fp32.
class LinkingServer {
 public:
  /// Builds a server over raw components. `bi`, `cross`, and `kb` must
  /// outlive the server; `domain` must have entities in `kb`. The domain
  /// index (and its clustered form, when asked for) is built here.
  static util::Result<std::unique_ptr<LinkingServer>> Create(
      const model::BiEncoder* bi, const model::CrossEncoder* cross,
      const kb::KnowledgeBase* kb, const std::string& domain,
      ServerOptions options = {});

  /// Convenience: serves a fitted FewShotLinker's target domain. The linker
  /// must outlive the server.
  static util::Result<std::unique_ptr<LinkingServer>> FromLinker(
      const core::FewShotLinker& linker, ServerOptions options = {});

  /// Builds a server over a packaged artifact bundle (store::
  /// LoadModelBundle). The server owns everything it serves; nothing else
  /// needs to outlive it.
  static util::Result<std::unique_ptr<LinkingServer>> FromBundle(
      const std::string& bundle_dir, ServerOptions options = {});

  /// Drains pending requests (they complete normally), then stops the
  /// scheduler thread.
  ~LinkingServer();

  LinkingServer(const LinkingServer&) = delete;
  LinkingServer& operator=(const LinkingServer&) = delete;

  /// Links one mention, blocking until its batch is served. Thread-safe:
  /// any number of threads may call concurrently; concurrency is what
  /// creates batching opportunities. Returns up to `top_k` predictions,
  /// best first. With a bounded queue (ServerOptions::max_queue) an
  /// overloaded server returns kUnavailable instead of blocking — either
  /// immediately (kRejectNew refused this call) or after a wait
  /// (kDropOldest shed this request to admit a newer one).
  util::Result<std::vector<core::LinkPrediction>> Link(
      const std::string& mention, const std::string& left_context,
      const std::string& right_context, std::size_t top_k = 5);

  /// Loads the bundle at `bundle_dir` and atomically publishes it as the
  /// new serving model. Thread-safe and callable while requests are in
  /// flight: every batch is served entirely by one model version, so each
  /// response reflects either the old or the new model, never a mix. On
  /// any failure the current model keeps serving and the error is
  /// returned.
  util::Status SwapModel(const std::string& bundle_dir);

  /// Snapshot of the cumulative serving counters.
  ServerStats Stats() const;

  /// Per-request latencies (enqueue to completion, ms) in completion
  /// order; the caller computes percentiles.
  std::vector<double> LatenciesMs() const;

  const ServerOptions& options() const { return options_; }
  /// Entity count of the currently published model's index.
  std::size_t index_size() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    data::LinkingExample example;
    std::size_t top_k = 0;
    Clock::time_point enqueued;
    std::promise<util::Result<std::vector<core::LinkPrediction>>> promise;
  };

  struct CachedFeature {
    std::vector<float> vec;                      // mention embedding [dim]
    std::vector<retrieval::ScoredEntity> hits;   // its retrieved top-k
  };
  using LruList = std::list<std::pair<std::string, CachedFeature>>;

  /// One published model version: every component a batch touches, owned
  /// (or borrowed, for Create/FromLinker) in one place. The index /
  /// rerank-cache / entity-position members are immutable after
  /// publication; the feature LRU is mutated by the scheduler thread only,
  /// and dies with its epoch — swap invalidation for free.
  struct ModelEpoch {
    std::uint64_t version = 0;
    std::string domain;
    /// Set when the epoch came from a bundle; null when the raw component
    /// pointers borrow caller-owned objects.
    std::unique_ptr<store::ModelBundle> owned;
    const model::BiEncoder* bi = nullptr;
    const model::CrossEncoder* cross = nullptr;
    const kb::KnowledgeBase* kb = nullptr;
    retrieval::DenseIndex index;
    /// Clustered probe structure over `index`; built() only when the epoch
    /// serves with use_clustered/use_pq. Always attached to this epoch's
    /// `index` member (re-attached after any bundle move).
    retrieval::ClusteredIndex clustered;
    /// Sharded view over `clustered`; built() only when the epoch serves
    /// with two or more KB shards. Borrows this epoch's `clustered`
    /// member, whose address is stable once the epoch is constructed.
    retrieval::ShardedIndex sharded;
    model::CrossEntityCache cross_cache;
    /// Resolved cascade policy for this epoch: the bundle's "cascade"
    /// artifact when present, else ServerOptions::cascade, else the
    /// uncalibrated default — with the ServerOptions scalar overrides
    /// applied last. Read only when ServerOptions::use_cascade.
    model::CascadeModel cascade;
    std::unordered_map<kb::EntityId, std::size_t> entity_pos;
    // Feature LRU: key -> list node of (key, feature).
    LruList lru;
    std::unordered_map<std::string, LruList::iterator> lru_map;
  };

  LinkingServer(ServerOptions options, std::shared_ptr<ModelEpoch> epoch);

  /// Encodes the domain's entities, builds the index, and precomputes the
  /// cross-encoder entity cache (core::BuildDomainIndex, the builder
  /// FewShotLinker::Fit shares), over borrowed components.
  static util::Result<std::shared_ptr<ModelEpoch>> BuildEpoch(
      const model::BiEncoder* bi, const model::CrossEncoder* cross,
      const kb::KnowledgeBase* kb, const std::string& domain,
      const ServerOptions& options);

  /// Turns a loaded bundle into a servable epoch: adopts its prebuilt index
  /// and adopts or recomputes the rerank cache.
  static util::Result<std::shared_ptr<ModelEpoch>> BuildEpochFromBundle(
      store::ModelBundle bundle, const ServerOptions& options);

  /// The steps both epoch builders share once `epoch->index` is in place:
  /// adopts the bundle's clustered artifact or builds the clustered form
  /// the options ask for, builds the sharded view when the effective shard
  /// count (options.num_shards, falling back to the bundle manifest's) is
  /// ≥ 2, derives the id -> row map, and resolves the cascade policy.
  /// `bundle` is the epoch's own bundle, or null for raw components.
  static util::Status FinishEpoch(const ServerOptions& options,
                                  store::ModelBundle* bundle,
                                  ModelEpoch* epoch);

  /// Installs the epoch's resolved cascade policy: `artifact` (a bundle's
  /// "cascade" section) wins over options.cascade wins over the default
  /// config, then the ServerOptions scalar overrides are applied.
  static util::Status ResolveCascade(const ServerOptions& options,
                                     const model::CascadeModel* artifact,
                                     ModelEpoch* epoch);

  void SchedulerLoop();
  void ServeBatch(std::vector<Request>* batch);

  /// Current epoch snapshot (the only way batches reach model state).
  std::shared_ptr<ModelEpoch> CurrentEpoch() const;

  /// LRU lookup within `epoch`; on hit copies the cached embedding into
  /// `vec_out` and the cached retrieval into `*hits_out`. Scheduler-thread
  /// only.
  static bool CacheLookup(ModelEpoch* epoch, const std::string& key,
                          float* vec_out,
                          std::vector<retrieval::ScoredEntity>* hits_out);
  void CacheInsert(ModelEpoch* epoch, const std::string& key,
                   const float* vec,
                   const std::vector<retrieval::ScoredEntity>& hits);

  ServerOptions options_;

  // Published model version; guarded by epoch_mu_. Batches snapshot the
  // shared_ptr and run lock-free against the snapshot.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<ModelEpoch> epoch_;
  std::uint64_t swaps_ = 0;

  // Request queue, guarded by mu_ (mutable: Stats() reads the depth and
  // admission counters).
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stop_ = false;
  // Admission bookkeeping, guarded by mu_ (updated on the Link path and at
  // batch pop/completion, which already hold it). in_flight_ is decremented
  // by ServeBatch *before* it fulfills the batch's promises, so a caller
  // that returns from Link and immediately reads Stats never sees its own
  // request still counted as in flight.
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::size_t queue_high_water_ = 0;
  std::size_t in_flight_ = 0;
  std::thread scheduler_;

  // Scheduler-thread-only scratch (never touched by callers; model-version
  // independent). The per-chunk vectors back the pool-parallel
  // retrieve/rerank stages: chunk ids from ParallelForChunks are dense, so
  // chunk i owns element i.
  model::EncodeScratch encode_scratch_;
  tensor::Tensor encoded_;
  tensor::Tensor queries_;
  std::vector<std::vector<retrieval::ScoredEntity>> batch_hits_;
  std::vector<retrieval::TopKScratch> topk_scratch_;
  std::vector<retrieval::ClusteredScratch> clustered_scratch_;
  std::vector<retrieval::ShardedIndexScratch> sharded_scratch_;
  struct RerankScratch {
    model::CrossScoreScratch cross;
    std::vector<float> scores;
    std::vector<std::size_t> rows;
    /// Cascade-only buffers: the retrieval-score strip feeding
    /// CascadeFeaturesInto and one distilled feature row.
    std::vector<float> strip;
    std::vector<float> features;
  };
  std::vector<RerankScratch> rerank_scratch_;
  std::vector<std::size_t> miss_idx_;
  std::vector<std::string> keys_;

  /// Worker pool for the batch-parallel retrieve and rerank stages; only
  /// the scheduler thread dispatches onto it.
  util::ThreadPool pool_;

  // Stats, guarded by stats_mu_ (written by the scheduler, read anywhere).
  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::vector<double> latencies_ms_;
};

}  // namespace metablink::serve

#endif  // METABLINK_SERVE_LINKING_SERVER_H_
