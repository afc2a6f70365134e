#include "serve/linking_server.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/domain_index.h"
#include "util/logging.h"

namespace metablink::serve {

namespace {

/// Cache key for one (mention, context) request. '\x1f' (unit separator)
/// cannot appear in tokenized text, so the key is collision-free.
std::string CacheKey(const data::LinkingExample& ex) {
  std::string key;
  key.reserve(ex.mention.size() + ex.left_context.size() +
              ex.right_context.size() + 2);
  key += ex.mention;
  key += '\x1f';
  key += ex.left_context;
  key += '\x1f';
  key += ex.right_context;
  return key;
}

}  // namespace

util::Result<std::unique_ptr<LinkingServer>> LinkingServer::Create(
    const model::BiEncoder* bi, const model::CrossEncoder* cross,
    const kb::KnowledgeBase* kb, const std::string& domain,
    ServerOptions options) {
  if (bi == nullptr || cross == nullptr || kb == nullptr) {
    return util::Status::InvalidArgument("null component passed to server");
  }
  options.max_batch = std::max<std::size_t>(1, options.max_batch);
  options.retrieve_k = std::max<std::size_t>(1, options.retrieve_k);
  auto epoch = BuildEpoch(bi, cross, kb, domain, options);
  if (!epoch.ok()) return epoch.status();
  std::unique_ptr<LinkingServer> server(
      new LinkingServer(std::move(options), *std::move(epoch)));
  server->scheduler_ = std::thread(&LinkingServer::SchedulerLoop, server.get());
  return server;
}

util::Result<std::unique_ptr<LinkingServer>> LinkingServer::FromLinker(
    const core::FewShotLinker& linker, ServerOptions options) {
  if (!linker.fitted()) {
    return util::Status::FailedPrecondition(
        "call FewShotLinker::Fit before serving it");
  }
  const core::MetaBlinkPipeline* pipeline = linker.pipeline();
  return Create(pipeline->bi_encoder(), pipeline->cross_encoder(),
                &linker.corpus()->kb, linker.target_domain(),
                std::move(options));
}

util::Result<std::unique_ptr<LinkingServer>> LinkingServer::FromBundle(
    const std::string& bundle_dir, ServerOptions options) {
  options.max_batch = std::max<std::size_t>(1, options.max_batch);
  options.retrieve_k = std::max<std::size_t>(1, options.retrieve_k);
  auto bundle = store::LoadModelBundle(bundle_dir);
  if (!bundle.ok()) return bundle.status();
  auto epoch = BuildEpochFromBundle(std::move(*bundle), options);
  if (!epoch.ok()) return epoch.status();
  std::unique_ptr<LinkingServer> server(
      new LinkingServer(std::move(options), *std::move(epoch)));
  server->scheduler_ = std::thread(&LinkingServer::SchedulerLoop, server.get());
  return server;
}

LinkingServer::LinkingServer(ServerOptions options,
                             std::shared_ptr<ModelEpoch> epoch)
    : options_(std::move(options)), epoch_(std::move(epoch)) {}

LinkingServer::~LinkingServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

util::Result<std::shared_ptr<LinkingServer::ModelEpoch>>
LinkingServer::BuildEpoch(const model::BiEncoder* bi,
                          const model::CrossEncoder* cross,
                          const kb::KnowledgeBase* kb,
                          const std::string& domain,
                          const ServerOptions& options) {
  auto epoch = std::make_shared<ModelEpoch>();
  epoch->domain = domain;
  epoch->bi = bi;
  epoch->cross = cross;
  epoch->kb = kb;
  METABLINK_RETURN_IF_ERROR(core::BuildDomainIndex(
      *bi, *cross, *kb, domain, &epoch->index, &epoch->cross_cache));
  METABLINK_RETURN_IF_ERROR(FinishEpoch(options, nullptr, epoch.get()));
  return epoch;
}

util::Status LinkingServer::FinishEpoch(const ServerOptions& options,
                                        store::ModelBundle* bundle,
                                        ModelEpoch* epoch) {
  if (options.use_clustered || options.use_pq) {
    if (bundle != nullptr && bundle->has_clustered &&
        (bundle->clustered.pq_built() || !options.use_pq)) {
      // Adopt the shipped clustering. Moving the bundle into this epoch
      // relocated the index it was attached to, so re-bind it here.
      epoch->clustered = std::move(bundle->clustered);
      METABLINK_RETURN_IF_ERROR(epoch->clustered.Attach(&epoch->index));
      if (!options.use_pq && epoch->clustered.pq_built()) {
        // PQ-free serving over a PQ-bearing artifact: drop the codes so
        // the probe path is byte-identical to a build that never had them.
        epoch->clustered.DropPq();
      }
    } else {
      // No clustered artifact — or one without the PQ form the options
      // demand — so train it here.
      retrieval::ClusteredIndexOptions copts;
      copts.use_pq = options.use_pq;
      METABLINK_RETURN_IF_ERROR(epoch->clustered.Build(epoch->index, copts));
    }
  }
  const std::size_t shards = options.num_shards != 0 ? options.num_shards
                             : bundle != nullptr     ? bundle->num_shards
                                                     : 0;
  if (epoch->clustered.built() && shards >= 2) {
    METABLINK_RETURN_IF_ERROR(epoch->sharded.Build(&epoch->clustered, shards));
  }
  core::MapEntityRows(epoch->index, &epoch->entity_pos);
  return ResolveCascade(
      options,
      bundle != nullptr && bundle->has_cascade ? &bundle->cascade : nullptr,
      epoch);
}

util::Status LinkingServer::ResolveCascade(const ServerOptions& options,
                                           const model::CascadeModel* artifact,
                                           ModelEpoch* epoch) {
  if (artifact != nullptr) {
    epoch->cascade = *artifact;
  } else if (options.cascade != nullptr) {
    epoch->cascade = *options.cascade;
  }
  if (options.rerank_head_k > 0) {
    epoch->cascade.config.rerank_head_k = options.rerank_head_k;
  }
  if (options.margin_tau >= 0.0f) {
    epoch->cascade.config.margin_tau = options.margin_tau;
  }
  epoch->cascade.config.rerank_head_k =
      std::max<std::size_t>(1, epoch->cascade.config.rerank_head_k);
  if (epoch->cascade.has_scorer() &&
      epoch->cascade.weights.size() !=
          model::CascadeFeatureCount(epoch->cross->config().dim)) {
    return util::Status::InvalidArgument(
        "cascade scorer was distilled for a different cross-encoder "
        "dimension");
  }
  return util::Status::OK();
}

util::Result<std::shared_ptr<LinkingServer::ModelEpoch>>
LinkingServer::BuildEpochFromBundle(store::ModelBundle bundle,
                                    const ServerOptions& options) {
  auto epoch = std::make_shared<ModelEpoch>();
  epoch->owned = std::make_unique<store::ModelBundle>(std::move(bundle));
  store::ModelBundle& b = *epoch->owned;
  epoch->version = b.model_version;
  epoch->domain = b.domain;
  epoch->bi = b.bi.get();
  epoch->cross = b.cross.get();
  epoch->kb = b.kb.get();
  epoch->index = std::move(b.index);
  if (!epoch->index.built()) {
    return util::Status::InvalidArgument("bundle index has no entities");
  }
  if (b.has_rerank_cache) {
    epoch->cross_cache = std::move(b.rerank_cache);
  } else {
    // Bundle shipped without the precomputed rerank artifact: rebuild it
    // from the KB in index-row order.
    const std::vector<kb::EntityId>& ids = epoch->index.ids();
    std::vector<kb::Entity> entities;
    entities.reserve(ids.size());
    for (kb::EntityId id : ids) entities.push_back(epoch->kb->entity(id));
    epoch->cross->PrecomputeEntities(entities, &epoch->cross_cache);
  }
  METABLINK_RETURN_IF_ERROR(FinishEpoch(options, &b, epoch.get()));
  return epoch;
}

util::Status LinkingServer::SwapModel(const std::string& bundle_dir) {
  // All loading and validation happens off the publish lock; a concurrent
  // scheduler keeps serving the current version throughout.
  auto bundle = store::LoadModelBundle(bundle_dir);
  if (!bundle.ok()) return bundle.status();
  auto epoch = BuildEpochFromBundle(std::move(*bundle), options_);
  if (!epoch.ok()) return epoch.status();
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = *std::move(epoch);
    ++swaps_;
  }
  return util::Status::OK();
}

std::shared_ptr<LinkingServer::ModelEpoch> LinkingServer::CurrentEpoch()
    const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

util::Result<std::vector<core::LinkPrediction>> LinkingServer::Link(
    const std::string& mention, const std::string& left_context,
    const std::string& right_context, std::size_t top_k) {
  Request req;
  req.example.mention = mention;
  req.example.left_context = left_context;
  req.example.right_context = right_context;
  // example.domain is stamped by ServeBatch from the version that serves
  // the batch.
  req.top_k = top_k;
  req.enqueued = Clock::now();
  auto future = req.promise.get_future();
  // Holds a drop-oldest victim so its promise is fulfilled off the lock.
  std::optional<Request> shed_victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return util::Status::FailedPrecondition("server is shutting down");
    }
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
      if (options_.shed_policy == LoadShedPolicy::kRejectNew) {
        ++rejected_;
        return util::Status::Unavailable(
            "request rejected: queue full (max_queue=" +
            std::to_string(options_.max_queue) + ")");
      }
      shed_victim.emplace(std::move(queue_.front()));
      queue_.pop_front();
      ++shed_;
    }
    queue_.push_back(std::move(req));
    ++accepted_;
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
    // Notify while still holding mu_: the destructor's shutdown drain also
    // takes mu_, so once it fulfills this request's promise no further
    // touch of queue_cv_ from this call is possible — destroying the
    // server with callers still blocked in Link stays well-defined.
    queue_cv_.notify_all();
  }
  if (shed_victim.has_value()) {
    shed_victim->promise.set_value(util::Status::Unavailable(
        "request shed: dropped as oldest in a full queue (max_queue=" +
        std::to_string(options_.max_queue) + ")"));
  }
  return future.get();
}

void LinkingServer::SchedulerLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ with nothing left to drain
    // Let the batch fill until the oldest request's deadline. On stop,
    // flush immediately so pending requests still complete.
    const auto deadline =
        queue_.front().enqueued +
        std::chrono::microseconds(options_.flush_deadline_us);
    while (!stop_ && queue_.size() < options_.max_batch) {
      if (queue_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    std::vector<Request> batch;
    const std::size_t n = std::min(queue_.size(), options_.max_batch);
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    in_flight_ += n;
    lock.unlock();
    ServeBatch(&batch);
  }
}

void LinkingServer::ServeBatch(std::vector<Request>* batch) {
  // One model version serves the whole batch: every stage below reads
  // through this snapshot, so a concurrent SwapModel can never produce a
  // response that mixes versions. The snapshot also keeps the old version
  // alive until its last in-flight batch completes.
  const std::shared_ptr<ModelEpoch> epoch = CurrentEpoch();
  const std::size_t m = batch->size();
  const std::size_t d = epoch->bi->dim();
  std::size_t hits = 0;
  std::size_t misses = 0;

  // ---- Stage 1: batched mention encode (tape-free), LRU-deduplicated.
  // A cache hit restores both the mention embedding and its retrieved
  // top-k (each a pure function of the request text and the version's
  // index), so hits skip stage 2 entirely.
  const auto t0 = Clock::now();
  queries_.Resize(m, d);
  batch_hits_.resize(m);
  miss_idx_.clear();
  keys_.clear();
  keys_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    (*batch)[i].example.domain = epoch->domain;
    if (options_.cache_capacity > 0) {
      keys_[i] = CacheKey((*batch)[i].example);
      if (CacheLookup(epoch.get(), keys_[i], queries_.row_data(i),
                      &batch_hits_[i])) {
        ++hits;
        continue;
      }
      ++misses;
    }
    miss_idx_.push_back(i);
  }
  if (!miss_idx_.empty()) {
    if (encode_scratch_.bags.size() < miss_idx_.size()) {
      encode_scratch_.bags.resize(miss_idx_.size());
    }
    for (std::size_t j = 0; j < miss_idx_.size(); ++j) {
      epoch->bi->featurizer().MentionBagInto((*batch)[miss_idx_[j]].example,
                                             &encode_scratch_.bags[j]);
    }
    epoch->bi->EncodeMentionBagsInference(miss_idx_.size(), &encode_scratch_,
                                          &encoded_);
    for (std::size_t j = 0; j < miss_idx_.size(); ++j) {
      const std::size_t i = miss_idx_[j];
      std::copy(encoded_.row_data(j), encoded_.row_data(j) + d,
                queries_.row_data(i));
    }
  }

  // ---- Stage 2: top-k retrieval against the version's prebuilt domain
  // index for the cache misses, parallel across queries (each query's
  // top-k is independent, so the parallel results are identical to
  // serial).
  const auto t1 = Clock::now();
  const std::size_t k = options_.retrieve_k;
  if (topk_scratch_.size() < std::max<std::size_t>(1, pool_.num_threads())) {
    topk_scratch_.resize(std::max<std::size_t>(1, pool_.num_threads()));
  }
  if (!miss_idx_.empty()) {
    const bool clustered = (options_.use_clustered || options_.use_pq) &&
                           epoch->clustered.built();
    const bool sharded = clustered && epoch->sharded.built();
    if (clustered &&
        clustered_scratch_.size() <
            std::max<std::size_t>(1, pool_.num_threads())) {
      clustered_scratch_.resize(std::max<std::size_t>(1, pool_.num_threads()));
    }
    if (sharded &&
        sharded_scratch_.size() < std::max<std::size_t>(1, pool_.num_threads())) {
      sharded_scratch_.resize(std::max<std::size_t>(1, pool_.num_threads()));
    }
    pool_.ParallelForChunks(
        miss_idx_.size(), 0,
        [this, &epoch, k, clustered, sharded](
            std::size_t chunk, std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            const std::size_t i = miss_idx_[j];
            if (sharded) {
              // Sharded probe, bit-identical to the single-index path.
              // TopKParallel's nested ParallelForChunks degrades to a
              // serial shard loop inside this batch-parallel region, so
              // shards run concurrently exactly when the batch doesn't.
              epoch->sharded.TopKParallel(queries_.row_data(i), k,
                                          options_.nprobe, &pool_,
                                          &sharded_scratch_[chunk],
                                          &batch_hits_[i]);
            } else if (clustered) {
              // Probe path: the clustered index runs its PQ scan when it
              // carries that form.
              epoch->clustered.TopKInto(queries_.row_data(i), k,
                                        options_.nprobe,
                                        &clustered_scratch_[chunk],
                                        &batch_hits_[i]);
            } else {
              epoch->index.TopKInto(queries_.row_data(i), k,
                                    &topk_scratch_[chunk], &batch_hits_[i]);
            }
          }
        });
    if (options_.cache_capacity > 0) {
      for (std::size_t i : miss_idx_) {
        CacheInsert(epoch.get(), keys_[i], queries_.row_data(i),
                    batch_hits_[i]);
      }
    }
  }

  // ---- Stage 3: cross-encoder re-rank, parallel across requests with
  // per-chunk scratch. Outcomes are held back and promises fulfilled only
  // after the stats update below, so a caller that returns from Link()
  // and immediately reads Stats() always sees its own batch counted.
  const auto t2 = Clock::now();
  std::vector<double> batch_latencies(m, 0.0);
  std::vector<util::Result<std::vector<core::LinkPrediction>>> outcomes(
      m, util::Status::NotFound("no candidates retrieved"));
  if (rerank_scratch_.size() < std::max<std::size_t>(1, pool_.num_threads())) {
    rerank_scratch_.resize(std::max<std::size_t>(1, pool_.num_threads()));
  }
  // Tier taken by each request: 0 exited, 1 distilled, 2 full. Tier
  // selection depends only on the request's own retrieval result and the
  // epoch's immutable cascade config, so assignments (and responses) are
  // identical whatever the batch composition or chunking — the counters
  // summed from this vector always total m.
  constexpr std::uint8_t kTierExited = 0;
  constexpr std::uint8_t kTierDistilled = 1;
  constexpr std::uint8_t kTierFull = 2;
  const bool use_cascade = options_.use_cascade;
  std::vector<std::uint8_t> tiers(m, kTierFull);
  pool_.ParallelForChunks(
      m, 0, [this, &epoch, batch, &batch_latencies, &outcomes, &tiers,
             use_cascade](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
        RerankScratch& scratch = rerank_scratch_[chunk];
        const model::CascadeConfig& config = epoch->cascade.config;
        for (std::size_t i = begin; i < end; ++i) {
          Request& req = (*batch)[i];
          std::vector<retrieval::ScoredEntity>& cands = batch_hits_[i];
          if (cands.empty()) {
            // Nothing to rerank: under the cascade this counts as an
            // exit; off-cascade it stays a (vacuous) full rerank.
            if (use_cascade) tiers[i] = kTierExited;
            continue;  // keep the NotFound outcome
          }
          if (!use_cascade) {
            // The pre-cascade serving path, byte for byte: cross-encode
            // and re-sort the entire candidate list.
            scratch.rows.clear();
            scratch.rows.reserve(cands.size());
            for (const auto& c : cands) {
              scratch.rows.push_back(epoch->entity_pos.at(c.id));
            }
            epoch->cross->ScoreCachedInference(
                req.example, scratch.rows, epoch->cross_cache,
                &scratch.cross, &scratch.scores);
            for (std::size_t c = 0; c < cands.size(); ++c) {
              cands[c].score = scratch.scores[c];
            }
            std::sort(cands.begin(), cands.end(),
                      [](const retrieval::ScoredEntity& a,
                         const retrieval::ScoredEntity& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.id < b.id;
                      });
          } else {
            const float margin =
                cands.size() > 1
                    ? cands[0].score - cands[1].score
                    : std::numeric_limits<float>::infinity();
            if (margin >= config.margin_tau) {
              // Tier 1 — early exit: retrieval is confident enough that
              // calibration proved rerank would not change the answer.
              tiers[i] = kTierExited;
            } else {
              // Ambiguous head: candidates within band_epsilon of top1,
              // capped at rerank_head_k, never empty. The tail keeps its
              // retrieval order and scores.
              std::size_t head = 1;
              while (head < cands.size() && head < config.rerank_head_k &&
                     cands[0].score - cands[head].score <=
                         config.band_epsilon) {
                ++head;
              }
              if (margin >= config.distill_tau &&
                  epoch->cascade.has_scorer()) {
                // Tier 2 — distilled scorer over the head.
                tiers[i] = kTierDistilled;
                scratch.strip.resize(cands.size());
                for (std::size_t c = 0; c < cands.size(); ++c) {
                  scratch.strip[c] = cands[c].score;
                }
                epoch->cross->featurizer().PrecomputeMentionTokens(
                    req.example, &scratch.cross.mention_tokens);
                epoch->cross->MentionVecInto(req.example, &scratch.cross);
                const std::size_t cross_d =
                    epoch->cross_cache.entity_vec.cols();
                scratch.features.resize(model::CascadeFeatureCount(cross_d));
                scratch.scores.resize(head);
                for (std::size_t r = 0; r < head; ++r) {
                  const std::size_t pos = epoch->entity_pos.at(cands[r].id);
                  model::CascadeFeaturesInto(
                      scratch.strip.data(), cands.size(), r,
                      scratch.cross.mention_vec.data(),
                      epoch->cross_cache.entity_vec.row_data(pos), cross_d,
                      scratch.cross.mention_tokens,
                      epoch->cross_cache.tokens[pos],
                      epoch->cross->featurizer(), scratch.features.data());
                  scratch.scores[r] =
                      epoch->cascade.ScoreFeatures(scratch.features.data());
                }
              } else {
                // Tier 3 — full cross-encoder, but only over the head.
                tiers[i] = kTierFull;
                scratch.rows.clear();
                scratch.rows.reserve(head);
                for (std::size_t r = 0; r < head; ++r) {
                  scratch.rows.push_back(epoch->entity_pos.at(cands[r].id));
                }
                epoch->cross->ScoreCachedInference(
                    req.example, scratch.rows, epoch->cross_cache,
                    &scratch.cross, &scratch.scores);
              }
              for (std::size_t r = 0; r < head; ++r) {
                cands[r].score = scratch.scores[r];
              }
              std::sort(cands.begin(), cands.begin() + head,
                        [](const retrieval::ScoredEntity& a,
                           const retrieval::ScoredEntity& b) {
                          if (a.score != b.score) return a.score > b.score;
                          return a.id < b.id;
                        });
            }
          }
          if (cands.size() > req.top_k) cands.resize(req.top_k);
          std::vector<core::LinkPrediction> predictions;
          predictions.reserve(cands.size());
          for (const auto& c : cands) {
            core::LinkPrediction p;
            p.entity_id = c.id;
            p.title = epoch->kb->entity(c.id).title;
            p.score = c.score;
            predictions.push_back(std::move(p));
          }
          const auto done = Clock::now();
          batch_latencies[i] =
              std::chrono::duration<double, std::milli>(done - req.enqueued)
                  .count();
          outcomes[i] = std::move(predictions);
        }
      });
  const auto t3 = Clock::now();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests += m;
    stats_.batches += 1;
    stats_.cache_hits += hits;
    stats_.cache_misses += misses;
    stats_.encode_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    stats_.retrieve_ms +=
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    stats_.rerank_ms +=
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    for (std::size_t i = 0; i < m; ++i) {
      switch (tiers[i]) {
        case kTierExited: ++stats_.rerank_exited; break;
        case kTierDistilled: ++stats_.rerank_distilled; break;
        default: ++stats_.rerank_full; break;
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (outcomes[i].ok()) latencies_ms_.push_back(batch_latencies[i]);
    }
  }
  {
    // Completed-before-fulfilled: once any promise below is visible to its
    // caller, this batch is already out of the in-flight gauge and counted
    // in stats_.requests.
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ -= m;
  }
  for (std::size_t i = 0; i < m; ++i) {
    (*batch)[i].promise.set_value(std::move(outcomes[i]));
  }
}

bool LinkingServer::CacheLookup(
    ModelEpoch* epoch, const std::string& key, float* vec_out,
    std::vector<retrieval::ScoredEntity>* hits_out) {
  auto it = epoch->lru_map.find(key);
  if (it == epoch->lru_map.end()) return false;
  // Refresh recency.
  epoch->lru.splice(epoch->lru.begin(), epoch->lru, it->second);
  const CachedFeature& feature = it->second->second;
  std::copy(feature.vec.begin(), feature.vec.end(), vec_out);
  *hits_out = feature.hits;
  return true;
}

void LinkingServer::CacheInsert(
    ModelEpoch* epoch, const std::string& key, const float* vec,
    const std::vector<retrieval::ScoredEntity>& hits) {
  if (options_.cache_capacity == 0) return;
  auto it = epoch->lru_map.find(key);
  if (it != epoch->lru_map.end()) {
    // Duplicate miss within one batch: refresh, keep the existing entry.
    epoch->lru.splice(epoch->lru.begin(), epoch->lru, it->second);
    return;
  }
  CachedFeature feature;
  feature.vec.assign(vec, vec + epoch->bi->dim());
  feature.hits = hits;
  epoch->lru.emplace_front(key, std::move(feature));
  epoch->lru_map[key] = epoch->lru.begin();
  while (epoch->lru.size() > options_.cache_capacity) {
    epoch->lru_map.erase(epoch->lru.back().first);
    epoch->lru.pop_back();
  }
}

ServerStats LinkingServer::Stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.accepted = accepted_;
    out.rejected = rejected_;
    out.shed = shed_;
    out.queue_depth = queue_.size();
    out.queue_depth_high_water = queue_high_water_;
    out.in_flight = in_flight_;
    out.oldest_wait_us =
        queue_.empty()
            ? 0.0
            : std::chrono::duration<double, std::micro>(
                  Clock::now() - queue_.front().enqueued)
                  .count();
  }
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    out.model_version = epoch_->version;
    out.swaps = swaps_;
    out.num_shards =
        epoch_->sharded.built() ? epoch_->sharded.num_shards() : 1;
    out.pq_active = epoch_->clustered.built() && epoch_->clustered.pq_built();
  }
  return out;
}

std::vector<double> LinkingServer::LatenciesMs() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return latencies_ms_;
}

std::size_t LinkingServer::index_size() const {
  return CurrentEpoch()->index.size();
}

}  // namespace metablink::serve
