#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/few_shot_linker.h"
#include "data/example.h"
#include "load/workload.h"
#include "report.h"
#include "retrieval/dense_index.h"
#include "serve/linking_server.h"

namespace perfbench {

/// A response reduced to what the checks read: (entity id, score) best
/// first.
using Answer = std::vector<metablink::retrieval::ScoredEntity>;

/// One timed load phase. Latencies are per successful request, in ms; in
/// the open loop they run from the scheduled arrival (so a stall charges
/// every request queued behind it), in the closed loop from the call.
struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  /// Closed loop only: CPU seconds the whole process spent (server and
  /// client threads together) while the phase ran.
  double cpu_s = 0.0;
  std::vector<double> latency_ms;
  /// Open loop only: worst lateness of an issue behind its schedule.
  double max_start_lag_ms = 0.0;
  /// Pool index of request i, and its answer (empty when it failed).
  std::vector<std::size_t> sequence;
  std::vector<Answer> answers;

  double rps() const {
    return wall_s > 0.0 ? static_cast<double>(attempted - failed) / wall_s
                        : 0.0;
  }
  /// Completions per CPU second of the process.
  double per_cpu_s() const {
    return cpu_s > 0.0 ? static_cast<double>(attempted - failed) / cpu_s
                       : 0.0;
  }
};

/// Appends `from`'s requests, answers and latencies to `*into` (walls and
/// CPU times add, start lags take the worse).
void Append(PhaseResult from, PhaseResult* into);

/// Sends the requests of `pool` to a LinkingServer or a fitted
/// FewShotLinker (both are thread-safe and share Link's signature), with
/// each answer reduced to ids and scores. Borrows everything it is given.
class Client {
 public:
  Client(metablink::serve::LinkingServer* server,
         const std::vector<metablink::data::LinkingExample>* pool,
         std::size_t top_k);
  Client(const metablink::core::FewShotLinker* linker,
         const std::vector<metablink::data::LinkingExample>* pool,
         std::size_t top_k);

  bool Link(std::size_t pool_index, Answer* out) const;

 private:
  using LinkFn =
      std::function<metablink::util::Result<
          std::vector<metablink::core::LinkPrediction>>(
          const metablink::data::LinkingExample&)>;

  LinkFn link_;
  const std::vector<metablink::data::LinkingExample>* pool_;
};

/// `n` pool indices drawn from the load subsystem's request stream.
std::vector<std::size_t> DrawRequests(metablink::load::MixKind mix,
                                      std::size_t pool_size, std::size_t n,
                                      std::uint64_t seed);

/// Open loop: request i is due at the i-th Poisson arrival of rate `qps`
/// (seeded) and is issued by one of `clients` threads, whatever the state
/// of earlier requests. With tracing on, each request records a
/// "load.request" span from its scheduled arrival to its completion.
PhaseResult RunOpenLoop(const Client& client,
                        const std::vector<std::size_t>& sequence, double qps,
                        std::uint64_t seed, std::size_t clients);

/// Closed loop: `clients` threads each issue their next request as soon as
/// the previous one returns, walking `sequence` in order (cyclically), until
/// `seconds` have passed (every started request completes). Answers are
/// kept in completion order per client, merged. Records the process's CPU
/// time over the phase.
PhaseResult RunClosedLoop(const Client& client,
                          const std::vector<std::size_t>& sequence,
                          std::size_t clients, double seconds);

/// Server-side counters accumulated between two Stats() snapshots.
struct StatsDelta {
  double requests = 0.0;
  double batches = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double encode_ms = 0.0;
  double retrieve_ms = 0.0;
  double rerank_ms = 0.0;
  double exited = 0.0;
  double distilled = 0.0;
  double full = 0.0;
};
StatsDelta Delta(const metablink::serve::ServerStats& before,
                 const metablink::serve::ServerStats& after);

/// The admission identity at quiescence: every accepted request was
/// served or shed, none is queued or in flight, nothing was rejected.
bool LedgerBalances(const metablink::serve::ServerStats& stats);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
