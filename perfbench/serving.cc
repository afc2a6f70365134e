#include "serving.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "load/open_loop.h"
#include "trace.h"

namespace perfbench {

namespace mb = metablink;

Client::Client(mb::serve::LinkingServer* server,
               const std::vector<mb::data::LinkingExample>* pool,
               std::size_t top_k)
    : link_([server, top_k](const mb::data::LinkingExample& ex) {
        return server->Link(ex.mention, ex.left_context, ex.right_context,
                            top_k);
      }),
      pool_(pool) {}

Client::Client(const mb::core::FewShotLinker* linker,
               const std::vector<mb::data::LinkingExample>* pool,
               std::size_t top_k)
    : link_([linker, top_k](const mb::data::LinkingExample& ex) {
        return linker->Link(ex.mention, ex.left_context, ex.right_context,
                            top_k);
      }),
      pool_(pool) {}

bool Client::Link(std::size_t pool_index, Answer* out) const {
  auto got = link_((*pool_)[pool_index]);
  out->clear();
  if (!got.ok()) return false;
  out->reserve(got->size());
  for (const auto& p : *got) out->push_back({p.entity_id, p.score});
  return true;
}

std::vector<std::size_t> DrawRequests(mb::load::MixKind mix,
                                      std::size_t pool_size, std::size_t n,
                                      std::uint64_t seed) {
  mb::load::WorkloadConfig config;
  config.kind = mix;
  config.pool_size = pool_size;
  config.seed = seed;
  auto stream = mb::load::RequestStream::Make(config);
  std::vector<std::size_t> out;
  if (!stream.ok()) return out;
  stream->Fill(n, &out);
  return out;
}

PhaseResult RunOpenLoop(const Client& client,
                        const std::vector<std::size_t>& sequence, double qps,
                        std::uint64_t seed, std::size_t clients) {
  mb::load::OpenLoopOptions options;
  options.target_qps = qps;
  options.total_requests = sequence.size();
  options.poisson = true;
  options.seed = seed;
  const std::vector<std::uint64_t> offsets =
      mb::load::OpenLoopDriver::ArrivalOffsetsNs(options);

  PhaseResult result;
  result.attempted = sequence.size();
  result.sequence = sequence;
  result.answers.resize(sequence.size());
  std::vector<double> latency(sequence.size(), -1.0);
  std::atomic<std::size_t> next{0};
  std::mutex lag_mu;
  Tracer& tracer = Tracer::Get();
  // A short lead so no arrival is already late while threads start.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, clients); ++t) {
    workers.emplace_back([&] {
      double worst_lag = 0.0;
      for (std::size_t i = next.fetch_add(1); i < sequence.size();
           i = next.fetch_add(1)) {
        const Clock::time_point due = t0 + std::chrono::nanoseconds(offsets[i]);
        std::this_thread::sleep_until(due);
        const Clock::time_point issued = Clock::now();
        worst_lag = std::max(worst_lag, MsBetween(due, issued));
        const bool ok = client.Link(sequence[i], &result.answers[i]);
        const Clock::time_point done = Clock::now();
        if (ok) latency[i] = MsBetween(due, done);
        if (tracer.enabled()) {
          const std::uint64_t span = tracer.Record("load.request", 0, 0, i + 1,
                                                   due, done);
          tracer.Record("serve.link", 0, span, i + 1, issued, done);
        }
      }
      std::lock_guard<std::mutex> lock(lag_mu);
      result.max_start_lag_ms = std::max(result.max_start_lag_ms, worst_lag);
    });
  }
  for (auto& w : workers) w.join();
  result.wall_s = std::max(0.0, SecondsSince(t0));
  for (double l : latency) {
    if (l < 0.0) {
      ++result.failed;
    } else {
      result.latency_ms.push_back(l);
    }
  }
  return result;
}

PhaseResult RunClosedLoop(const Client& client,
                          const std::vector<std::size_t>& sequence,
                          std::size_t clients, double seconds) {
  PhaseResult result;
  if (sequence.empty()) return result;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex merge_mu;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, clients); ++t) {
    workers.emplace_back([&] {
      std::vector<double> local_latency;
      std::vector<std::size_t> local_sequence;
      std::vector<Answer> local_answers;
      std::size_t local_failed = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t p = sequence[next.fetch_add(1) % sequence.size()];
        Answer answer;
        const Clock::time_point issued = Clock::now();
        const bool ok = client.Link(p, &answer);
        const Clock::time_point done = Clock::now();
        if (ok) {
          local_latency.push_back(MsBetween(issued, done));
        } else {
          ++local_failed;
        }
        local_sequence.push_back(p);
        local_answers.push_back(std::move(answer));
        if (SecondsSince(t0) >= seconds) stop.store(true);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      result.attempted += local_sequence.size();
      result.failed += local_failed;
      result.latency_ms.insert(result.latency_ms.end(), local_latency.begin(),
                               local_latency.end());
      result.sequence.insert(result.sequence.end(), local_sequence.begin(),
                             local_sequence.end());
      for (Answer& a : local_answers) result.answers.push_back(std::move(a));
    });
  }
  for (auto& w : workers) w.join();
  result.wall_s = SecondsSince(t0);
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  return result;
}

void Append(PhaseResult from, PhaseResult* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->wall_s += from.wall_s;
  into->cpu_s += from.cpu_s;
  into->max_start_lag_ms = std::max(into->max_start_lag_ms,
                                    from.max_start_lag_ms);
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->sequence.insert(into->sequence.end(), from.sequence.begin(),
                        from.sequence.end());
  for (Answer& a : from.answers) into->answers.push_back(std::move(a));
}

StatsDelta Delta(const mb::serve::ServerStats& before,
                 const mb::serve::ServerStats& after) {
  auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  StatsDelta out;
  out.requests = d(before.requests, after.requests);
  out.batches = d(before.batches, after.batches);
  out.cache_hits = d(before.cache_hits, after.cache_hits);
  out.cache_misses = d(before.cache_misses, after.cache_misses);
  out.encode_ms = after.encode_ms - before.encode_ms;
  out.retrieve_ms = after.retrieve_ms - before.retrieve_ms;
  out.rerank_ms = after.rerank_ms - before.rerank_ms;
  out.exited = d(before.rerank_exited, after.rerank_exited);
  out.distilled = d(before.rerank_distilled, after.rerank_distilled);
  out.full = d(before.rerank_full, after.rerank_full);
  return out;
}

bool LedgerBalances(const mb::serve::ServerStats& s) {
  return s.rejected == 0 && s.queue_depth == 0 && s.in_flight == 0 &&
         s.accepted == s.requests + s.shed;
}

}  // namespace perfbench
