#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its calls into each layer (never inside the library),
/// kept in memory while the run measures, and written out once at exit.
/// When disabled every call is a no-op, which is how the untraced run
/// measures the end-to-end metrics.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0: root
    std::uint64_t request = 0;  // spans of one request share it; 0: none
    Clock::time_point start;
    Clock::time_point end;
  };

  static Tracer& Get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// A fresh span id (0 when disabled), taken when a span opens so that
  /// children recorded before it closes can name it as their parent.
  std::uint64_t NewId();

  /// Records a finished span under `id` (from NewId; 0 draws a new one).
  /// Returns the id, or 0 when disabled.
  std::uint64_t Record(const char* name, std::uint64_t id,
                       std::uint64_t parent, std::uint64_t request,
                       Clock::time_point start, Clock::time_point end);

  /// Sum of the durations (seconds) of the spans named `name`.
  double TotalSeconds(const std::string& name) const;

  /// Self time of every span named `name`: its duration minus the part of
  /// its interval covered by its child spans (seconds, summed).
  double SelfSeconds(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON ("X" events, parent and
  /// request ids in args) to `path`. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  std::size_t size() const;

 private:
  Tracer() = default;

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t parent = 0)
      : name_(name),
        parent_(parent),
        id_(Tracer::Get().NewId()),
        start_(Clock::now()) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now (idempotent); returns its duration in seconds.
  double Close();
  /// Id of this span (0 when tracing is off); pass it as children's parent.
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
  bool closed_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
