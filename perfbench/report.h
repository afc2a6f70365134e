#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MsBetween(Clock::time_point a, Clock::time_point b);

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double Median(std::vector<double> v);

/// Nearest-rank quantile: the smallest value with at least ceil(q * n)
/// values at or below it. 0 when empty.
double Quantile(std::vector<double> v, double q);

/// Prints "[  12.345s] what" (seconds since the run started) to stdout, so
/// a run's log shows where its wall time went.
void Progress(const char* what);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// User + system CPU seconds consumed by this process so far.
double ProcessCpuSeconds();

/// What one run reports: correctness, the operation ledger per phase and
/// the named metrics. Workloads fill it; main prints it.
class RunReport {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  /// Records a failed correctness check. The run keeps going so every
  /// broken check is listed, but the final line reads correct=false.
  void CheckFailed(const std::string& what);
  /// Convenience: CheckFailed(what) unless `ok`.
  void Expect(bool ok, const std::string& what);

  /// Adds `attempted` operations to `phase`, `failed` of which failed.
  void Ops(const std::string& phase, std::uint64_t attempted,
           std::uint64_t failed);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void PerLayer(const std::string& name, double value,
                const std::string& unit);
  const std::map<std::string, Metric>& end_to_end() const {
    return end_to_end_;
  }
  const std::map<std::string, Metric>& per_layer() const { return per_layer_; }

  /// Human-readable lines (phase ledger, every metric of both kinds that
  /// was measured) for stdout ahead of the result line.
  void PrintDetails() const;

  /// The one-line JSON result: correctness, the ledger totals and the
  /// end-to-end (trace off) or per-layer (trace on) metrics.
  std::string ResultLine(bool traced) const;

 private:
  bool correct_ = true;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> phases_;
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> per_layer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
