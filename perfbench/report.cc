#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

void Progress(const char* what) {
  static const Clock::time_point start = Clock::now();
  std::printf("[%8.3fs] %s\n", SecondsSince(start), what);
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void RunReport::CheckFailed(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void RunReport::Expect(bool ok, const std::string& what) {
  if (!ok) CheckFailed(what);
}

void RunReport::Ops(const std::string& phase, std::uint64_t attempted,
                    std::uint64_t failed) {
  auto& entry = phases_[phase];
  entry.first += attempted;
  entry.second += failed;
}

std::uint64_t RunReport::attempted() const {
  std::uint64_t total = 0;
  for (const auto& [phase, counts] : phases_) total += counts.first;
  return total;
}

std::uint64_t RunReport::failed() const {
  std::uint64_t total = 0;
  for (const auto& [phase, counts] : phases_) total += counts.second;
  return total;
}

void RunReport::EndToEnd(const std::string& name, double value,
                         const std::string& unit) {
  end_to_end_[name] = Metric{value, unit};
}

void RunReport::PerLayer(const std::string& name, double value,
                         const std::string& unit) {
  per_layer_[name] = Metric{value, unit};
}

void RunReport::PrintDetails() const {
  for (const auto& [phase, counts] : phases_) {
    std::printf("phase %-18s attempted %8llu  failed %llu\n", phase.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  for (const auto& [name, m] : end_to_end_) {
    std::printf("end_to_end %-34s %14.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, m] : per_layer_) {
    std::printf("per_layer  %-34s %14.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string RunReport::ResultLine(bool traced) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted() << ", \"failed\": " << failed()
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : traced ? per_layer_ : end_to_end_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
