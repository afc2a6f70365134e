#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::Record(const char* name, std::uint64_t id,
                             std::uint64_t parent, std::uint64_t request,
                             Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back(Span{name, id, parent, request, start, end});
  return id;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += std::chrono::duration<double>(s.end - s.start).count();
    }
  }
  return total;
}

double Tracer::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    double self = std::chrono::duration<double>(s.end - s.start).count();
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals clipped to the parent's.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point covered_to = s.start;
      for (const auto& [b, e] : iv) {
        const Clock::time_point from = std::max(b, covered_to);
        if (e > from) {
          self -= std::chrono::duration<double>(e - from).count();
          covered_to = e;
        }
      }
    }
    total += self;
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - epoch_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
                 "%llu, \"parent\": %llu}}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.request),
                 ts, dur, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double ScopedSpan::Close() {
  if (!closed_) {
    closed_ = true;
    const Clock::time_point end = Clock::now();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    Tracer::Get().Record(name_, id_, parent_, 0, start_, end);
  }
  return seconds_;
}

}  // namespace perfbench
