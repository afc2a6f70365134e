#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <string>

namespace perfbench {

/// The machine and build a run's numbers belong to.
struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string flags;
  std::string score_kernel;  // "avx2" or "scalar"
  std::string git_sha;
  std::string source_digest;
};

Fingerprint TakeFingerprint(const std::string& source_digest);

void PrintFingerprint(const Fingerprint& fp);

/// Empty when this build may print numbers; otherwise why not (a
/// sanitizer build, or one without optimization).
std::string BuildProblem(const Fingerprint& fp);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
