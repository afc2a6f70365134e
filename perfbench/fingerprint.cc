#include "fingerprint.h"

#include <cstdio>
#include <fstream>
#include <thread>

#include "retrieval/score_kernel.h"

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

Fingerprint TakeFingerprint(const std::string& source_digest) {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  fp.cpu_model = CpuModel();
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.flags = PERFBENCH_FLAGS;
  fp.score_kernel =
      metablink::retrieval::internal::ScoreTileUsesSimd() ? "avx2" : "scalar";
  fp.git_sha = PERFBENCH_GIT_SHA;
  fp.source_digest = source_digest.empty() ? "none" : source_digest;
  return fp;
}

void PrintFingerprint(const Fingerprint& fp) {
  std::printf("fingerprint nproc=%u cpu=\"%s\" build=%s flags=\"%s\" "
              "score_kernel=%s git_sha=%s source_digest=%s\n",
              fp.nproc, fp.cpu_model.c_str(), fp.build_type.c_str(),
              fp.flags.c_str(), fp.score_kernel.c_str(), fp.git_sha.c_str(),
              fp.source_digest.c_str());
}

std::string BuildProblem(const Fingerprint& fp) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (fp.flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer build";
  }
#if !defined(__OPTIMIZE__)
  return "unoptimised build (no -O flag)";
#endif
  return "";
}

}  // namespace perfbench
