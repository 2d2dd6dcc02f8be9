//===- bench/BenchCommon.h - Shared benchmark scaffolding -----*- C++ -*-===//

#ifndef PGMP_BENCH_BENCHCOMMON_H
#define PGMP_BENCH_BENCHCOMMON_H

#include "core/Engine.h"
#include "support/Rng.h"
#include "syntax/Writer.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <unistd.h>

namespace pgmp {
namespace bench {

/// Aborts the benchmark binary on setup errors (benchmarks must not
/// silently measure broken configurations).
inline void require(bool Ok, const std::string &What) {
  if (!Ok) {
    std::fprintf(stderr, "bench setup failed: %s\n", What.c_str());
    std::abort();
  }
}

inline void require(const ProfileOpResult &R, const std::string &What) {
  require(R.ok(), What + (R.Error.empty() ? "" : ": " + R.Error));
}

inline void requireEval(Engine &E, const std::string &Src,
                        const std::string &Name = "<bench>") {
  EvalResult R = E.evalString(Src, Name);
  if (!R.Ok) {
    std::fprintf(stderr, "bench setup failed: %s\n  in: %s\n",
                 R.Error.c_str(), Src.c_str());
    std::abort();
  }
}

inline void requireLib(Engine &E, const std::string &Name) {
  EvalResult R = E.loadLibrary(Name);
  require(R.Ok, "loading library " + Name + ": " + R.Error);
}

/// Scratch profile path unique per benchmark process, so concurrent runs
/// of one binary never overwrite each other's training profile.
inline std::string profilePath(const char *Tag) {
  return std::string("/tmp/pgmp_bench_") + Tag + "_" +
         std::to_string(::getpid()) + ".profile";
}

/// Spins the CPU briefly before main() so the first registered benchmark
/// does not pay the frequency-ramp cost that later ones skip (this
/// materially skewed cross-configuration comparisons).
inline int warmUpCpu() {
  volatile uint64_t Sink = 0;
  for (uint64_t I = 0; I < 80000000ull; ++I)
    Sink = Sink + I * 2654435761ull;
  return static_cast<int>(Sink & 1);
}
namespace {
const int CpuWarmedUp = warmUpCpu();
} // namespace

} // namespace bench
} // namespace pgmp

#endif // PGMP_BENCH_BENCHCOMMON_H
