//===- tools/pgmpi/CliOptions.cpp -----------------------------------------===//

#include "CliOptions.h"

#include "core/Engine.h" // AnnotateMode / TierMode definitions
#include "support/FaultInjector.h"
#include "support/Text.h"

#include <cstdio>
#include <cstdlib>

using namespace pgmp;

namespace pgmpcli {

/// Fetches the value of \p Flag (the next argument), exiting with a usage
/// error when it is missing.
static std::string needsValue(const char *Flag, int Argc, char **Argv,
                              int &I) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "pgmpi: %s needs a value\n", Flag);
    std::exit(ExitUsage);
  }
  return Argv[++I];
}

static int64_t positive(const char *Flag, const std::string &Text) {
  int64_t N;
  if (!parseInt64(Text, N) || N < 1) {
    std::fprintf(stderr, "pgmpi: %s needs a positive number\n", Flag);
    std::exit(ExitUsage);
  }
  return N;
}

static double positiveReal(const char *Flag, const std::string &Text) {
  double X;
  if (!parseDouble(Text, X) || X <= 0) {
    std::fprintf(stderr, "pgmpi: %s needs a positive number\n", Flag);
    std::exit(ExitUsage);
  }
  return X;
}

static bool parseOnOff(const char *Flag, const std::string &Text) {
  if (Text == "on")
    return true;
  if (Text == "off")
    return false;
  std::fprintf(stderr, "pgmpi: %s needs on or off (got %s)\n", Flag,
               Text.c_str());
  std::exit(ExitUsage);
}

TierMode parseTierMode(const std::string &Text) {
  if (Text == "off")
    return TierMode::Off;
  if (Text == "auto")
    return TierMode::Auto;
  if (Text == "always")
    return TierMode::Always;
  std::fprintf(stderr, "pgmpi: --tier needs off, auto, or always (got %s)\n",
               Text.c_str());
  std::exit(ExitUsage);
}

void armInjectedFault(const std::string &Spec) {
  std::string Name = Spec;
  uint64_t Skip = 0;
  if (size_t Colon = Spec.find(':'); Colon != std::string::npos) {
    Name = Spec.substr(0, Colon);
    int64_t N;
    if (!parseInt64(Spec.substr(Colon + 1), N) || N < 0) {
      std::fprintf(stderr,
                   "pgmpi: --inject-fault needs POINT[:N] with N >= 0\n");
      std::exit(ExitUsage);
    }
    Skip = static_cast<uint64_t>(N);
  }
  faultinject::Point P = faultinject::parsePoint(Name);
  if (P == faultinject::Point::None) {
    std::fprintf(stderr, "pgmpi: unknown fault point %s\n", Name.c_str());
    std::exit(ExitUsage);
  }
  faultinject::arm(P, Skip);
}

bool parseCommonFlag(int Argc, char **Argv, int &I, CliOptions &O) {
  std::string Arg = Argv[I];
  auto Value = [&](const char *Flag) { return needsValue(Flag, Argc, Argv, I); };

  // Resource guards (support/ExecGuard.h; 0 = unlimited).
  if (Arg == "--fuel")
    O.Engine.Fuel = static_cast<uint64_t>(positive("--fuel", Value("--fuel")));
  else if (Arg == "--max-depth")
    O.Engine.MaxDepth =
        static_cast<uint32_t>(positive("--max-depth", Value("--max-depth")));
  else if (Arg == "--max-heap")
    O.Engine.MaxHeapBytes =
        static_cast<uint64_t>(positive("--max-heap", Value("--max-heap")));
  else if (Arg == "--deadline-ms")
    O.Engine.DeadlineMs = static_cast<uint64_t>(
        positive("--deadline-ms", Value("--deadline-ms")));

  // Tiered execution (TierPolicy; interp/TierPolicy.h).
  else if (Arg == "--tier")
    O.Engine.Tier.Mode = parseTierMode(Value("--tier"));
  else if (Arg == "--tier-threshold")
    O.Engine.Tier.Threshold = static_cast<uint32_t>(
        positive("--tier-threshold", Value("--tier-threshold")));
  else if (Arg == "--tier-hot-weight") {
    double W = positiveReal("--tier-hot-weight", Value("--tier-hot-weight"));
    if (W > 1.0) {
      std::fprintf(stderr,
                   "pgmpi: --tier-hot-weight needs a fraction in (0, 1]\n");
      std::exit(ExitUsage);
    }
    O.Engine.Tier.HotWeight = W;
  }

  // Profile lifecycle.
  else if (Arg == "--profile-out")
    O.ProfileOut = Value("--profile-out");
  else if (Arg == "--profile-in")
    O.ProfileIn = Value("--profile-in");
  else if (Arg == "--strict-profile")
    O.Engine.StrictProfile = true;

  // Memory management (syntax/Heap.h ReclaimMode). "on" is boundary
  // reclamation — nursery regions reclaimed at every run boundary.
  else if (Arg == "--reclaim")
    O.Engine.Reclaim = parseOnOff("--reclaim", Value("--reclaim"))
                           ? ReclaimMode::Boundary
                           : ReclaimMode::Off;

  // Session shape.
  else if (Arg == "--lib")
    O.Libs.push_back(Value("--lib"));
  else if (Arg == "--annotate-wrap")
    O.Engine.Annotate = AnnotateMode::Wrap;
  else if (Arg == "--stats")
    O.Engine.StatsEnabled = true;
  else if (Arg == "--inject-fault")
    O.InjectFault = Value("--inject-fault");

  // Pool subcommands (run, serve).
  else if (O.PoolFlags && Arg == "--jobs")
    O.Jobs = positive("--jobs", Value("--jobs"));
  else if (O.PoolFlags && Arg == "--retries") {
    if (!parseInt64(Value("--retries"), O.Retries) || O.Retries < 0) {
      std::fprintf(stderr, "pgmpi: --retries needs a non-negative number\n");
      std::exit(ExitUsage);
    }
  }

  else
    return false;
  return true;
}

} // namespace pgmpcli
