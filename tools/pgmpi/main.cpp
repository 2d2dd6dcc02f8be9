//===- tools/pgmpi/main.cpp - PGMP Scheme driver --------------------------===//
///
/// \file
/// Command-line driver: runs PGMP Scheme files through the full
/// profile-guided workflow.
///
///   pgmpi [options] file.scm...
///     --instrument           compile with source-expression counters
///     --profile-out FILE     store-profile to FILE after running
///     --profile-in FILE      load-profile from FILE before compiling
///     --strict-profile       corrupt/stale profiles are errors, not
///                            degrade-with-warning
///     --annotate-wrap        errortrace-style annotate-expr
///     --dump-expansion       print expanded core forms instead of running
///     --lib NAME             load scheme/NAME.scm first (repeatable)
///     -e EXPR                evaluate EXPR (after files)
///     --repl                 interactive read-eval-print loop (after
///                            files), with profile state live
///     --stats                print pipeline stats (phase timers and
///                            profiler self-metrics) to stderr at exit
///     --trace FILE           write Chrome trace_event JSON of the
///                            pipeline phases to FILE (chrome://tracing)
///
///   pgmpi run --jobs N --profile-out FILE [options] file.scm...
///     parallel profiling driver: N worker engines each evaluate the
///     workload (one data set per worker) and the merged profile is
///     stored to FILE — bit-identical to running the same data sets
///     sequentially. Accepts --profile-in, --lib, --strict-profile,
///     --annotate-wrap, and --stats with their usual meanings.
///
///   pgmpi serve --replay TRACE [--repeat N] [--jobs N] [options] file.scm...
///     long-lived serving mode: the workload files are loaded
///     instrumented on N workers, then TRACE (one Scheme request per
///     line; `;` comments and blank lines skipped) is replayed
///     round-robin across the workers, --repeat times end-to-end (soaks
///     use this to drive millions of requests from a small trace).
///     Closures tier up by invocation count, or at once when the
///     --profile-in profile marks them hot. A summary with request and
///     tier-up counts and per-half replay times goes to stderr;
///     --profile-out stores the merged profile at the end.
///
///   pgmpi report [--top N] [--alloc PROG.scm] FILE...
///     hot-spot report for stored source profiles: the top-N points by
///     weight with counts, locations, and source excerpts. A profile with
///     no samples prints a notice and exits 0. With --alloc PROG.scm, runs PROG under boundary reclamation and prints
///     the allocation-site table: per-site object kinds, counts, bytes,
///     and survival rates, plus heap generation totals.
///
///   pgmpi profile-lint FILE...
///     validates stored profiles (source or block level): format version,
///     checksum footer, record syntax, and source fingerprints against
///     the files on disk. Exit 1 when any finding is reported.
///
///   Resource guards (all subcommands that evaluate code; 0 = unlimited):
///     --fuel N               per-run step budget (applications + VM back
///                            edges)
///     --max-depth N          non-tail application nesting limit
///     --max-heap BYTES       arena heap reservation cap
///     --deadline-ms N        per-run wall-clock budget
///
///   Memory management (all subcommands that evaluate code):
///     --reclaim on|off       generational region reclamation at run
///                            boundaries (default: off; serve defaults
///                            to on so long replays stay bounded)
///
///   Exit codes: 0 success; 1 failure (evaluation error, guard trip,
///   unreadable profile, all workers failed); 2 degraded (a corrupt or
///   stale profile was ignored, or some — not all — parallel tasks
///   failed and the merged profile covers the survivors); 64 usage
///   errors. `--inject-fault POINT[:N]` (hidden; testing) arms the fault
///   injection harness at the named point.
///
//===----------------------------------------------------------------------===//

#include "CliOptions.h"
#include "core/Engine.h"
#include "core/EnginePool.h"
#include "profile/ProfileIO.h"
#include "profile/ProfileReport.h"
#include "support/AtomicFile.h"
#include "support/Checksum.h"
#include "support/Text.h"
#include "syntax/Writer.h"
#include "vm/BlockProfile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace pgmp;
using pgmpcli::CliOptions;
using pgmpcli::ExitUsage;

static int usage() {
  std::fprintf(stderr,
               "usage: pgmpi [--instrument] [--profile-out F] "
               "[--profile-in F] [--strict-profile]\n"
               "             [--annotate-wrap] [--dump-expansion] "
               "[--lib NAME]... [-e EXPR]\n"
               "             [--tier off|auto|always] [--tier-threshold N] "
               "[--tier-hot-weight W]\n"
               "             [--fuel N] [--max-depth N] [--max-heap BYTES] "
               "[--deadline-ms N]\n"
               "             [--reclaim on|off] [--stats] [--trace F] "
               "file.scm...\n"
               "       pgmpi run --jobs N --profile-out F [--profile-in F]\n"
               "             [--strict-profile] [--annotate-wrap] "
               "[--lib NAME]... [--stats]\n"
               "             [--tier off|auto|always] [--tier-threshold N] "
               "[--tier-hot-weight W]\n"
               "             [--fuel N] [--max-depth N] [--max-heap BYTES] "
               "[--deadline-ms N]\n"
               "             [--retries N] file.scm...\n"
               "       pgmpi serve --replay TRACE [--repeat N] [--jobs N] "
               "[--profile-out F] [--profile-in F]\n"
               "             [common flags as for run] file.scm...\n"
               "       pgmpi report [--top N] [--tier] [--tier-weight W] "
               "[--alloc PROG.scm]\n"
               "             FILE...\n"
               "       pgmpi profile-lint FILE...\n"
               "exit codes: 0 success, 1 failure, 2 degraded, 64 usage\n");
  return ExitUsage;
}

/// `pgmpi run`: the parallel profiling driver. N worker engines evaluate
/// the workload concurrently (instrumented — that is the subcommand's
/// purpose), each contributing one data set; the merged profile written
/// to --profile-out is bit-identical to a sequential engine folding the
/// same data sets in worker order.
static int runParallel(int Argc, char **Argv) {
  CliOptions O;
  O.PoolFlags = true;
  std::vector<std::string> Files;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (pgmpcli::parseCommonFlag(Argc, Argv, I, O)) {
      // handled
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "pgmpi: run: unknown option %s\n", Arg.c_str());
      return ExitUsage;
    } else
      Files.push_back(Arg);
  }
  if (Files.empty())
    return usage();
  if (O.ProfileOut.empty()) {
    std::fprintf(stderr, "pgmpi: run needs --profile-out\n");
    return ExitUsage;
  }

  O.Engine.Instrument = true;
  // Worker stdout stays captured per engine: N interleaved echoes would
  // be nondeterministic noise. Diagnostics still reach stderr.
  O.Engine.EchoDiagnostics = true;

  EnginePool::FaultPolicy Policy;
  if (O.Retries >= 0)
    Policy.MaxRetries = static_cast<unsigned>(O.Retries);
  EnginePool Pool(static_cast<size_t>(O.Jobs), O.Engine, Policy);
  bool Degraded = false;
  if (!O.ProfileIn.empty()) {
    // As in the sequential path: register the script buffers first so the
    // profile's source fingerprints are checked against this code.
    for (const std::string &F : Files)
      Pool.preRegisterFile(F);
    ProfileOpResult R = Pool.loadProfileAll(O.ProfileIn);
    if (!R) {
      std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
      return 1;
    }
    Degraded = R.Status == ProfileOpStatus::Degraded;
  }
  // Armed after construction and profile loading: an injected fault is
  // aimed at the workload, not the bootstrap.
  if (!O.InjectFault.empty())
    pgmpcli::armInjectedFault(O.InjectFault);
  EnginePool::PoolResult R = Pool.run([&](Engine &E, size_t) {
    EvalResult Last;
    Last.Ok = true;
    for (const std::string &Lib : O.Libs) {
      Last = E.loadLibrary(Lib);
      if (!Last)
        return Last;
    }
    for (const std::string &F : Files) {
      Last = E.evalFile(F);
      if (!Last)
        return Last;
    }
    return Last;
  });
  // Per-task outcome report: which tasks contributed, which were retried,
  // which were abandoned. One line per noteworthy task.
  for (size_t I = 0; I < R.Outcomes.size(); ++I) {
    const EnginePool::TaskOutcome &Out = R.Outcomes[I];
    if (!Out.Ok)
      std::fprintf(stderr, "pgmpi: task %zu failed after %u attempt(s): %s\n",
                   I, Out.Attempts, Out.Error.c_str());
    else if (Out.Attempts > 1)
      std::fprintf(stderr, "pgmpi: task %zu succeeded after %u attempt(s)\n",
                   I, Out.Attempts);
  }
  if (R.NumFailed == R.Outcomes.size()) {
    std::fprintf(stderr, "pgmpi: all %zu task(s) failed; no profile stored\n",
                 R.NumFailed);
    return 1;
  }
  if (ProfileOpResult S = Pool.storeMergedProfile(O.ProfileOut); !S) {
    std::fprintf(stderr, "pgmpi: %s\n", S.Error.c_str());
    return 1;
  }
  if (O.Engine.StatsEnabled)
    std::fputs(Pool.engine(0).stats().render().c_str(), stderr);
  if (R.NumFailed) {
    std::fprintf(stderr,
                 "pgmpi: merged profile covers %zu of %zu task(s)\n",
                 R.Outcomes.size() - R.NumFailed, R.Outcomes.size());
    return 2; // degraded: stored, but not every task contributed
  }
  return Degraded ? 2 : 0;
}

/// `pgmpi serve`: the long-lived serving mode. Loads the workload
/// instrumented, then replays a request trace round-robin across the
/// pool. The profile moves only through files: --profile-in loads a
/// stored one before the workload compiles, and --profile-out stores the
/// merged counters at the end, ready for the next build.
static int runServe(int Argc, char **Argv) {
  CliOptions O;
  O.PoolFlags = true;
  // Serving defaults: auto-tiering, and boundary reclamation so a
  // long-lived serve loop runs in bounded memory. Both remain
  // overridable (--tier, --reclaim off).
  O.Engine.Tier.Mode = TierMode::Auto;
  O.Engine.Reclaim = ReclaimMode::Boundary;
  std::string Replay;
  unsigned long Repeat = 1;
  std::vector<std::string> Files;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (pgmpcli::parseCommonFlag(Argc, Argv, I, O)) {
      // handled
    } else if (Arg == "--replay") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "pgmpi: --replay needs a value\n");
        return ExitUsage;
      }
      Replay = Argv[++I];
    } else if (Arg == "--repeat") {
      // Replays the trace N times end-to-end. Soaks use this: a
      // million-request run needs only a small resident trace, so peak
      // RSS measures the engine's footprint, not the input file's.
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "pgmpi: --repeat needs a value\n");
        return ExitUsage;
      }
      Repeat = std::strtoul(Argv[++I], nullptr, 10);
      if (Repeat == 0) {
        std::fprintf(stderr, "pgmpi: --repeat needs a positive count\n");
        return ExitUsage;
      }
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "pgmpi: serve: unknown option %s\n", Arg.c_str());
      return ExitUsage;
    } else
      Files.push_back(Arg);
  }
  if (Files.empty())
    return usage();
  if (Replay.empty()) {
    std::fprintf(stderr, "pgmpi: serve needs --replay TRACE\n");
    return ExitUsage;
  }

  // One Scheme request per line; blank lines and `;` comments skipped.
  std::string Bytes, Err;
  if (readFileAll(Replay, Bytes, Err) != FileReadStatus::Ok) {
    std::fprintf(stderr, "pgmpi: %s\n", Err.c_str());
    return 1;
  }
  std::vector<std::string> Requests;
  for (size_t Pos = 0; Pos < Bytes.size();) {
    size_t Eol = Bytes.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Bytes.size();
    std::string Line = Bytes.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] == ';')
      continue;
    Requests.push_back(Line);
  }
  if (Requests.empty()) {
    std::fprintf(stderr, "pgmpi: %s: no requests\n", Replay.c_str());
    return 1;
  }

  O.Engine.Instrument = true;
  O.Engine.EchoDiagnostics = true;
  // The serve summary reads tier stats regardless of --stats, which only
  // controls printing the full table.
  bool ShowStats = O.Engine.StatsEnabled;
  O.Engine.StatsEnabled = true;

  EnginePool::FaultPolicy Policy;
  if (O.Retries >= 0)
    Policy.MaxRetries = static_cast<unsigned>(O.Retries);
  EnginePool Pool(static_cast<size_t>(O.Jobs), O.Engine, Policy);
  bool Degraded = false;
  if (!O.ProfileIn.empty()) {
    for (const std::string &F : Files)
      Pool.preRegisterFile(F);
    ProfileOpResult R = Pool.loadProfileAll(O.ProfileIn);
    if (!R) {
      std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
      return 1;
    }
    Degraded = R.Status == ProfileOpStatus::Degraded;
  }
  if (!O.InjectFault.empty())
    pgmpcli::armInjectedFault(O.InjectFault);

  // Phase 1: load the workload (instrumented) on every worker.
  EnginePool::PoolResult Load = Pool.run([&](Engine &E, size_t) {
    EvalResult Last;
    Last.Ok = true;
    for (const std::string &Lib : O.Libs) {
      Last = E.loadLibrary(Lib);
      if (!Last)
        return Last;
    }
    for (const std::string &F : Files) {
      Last = E.evalFile(F);
      if (!Last)
        return Last;
    }
    return Last;
  });
  if (!Load) {
    std::fprintf(stderr, "pgmpi: %s\n", Load.Error.c_str());
    return 1;
  }
  // Requests are data, not workload: stop minting profile points for the
  // replayed top-level forms so the stored profile stays keyed by the
  // workload's own expressions. Closure counters keep counting.
  for (size_t I = 0; I < Pool.size(); ++I)
    Pool.engine(I).setInstrumentation(false);

  // Phase 2: replay, round-robin (request i goes to worker i mod N),
  // timed in two halves so a warm-up or a hot-set shift mid-trace shows
  // as a difference between them.
  std::vector<size_t> FailedPer(Pool.size(), 0);
  // --repeat multiplies the request stream without growing it in memory:
  // logical request Idx maps onto trace line Idx mod |Requests|.
  size_t Total = Requests.size() * static_cast<size_t>(Repeat);
  auto ReplayRange = [&](size_t Begin, size_t End) {
    Pool.run([&](Engine &E, size_t W) {
      EvalResult Last;
      Last.Ok = true;
      // A failed request is contained to that request — logged and
      // counted, never escalated to pool-level fault isolation.
      for (size_t Idx = Begin + W; Idx < End; Idx += Pool.size()) {
        EvalResult R =
            E.evalString(Requests[Idx % Requests.size()], "<request>");
        if (!R.Ok) {
          ++FailedPer[W];
          std::fprintf(stderr, "pgmpi: request %zu: %s\n", Idx,
                       R.Error.c_str());
        }
      }
      return Last;
    });
  };
  using Clock = std::chrono::steady_clock;
  size_t Half = Total / 2;
  Clock::time_point T0 = Clock::now();
  ReplayRange(0, Half);
  Clock::time_point T1 = Clock::now();
  ReplayRange(Half, Total);
  Clock::time_point T2 = Clock::now();

  size_t Failed = 0;
  uint64_t TierUps = 0;
  for (size_t I = 0; I < Pool.size(); ++I) {
    Failed += FailedPer[I];
    TierUps += Pool.engine(I).stats().count(Stat::TierUps);
  }
  auto Ms = [](Clock::time_point A, Clock::time_point B) {
    return static_cast<unsigned long long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(B - A).count());
  };
  std::fprintf(stderr,
               "pgmpi: serve: %zu request(s), %zu failed, %llu tier-up(s)\n",
               Total, Failed, static_cast<unsigned long long>(TierUps));
  std::fprintf(stderr, "pgmpi: serve: first half %llu ms, second half %llu ms\n",
               Ms(T0, T1), Ms(T1, T2));
  uint64_t Collections = 0, Reclaimed = 0, Live = 0, Aborts = 0;
  for (size_t I = 0; I < Pool.size(); ++I) {
    const Heap &H = Pool.engine(I).context().TheHeap;
    Collections += H.allocStats().Collections;
    Reclaimed += H.allocStats().BytesReclaimed;
    Aborts += H.allocStats().ReclaimAborts;
    Live += H.bytesLive();
  }
  std::fprintf(stderr,
               "pgmpi: serve: heap: %llu collection(s), %llu bytes reclaimed, "
               "%llu bytes live, %llu reclaim abort(s)\n",
               static_cast<unsigned long long>(Collections),
               static_cast<unsigned long long>(Reclaimed),
               static_cast<unsigned long long>(Live),
               static_cast<unsigned long long>(Aborts));

  if (Failed == Total) {
    std::fprintf(stderr, "pgmpi: all %zu request(s) failed\n", Failed);
    return 1;
  }
  if (!O.ProfileOut.empty()) {
    if (ProfileOpResult S = Pool.storeMergedProfile(O.ProfileOut); !S) {
      std::fprintf(stderr, "pgmpi: %s\n", S.Error.c_str());
      return 1;
    }
  }
  if (ShowStats)
    std::fputs(Pool.engine(0).stats().render().c_str(), stderr);
  if (Failed)
    return 2; // degraded: served, but not every request succeeded
  return Degraded ? 2 : 0;
}

/// `pgmpi report --alloc PROG.scm`: the allocation-site table. Runs the
/// program with boundary reclamation on (survival numbers only exist once
/// regions are actually reclaimed), forces a final major collection so
/// the table reflects settled liveness, and prints every site that
/// allocated: object kinds seen, counts, bytes, and survival rate.
static int reportAllocSites(const std::string &Program) {
  EngineOptions EOpts;
  EOpts.Reclaim = ReclaimMode::Boundary;
  Engine E(EOpts);
  EvalResult R = E.evalFile(Program);
  if (!R.Ok) {
    std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
    return 1;
  }
  Context &Ctx = E.context();
  Ctx.LastResult = Value::undefined(); // drop the result: report liveness
  Ctx.reclaimAtBoundary(/*ForceMajor=*/true);
  const Heap &H = Ctx.TheHeap;
  const std::array<AllocSiteStats, NumAllocSites> &Sites = H.siteStats();

  uint64_t TotalObjects = 0, TotalBytes = 0;
  for (const AllocSiteStats &S : Sites) {
    TotalObjects += S.Objects;
    TotalBytes += S.Bytes;
  }
  std::printf("allocation-site table: %llu object(s), %llu byte(s), "
              "%llu collection(s), %llu byte(s) reclaimed\n",
              static_cast<unsigned long long>(TotalObjects),
              static_cast<unsigned long long>(TotalBytes),
              static_cast<unsigned long long>(H.allocStats().Collections),
              static_cast<unsigned long long>(H.allocStats().BytesReclaimed));
  std::printf("heap: %llu byte(s) live (%llu nursery, %llu tenured), "
              "%llu byte(s) evacuated\n",
              static_cast<unsigned long long>(H.bytesLive()),
              static_cast<unsigned long long>(H.nurseryBytes()),
              static_cast<unsigned long long>(H.tenuredBytes()),
              static_cast<unsigned long long>(H.allocStats().BytesEvacuated));

  size_t Order[NumAllocSites];
  for (size_t I = 0; I < NumAllocSites; ++I)
    Order[I] = I;
  std::sort(Order, Order + NumAllocSites, [&](size_t A, size_t B) {
    return Sites[A].Bytes > Sites[B].Bytes;
  });
  std::printf("  %-22s %10s %12s %10s %9s  %s\n", "site", "objects", "bytes",
              "survived", "survival", "kinds");
  for (size_t I = 0; I < NumAllocSites; ++I) {
    const AllocSiteStats &S = Sites[Order[I]];
    if (S.Objects == 0)
      continue;
    double Rate =
        static_cast<double>(S.Survived) / static_cast<double>(S.Objects);
    std::string Kinds;
    for (size_t K = 0; K < NumValueKinds; ++K)
      if (S.Kinds & (1u << K)) {
        if (!Kinds.empty())
          Kinds += ",";
        Kinds += valueKindName(static_cast<ValueKind>(K));
      }
    std::printf("  %-22s %10llu %12llu %10llu %8.1f%%  %s\n",
                allocSiteName(static_cast<AllocSite>(Order[I])),
                static_cast<unsigned long long>(S.Objects),
                static_cast<unsigned long long>(S.Bytes),
                static_cast<unsigned long long>(S.Survived),
                Rate * 100, Kinds.c_str());
  }
  return 0;
}

/// `pgmpi report`: hot-spot tables for stored source profiles.
static int runReport(int Argc, char **Argv) {
  ProfileReportOptions Opts;
  std::string AllocProgram;
  std::vector<std::string> Files;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--top") {
      int64_t N;
      if (I + 1 >= Argc || !parseInt64(Argv[I + 1], N) || N < 0) {
        std::fprintf(stderr, "pgmpi: --top needs a non-negative number\n");
        return ExitUsage;
      }
      Opts.TopN = static_cast<size_t>(N);
      ++I;
    } else if (Arg == "--tier") {
      if (Opts.TierHotWeight <= 0)
        Opts.TierHotWeight = 0.05; // TierPolicy::HotWeight default
    } else if (Arg == "--tier-weight") {
      double W;
      if (I + 1 >= Argc || !parseDouble(Argv[I + 1], W) || W <= 0) {
        std::fprintf(stderr, "pgmpi: --tier-weight needs a positive number\n");
        return ExitUsage;
      }
      Opts.TierHotWeight = W;
      ++I;
    } else if (Arg == "--alloc") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "pgmpi: --alloc needs a program file\n");
        return ExitUsage;
      }
      AllocProgram = Argv[++I];
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "pgmpi: report: unknown option %s\n", Arg.c_str());
      return ExitUsage;
    } else {
      Files.push_back(Arg);
    }
  }
  if (Files.empty() && AllocProgram.empty())
    return usage();
  for (const std::string &F : Files) {
    std::string Out, Err;
    if (!renderProfileReportFile(F, Out, Err, Opts)) {
      std::fprintf(stderr, "pgmpi: %s\n", Err.c_str());
      return 1;
    }
    std::fputs(Out.c_str(), stdout);
  }
  if (!AllocProgram.empty())
    return reportAllocSites(AllocProgram);
  return 0;
}

/// Validates one stored profile file and prints findings; returns the
/// number of problems found.
static int lintOneProfile(const std::string &Path) {
  std::string Bytes, Err;
  if (readFileAll(Path, Bytes, Err) != FileReadStatus::Ok) {
    std::printf("%s: ERROR: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }

  if (Bytes.rfind("pgmp-block-profile\t", 0) == 0) {
    std::vector<std::string> Findings;
    bool Clean = lintBlockProfileText(Bytes, Findings);
    std::printf("%s: block profile, %zu bytes\n", Path.c_str(), Bytes.size());
    for (const std::string &F : Findings)
      std::printf("  FINDING: %s\n", F.c_str());
    if (Clean)
      std::printf("  ok: checksum verified, all records well-formed\n");
    return static_cast<int>(Findings.size());
  }

  SourceObjectTable Sources;
  ProfileDatabase Db;
  ProfileLoadReport Report;
  std::string ParseErr;
  bool Ok = parseProfile(Bytes, Sources, Db, ParseErr, nullptr, &Report);
  std::printf("%s: source profile v%d, %zu bytes\n", Path.c_str(),
              Report.Version, Bytes.size());
  int Problems = 0;
  if (!Ok) {
    std::printf("  ERROR: %s\n", ParseErr.c_str());
    ++Problems;
  } else {
    std::printf("  ok: %llu dataset(s), %zu point(s), checksum %s\n",
                static_cast<unsigned long long>(Report.NumDatasets),
                Report.NumPoints,
                Report.ChecksumChecked ? "verified" : "absent (v1)");
  }
  for (const std::string &W : Report.Warnings)
    std::printf("  WARNING: %s\n", W.c_str());
  Problems += static_cast<int>(Report.Warnings.size());

  // Check recorded source fingerprints against the files on disk, when
  // they exist there (in-memory buffer names are skipped silently).
  for (const auto &[File, Fp] : Report.Fingerprints) {
    std::string Contents, ReadErr;
    if (readFileAll(File, Contents, ReadErr) != FileReadStatus::Ok) {
      std::printf("  fingerprint %s: source not found on disk (unchecked)\n",
                  File.c_str());
      continue;
    }
    if (fnv1a64(Contents) == Fp) {
      std::printf("  fingerprint %s: matches\n", File.c_str());
    } else {
      std::printf("  STALE: %s changed since this profile was stored\n",
                  File.c_str());
      ++Problems;
    }
  }
  return Problems;
}

static int runProfileLint(int Argc, char **Argv) {
  std::vector<std::string> Files;
  for (int I = 2; I < Argc; ++I) {
    if (Argv[I][0] == '-') {
      std::fprintf(stderr, "pgmpi: profile-lint takes only file arguments\n");
      return ExitUsage;
    }
    Files.push_back(Argv[I]);
  }
  if (Files.empty())
    return usage();
  int Problems = 0;
  for (const std::string &F : Files)
    Problems += lintOneProfile(F);
  return Problems ? 1 : 0;
}

/// Reads one balanced form (or a full line) per prompt; exits on EOF or
/// (exit).
static void runRepl(Engine &E) {
  std::printf("pgmp repl — profile-guided meta-programming playground\n");
  std::printf("(exit) or Ctrl-D quits; (help) lists PGMP operations\n");
  std::string Pending;
  while (true) {
    std::fputs(Pending.empty() ? "pgmp> " : "....> ", stdout);
    std::fflush(stdout);
    char Line[4096];
    if (!std::fgets(Line, sizeof(Line), stdin)) {
      std::printf("\n");
      return;
    }
    Pending += Line;
    // Crude balance check so multi-line forms work.
    int Depth = 0;
    bool InString = false;
    for (size_t I = 0; I < Pending.size(); ++I) {
      char C = Pending[I];
      if (InString) {
        if (C == '\\')
          ++I;
        else if (C == '"')
          InString = false;
        continue;
      }
      if (C == '"')
        InString = true;
      else if (C == '(' || C == '[')
        ++Depth;
      else if (C == ')' || C == ']')
        --Depth;
      else if (C == ';')
        while (I < Pending.size() && Pending[I] != '\n')
          ++I;
    }
    if (Depth > 0 || InString)
      continue;

    std::string Input = Pending;
    Pending.clear();
    if (Input.find_first_not_of(" \t\n") == std::string::npos)
      continue;
    if (Input.find("(exit)") != std::string::npos)
      return;
    if (Input.find("(help)") != std::string::npos) {
      std::printf(
          "  (set-instrumentation! #t)   count source expressions\n"
          "  (store-profile \"f\")         fold counters, write file\n"
          "  (load-profile \"f\")          merge a stored data set\n"
          "  (profile-query #'expr)      weight of an expression\n"
          "  (make-profile-point)        fresh deterministic point\n"
          "  (annotate-expr e pp)        re-point an expression\n");
      continue;
    }
    EvalResult R = E.evalString(Input, "<repl>");
    if (!R.Ok) {
      std::printf("%s\n", R.Error.c_str());
      continue;
    }
    if (!R.V.isVoid())
      std::printf("%s\n", writeToString(R.V).c_str());
  }
}

int main(int Argc, char **Argv) {
  if (Argc > 1 && std::strcmp(Argv[1], "profile-lint") == 0)
    return runProfileLint(Argc, Argv);
  if (Argc > 1 && std::strcmp(Argv[1], "report") == 0)
    return runReport(Argc, Argv);
  if (Argc > 1 && std::strcmp(Argv[1], "run") == 0)
    return runParallel(Argc, Argv);
  if (Argc > 1 && std::strcmp(Argv[1], "serve") == 0)
    return runServe(Argc, Argv);

  CliOptions O;
  bool DumpExpansion = false;
  bool Repl = false;
  std::string EvalText, TraceOut;
  std::vector<std::string> Files;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NeedsValue = [&](const char *Flag) -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "pgmpi: %s needs a value\n", Flag);
        std::exit(ExitUsage);
      }
      return Argv[++I];
    };
    if (pgmpcli::parseCommonFlag(Argc, Argv, I, O)) {
      // handled
    } else if (Arg == "--instrument")
      O.Engine.Instrument = true;
    else if (Arg == "--dump-expansion")
      DumpExpansion = true;
    else if (Arg == "--repl")
      Repl = true;
    else if (Arg == "--trace")
      TraceOut = NeedsValue("--trace");
    else if (Arg == "-e")
      EvalText = NeedsValue("-e");
    else if (Arg == "--help" || Arg == "-h")
      return usage();
    else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "pgmpi: unknown option %s\n", Arg.c_str());
      return usage();
    } else
      Files.push_back(Arg);
  }
  if (Files.empty() && EvalText.empty() && !Repl)
    return usage();

  O.Engine.TracePath = TraceOut;
  O.Engine.EchoStdout = true;
  O.Engine.EchoDiagnostics = true;
  Engine E(O.Engine);
  bool Degraded = false;

  if (!O.ProfileIn.empty()) {
    // Register the script buffers before loading so the profile's source
    // fingerprints are checked against the code about to be compiled.
    for (const std::string &F : Files) {
      FileId Id;
      (void)E.context().SrcMgr.addFile(F, Id); // missing files error later
    }
    ProfileOpResult R = E.loadProfile(O.ProfileIn);
    if (!R) {
      std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
      return 1;
    }
    // A corrupt/stale profile ignored under the degradation policy: the
    // run proceeds unoptimized and exits 2 so build scripts can notice.
    Degraded = R.degraded();
  }
  // Armed after construction and profile loading, before the workload.
  if (!O.InjectFault.empty())
    pgmpcli::armInjectedFault(O.InjectFault);
  for (const std::string &Lib : O.Libs) {
    EvalResult R = E.loadLibrary(Lib);
    if (!R) {
      std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
      return 1;
    }
  }

  auto RunOne = [&](const std::string &Path) -> bool {
    if (DumpExpansion) {
      FileId Id;
      if (!E.context().SrcMgr.addFile(Path, Id)) {
        std::fprintf(stderr, "pgmpi: cannot open %s\n", Path.c_str());
        return false;
      }
      EvalResult R = E.expandToString(
          std::string(E.context().SrcMgr.bufferText(Id)), Path);
      if (!R) {
        std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
        return false;
      }
      std::fputs(R.V.asString()->Text.c_str(), stdout);
      return true;
    }
    EvalResult R = E.evalFile(Path);
    if (!R) {
      std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
      return false;
    }
    return true;
  };

  for (const std::string &F : Files)
    if (!RunOne(F))
      return 1;

  if (!EvalText.empty()) {
    EvalResult R = E.evalString(EvalText, "<command-line>");
    if (!R) {
      std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
      return 1;
    }
  }

  if (Repl)
    runRepl(E);

  if (!O.ProfileOut.empty()) {
    if (ProfileOpResult R = E.storeProfile(O.ProfileOut); !R) {
      std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
      return 1;
    }
  }
  if (!TraceOut.empty()) {
    if (ProfileOpResult R = E.writeTrace(); !R) {
      std::fprintf(stderr, "pgmpi: %s\n", R.Error.c_str());
      return 1;
    }
  }
  if (O.Engine.StatsEnabled)
    std::fputs(E.stats().render().c_str(), stderr);
  return Degraded ? 2 : 0;
}
