//===- pgmpbench/src/main.cpp - End-to-end benchmark driver ----------------===//
///
/// \file
/// Runs one workload in this process and prints one JSON line:
///
///   pgmpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///             [--ops N] [--setup-reps K] [--tmp DIR] [--trace-dir DIR]
///             [--self-test]
///
/// --trace 0 (default) sets the workload up --setup-reps times, then runs
/// operations in a closed loop for --seconds (or --ops per client) and
/// reports the end-to-end metrics. --trace 1 turns the engine's phase
/// timers on, runs a fixed number of operations (the workload's own count
/// or --ops), and reports the per-layer metrics; with --trace-dir it also
/// writes DIR/<workload>.trace.json (Chrome trace_event) and
/// DIR/<workload>.layers.json. Inputs and profiles live in a private
/// directory made under --tmp (default: the current directory) and
/// removed at exit. --self-test corrupts one expected result and the
/// stored profile; the run must then report failures.
///
/// Exit codes: 0 every result correct, 1 some operation failed, 64 usage.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

using namespace pgmpbench;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  uint64_t Ops = 0;
  unsigned SetupReps = 15;
  std::string TmpParent = ".";
  std::string TraceDir;
  bool SelfTest = false;
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "pgmpbench: %s\n"
               "usage: pgmpbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                 [--ops N] [--setup-reps K] [--tmp DIR] "
               "[--trace-dir DIR] [--self-test]\n"
               "workloads:",
               Why);
  for (const std::string &N : workloadNames())
    std::fprintf(stderr, " %s", N.c_str());
  std::fprintf(stderr, "\n");
  return 64;
}

bool parseArgs(int Argc, char **Argv, Options &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--self-test") {
      O.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc) {
      Err = A + " needs a value";
      return false;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    auto Unsigned = [&](uint64_t &Out) {
      Out = std::strtoull(V.c_str(), &End, 10);
      return !V.empty() && *End == '\0';
    };
    bool Ok = true;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      Ok = Unsigned(O.Seed);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      Ok = *End == '\0' && O.Seconds > 0;
    } else if (A == "--trace") {
      Ok = V == "0" || V == "1";
      O.Trace = V == "1";
    } else if (A == "--ops") {
      Ok = Unsigned(O.Ops);
    } else if (A == "--setup-reps") {
      uint64_t K = 0;
      Ok = Unsigned(K) && K >= 1 && K <= 100;
      O.SetupReps = static_cast<unsigned>(K);
    } else if (A == "--tmp") {
      O.TmpParent = V;
    } else if (A == "--trace-dir") {
      O.TraceDir = V;
    } else {
      Err = "unknown option " + A;
      return false;
    }
    if (!Ok) {
      Err = "bad value for " + A + ": " + V;
      return false;
    }
  }
  if (O.Workload.empty()) {
    Err = "--workload is required";
    return false;
  }
  return true;
}

/// Nearest-rank quantile of sorted \p V.
double quantile(const std::vector<uint64_t> &V, double Q) {
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return static_cast<double>(V[std::clamp<size_t>(Rank, 1, V.size()) - 1]);
}

double medianOf(std::vector<uint64_t> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? static_cast<double>(V[N / 2])
               : (static_cast<double>(V[N / 2 - 1]) +
                  static_cast<double>(V[N / 2])) / 2;
}

uint64_t cpuNs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ns = [](const timeval &T) {
    return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(T.tv_usec) * 1000ull;
  };
  return Ns(U.ru_utime) + Ns(U.ru_stime);
}

/// VmHWM (peak resident set) of this process, in KiB.
uint64_t peakRssKiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  return 0;
}

/// Removes the private input directory on every exit path.
class TempDir {
public:
  explicit TempDir(const std::string &Parent) {
    std::string Pattern = Parent + "/pgmpbench-XXXXXX";
    std::vector<char> Buf(Pattern.begin(), Pattern.end());
    Buf.push_back('\0');
    if (!::mkdtemp(Buf.data()))
      throw std::runtime_error("cannot create a directory under " + Parent);
    Path = Buf.data();
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    if (M.Integral)
      std::printf("%s\"%s\": {\"value\": %llu, \"unit\": \"%s\"}",
                  I ? ", " : "", M.Name.c_str(),
                  static_cast<unsigned long long>(M.Value), M.Unit.c_str());
    else
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", M.Name.c_str(), M.Value, M.Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int runBenchmark(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    return usage(("unknown workload " + O.Workload).c_str());
  TempDir Dir(O.TmpParent);
  W->generate(O.Seed, Dir.path());

  ClientLog SetupLog;
  RunTotals T;
  std::vector<uint64_t> SetupNs;
  unsigned Reps = O.Trace ? 1 : O.SetupReps;
  for (unsigned I = 0; I < Reps; ++I) {
    T = RunTotals{};
    uint64_t T0 = nowNs();
    W->setup(O.Trace, O.SelfTest, SetupLog, T);
    SetupNs.push_back(nowNs() - T0);
  }

  // Warm-up: a tenth of the run, untimed, so closures tier up and an idle
  // CPU speeds up before timing starts.
  if (!O.Trace) {
    std::vector<ClientLog> Warm(W->clients());
    RunTotals Unused;
    RunPlan WarmPlan;
    WarmPlan.DeadlineNs = nowNs() + static_cast<uint64_t>(O.Seconds * 1e8);
    W->run(WarmPlan, Warm, Unused);
    for (const ClientLog &L : Warm) {
      SetupLog.Attempted += L.Attempted;
      SetupLog.Failed += L.Failed;
      if (SetupLog.FirstError.empty())
        SetupLog.FirstError = L.FirstError;
    }
  }

  std::vector<ClientLog> Logs(W->clients());
  for (unsigned I = 0; I < Logs.size(); ++I) {
    Logs[I].Client = I;
    Logs[I].SpanCap = O.Trace ? 200000 / Logs.size() : 0;
    Logs[I].LatencyNs.reserve(1 << 16);
  }
  RunPlan Plan;
  Plan.Trace = O.Trace;
  Plan.OpsPerClient = O.Trace && !O.Ops ? W->traceOps() : O.Ops;
  uint64_t Cpu0 = cpuNs();
  uint64_t T0 = nowNs();
  if (!O.Trace)
    Plan.DeadlineNs = T0 + static_cast<uint64_t>(O.Seconds * 1e9);
  W->run(Plan, Logs, T);
  uint64_t WallNs = nowNs() - T0;
  uint64_t CpuUsed = cpuNs() - Cpu0;

  std::vector<uint64_t> Lat;
  uint64_t Attempted = SetupLog.Attempted, Failed = SetupLog.Failed;
  uint64_t Broken = 0;
  std::string FirstError = SetupLog.FirstError;
  for (const ClientLog &L : Logs) {
    Lat.insert(Lat.end(), L.LatencyNs.begin(), L.LatencyNs.end());
    Attempted += L.Attempted;
    Failed += L.Failed;
    Broken += L.BrokenSums;
    if (FirstError.empty())
      FirstError = L.FirstError;
  }
  if (Lat.empty()) {
    std::fprintf(stderr, "pgmpbench: %s ran no operation\n",
                 O.Workload.c_str());
    return 1;
  }
  std::sort(Lat.begin(), Lat.end());
  double P50 = quantile(Lat, 0.50) / 1e3, P99 = quantile(Lat, 0.99) / 1e3;
  auto AboveP99 = Lat.end() - std::upper_bound(Lat.begin(), Lat.end(),
                                               static_cast<uint64_t>(
                                                   quantile(Lat, 0.99)));
  bool Correct = Failed == 0;

  std::fprintf(stderr,
               "pgmpbench: %s seed %llu: %llu ops on %u client(s), %llu "
               "failed; p50 %.1f us, p99 %.1f us (%lld ops above p99)\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               static_cast<unsigned long long>(Lat.size()), W->clients(),
               static_cast<unsigned long long>(Failed), P50, P99,
               static_cast<long long>(AboveP99));
  if (!FirstError.empty())
    std::fprintf(stderr, "pgmpbench: first failure: %s\n", FirstError.c_str());

  std::vector<Metric> Metrics;
  if (O.Trace) {
    Metrics = layerMetrics(Logs, T);
    if (Broken)
      std::fprintf(stderr,
                   "pgmpbench: %llu op(s) whose phase times exceed the span\n",
                   static_cast<unsigned long long>(Broken));
    if (!O.TraceDir.empty()) {
      std::string Base = O.TraceDir + "/" + O.Workload;
      if (!writeChromeTrace(Base + ".trace.json", W->kindNames(), Logs) ||
          !writeLayersJson(Base + ".layers.json", O.Workload, O.Seed, P50,
                           Metrics, Logs, T)) {
        std::fprintf(stderr, "pgmpbench: cannot write %s.*.json\n",
                     Base.c_str());
        return 1;
      }
    }
  } else {
    double Ops = static_cast<double>(Lat.size());
    Metrics = {
        {"p50_us", "us", P50},
        {"p99_us", "us", P99},
        {"ops_per_s", "1/s", Ops / (static_cast<double>(WallNs) / 1e9)},
        {"cpu_us_per_op", "us", static_cast<double>(CpuUsed) / 1e3 / Ops},
        {"setup_s", "s", medianOf(SetupNs) / 1e9},
        {"peak_rss_mib", "MiB", static_cast<double>(peakRssKiB()) / 1024},
    };
  }
  printResult(Correct, Attempted, Failed, Metrics);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err))
    return usage(Err.c_str());
  try {
    return runBenchmark(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "pgmpbench: %s\n", E.what());
    return 1;
  }
}
