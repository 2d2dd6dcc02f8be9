//===- pgmpbench/src/Bench.h - End-to-end benchmark driver ----*- C++ -*-===//
///
/// \file
/// Shared types of the end-to-end benchmark. A Workload generates its
/// inputs from a seed, sets the engine up, and runs operations in a
/// closed loop. Every operation is timed from outside the engine's public
/// API into a ClientLog; in a traced run it is also split into layers by
/// reading the engine's own phase timers and counters between calls.
///
//===----------------------------------------------------------------------===//

#ifndef PGMPBENCH_BENCH_H
#define PGMPBENCH_BENCH_H

#include "core/Engine.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pgmpbench {

/// The benchmark's clock: steady_clock, the clock the engine's phase
/// timers read, which the layer split of an op relies on.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64. The benchmark keeps its own generator so that its inputs
/// do not change when the library's PRNG does.
class SeededRng {
public:
  explicit SeededRng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, Bound); Bound must be nonzero.
  uint64_t below(uint64_t Bound) { return next() % Bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// One engine's phase timers, counters and heap figures at an instant.
/// Read only between calls, on the thread that owns the engine.
struct Probe {
  std::array<uint64_t, pgmp::NumPhases> PhaseNs{};
  std::array<uint64_t, pgmp::NumPhases> PhaseEntries{};
  std::array<uint64_t, pgmp::NumStats> Counts{};
  pgmp::Heap::AllocStats Heap{};

  static Probe of(pgmp::Engine &E);
  uint64_t phase(pgmp::Phase P) const {
    return PhaseNs[static_cast<size_t>(P)];
  }
  uint64_t count(pgmp::Stat S) const {
    return Counts[static_cast<size_t>(S)];
  }
};

/// The layers an operation's wall time is split into. Their sum is the
/// operation's span exactly: Core is what no phase timer covers.
enum class Layer : uint8_t {
  Reader,       ///< Phase::Read
  Expander,     ///< Phase::Expand (transformer runs included)
  InterpCompile, ///< Phase::Compile
  InterpEval,   ///< Phase::Eval minus the tier-up compiles nested in it
  VmCompile,    ///< Phase::TierCompile + Phase::VmCompile
  Profile,      ///< Phase::ProfileLoad + ProfileStore + CounterFold
  Reclaim,      ///< Phase::Reclaim (the syntax layer's heap)
  Core,         ///< the rest of the span: API glue, engine construction
};
inline constexpr size_t NumLayers = 8;
const char *layerName(Layer L);

/// One traced operation.
struct OpSpan {
  uint64_t Id = 0;
  uint32_t Worker = 0;
  uint8_t Kind = 0;
  uint64_t StartNs = 0, EndNs = 0;
  std::array<uint64_t, NumLayers> LayerNs{};
};

/// Splits a span of \p SpanNs by the engine's phase deltas between
/// \p Before and \p After. Returns false when the phases add up to more
/// than the span (Core is then clamped to 0 and the sum breaks).
bool splitLayers(const Probe &Before, const Probe &After, uint64_t SpanNs,
                 std::array<uint64_t, NumLayers> &Out);

/// Everything one client records.
struct ClientLog {
  uint32_t Client = 0;
  size_t SpanCap = 0;              ///< spans kept; 0 outside traced runs
  std::vector<uint64_t> LatencyNs; ///< every attempted op, tracing or not
  std::vector<OpSpan> Spans;
  std::array<uint64_t, NumLayers> LayerSumNs{};
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t BrokenSums = 0; ///< traced ops whose phases exceeded the span
  std::string FirstError;

  /// Records one op that ran from \p T0 to \p T1. In a traced run the
  /// engine probes taken around it give its layer split.
  void record(uint8_t Kind, uint64_t T0, uint64_t T1,
              const Probe *Before = nullptr, const Probe *After = nullptr);
  void fail(const std::string &Why) {
    ++Failed;
    if (FirstError.empty())
      FirstError = Why;
  }
};

/// How long a run lasts: until a deadline (timed runs) or for a fixed
/// number of operations per client (traced and smoke runs).
struct RunPlan {
  uint64_t DeadlineNs = 0; ///< 0 = none
  uint64_t OpsPerClient = 0; ///< 0 = none
  bool Trace = false;
  bool stop(uint64_t DoneOps, uint64_t Now) const {
    return (OpsPerClient && DoneOps >= OpsPerClient) ||
           (DeadlineNs && Now >= DeadlineNs);
  }
};

/// Counts summed over the run's engines and the times the driver itself
/// measures outside any single operation.
struct RunTotals {
  Probe Engines; ///< summed; Heap.PeakBytesReserved is the max
  uint64_t BusEpochs = 0;
  uint64_t EngineBuilds = 0;
  uint64_t EngineBuildNs = 0;
  uint64_t ProfileLoads = 0, ProfileLoadNs = 0;
  uint64_t ProfileStores = 0, ProfileStoreNs = 0;
  uint64_t PoolWallNs = 0; ///< summed wall time of pool runs x clients
  uint64_t PoolBusyNs = 0; ///< summed busy time of the pool's clients
  uint64_t EvalCalls = 0;  ///< evalString/loadLibrary calls (reader.forms)

  void addEngine(const Probe &P);
};

class Workload {
public:
  virtual ~Workload() = default;
  virtual unsigned clients() const = 0;
  /// Ops per client of a traced run when no op count is given.
  virtual uint64_t traceOps() const = 0;
  virtual const std::vector<std::string> &kindNames() const = 0;

  /// Writes the generated inputs under \p Dir. Untimed; called once.
  virtual void generate(uint64_t Seed, const std::string &Dir) = 0;
  /// Builds engine state up to the first operation; each call replaces
  /// the previous state. Failures are recorded in \p Log. \p SelfTest
  /// breaks the run on purpose: the stored profile gets one bad byte and
  /// the first checked result of every run is expected wrong.
  virtual void setup(bool Stats, bool SelfTest, ClientLog &Log,
                     RunTotals &T) = 0;
  /// Runs operations per \p Plan, one ClientLog per client.
  virtual void run(const RunPlan &Plan, std::vector<ClientLog> &Logs,
                   RunTotals &T) = 0;
};

/// One reported number. Integral counts print without a fraction.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  bool Integral = false;
};

/// The per-layer metrics of a traced run: times are means per op (per
/// engine build for core.setup_engine_us), shares are fractions of the
/// summed op spans, counts are totals over the run's engines.
std::vector<Metric> layerMetrics(const std::vector<ClientLog> &Logs,
                                 const RunTotals &T);

/// Chrome trace_event JSON: one span per op, with its layers laid end to
/// end inside it (their lengths are measured; their order is not).
bool writeChromeTrace(const std::string &Path,
                      const std::vector<std::string> &KindNames,
                      const std::vector<ClientLog> &Logs);

/// The per-layer metrics, the mean layer split of one op, and the mean
/// time of a profile load and store (set-up included).
bool writeLayersJson(const std::string &Path, const std::string &Workload,
                     uint64_t Seed, double TracedP50Us,
                     const std::vector<Metric> &Metrics,
                     const std::vector<ClientLog> &Logs, const RunTotals &T);

/// "serve-casestudy", "serve-skewflip", "build-pgo" or "serve-alloc";
/// null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);
const std::vector<std::string> &workloadNames();

} // namespace pgmpbench

#endif // PGMPBENCH_BENCH_H
