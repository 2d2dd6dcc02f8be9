//===- support/Stats.h - Pipeline self-metrics ----------------*- C++ -*-===//
///
/// \file
/// Observability for the pipeline itself: per-phase wall-clock timers
/// (read / expand / compile / eval / counter-fold / profile I/O) and
/// profiler self-metric counters (instrumented-vs-total compiles,
/// annotate-expr calls, dataset merges, counter increments, ...). The
/// paper argues profile data must be a first-class, inspectable input to
/// compilation; the same standard applied to our own pipeline means the
/// cost of profiling — Section 4's instrumentation overhead — is a
/// measured number, not folklore.
///
/// Everything is near-zero cost when disabled: counters are a single
/// predictable branch, and ScopedPhase reads the clock only when stats or
/// tracing is actually on. Nothing here is threaded through the per-node
/// evaluator hot loop — phases wrap top-level pipeline stages only.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_SUPPORT_STATS_H
#define PGMP_SUPPORT_STATS_H

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pgmp {

class TraceSink;

/// Pipeline stages with an accumulated wall-clock timer.
enum class Phase : uint8_t {
  Read,         ///< reader: text -> syntax
  Expand,       ///< hygienic expansion (includes transformer runs)
  Compile,      ///< core syntax -> Expr IR
  VmCompile,    ///< Expr IR -> bytecode
  Eval,         ///< interpreter / VM execution of top-level forms
  CounterFold,  ///< folding live counters into the profile database
  ProfileStore, ///< serializing + atomically writing a profile
  ProfileLoad,  ///< reading + parsing + merging a profile
  TierCompile,  ///< lowering hot lambdas to bytecode (tier-up)
  Reclaim,      ///< region reclamation at run boundaries (Heap::collect)
};
inline constexpr size_t NumPhases = 10;

/// Profiler self-metric counters.
enum class Stat : uint8_t {
  CompiledUnits,      ///< top-level forms compiled to Expr IR
  CompiledNodes,      ///< Expr nodes built
  InstrumentedNodes,  ///< Expr nodes that received a live counter
  MacroExpansions,    ///< transformer invocations during expansion
  AnnotateExprCalls,  ///< annotate-expr (C++ or Scheme level)
  PointsCreated,      ///< make-profile-point calls
  ProfileQueries,     ///< profile-query / profile-query* calls
  DatasetMerges,      ///< data sets folded or loaded into the database
  CounterIncrements,  ///< total counter bumps, accumulated at fold time
  ProfileStores,      ///< store-profile operations attempted
  ProfileLoads,       ///< load-profile operations attempted
  ProfilePointsLoaded, ///< point records merged by load-profile
  CounterShards,      ///< per-thread counter shards created
  ShardMerges,        ///< shard pages aggregated by counter snapshots
  TierUps,            ///< lambdas promoted to a bytecode body
  TierCompileFails,   ///< tier-up compiles rejected (phase-1-only bodies)
  TierPremarkedHot,   ///< lambdas pre-marked hot from a loaded profile
  GuardTrips,         ///< runs aborted by an ExecGuard resource limit
  TaskRetries,        ///< EnginePool tasks re-run on a fresh worker
  BusPublishes,       ///< retired: always 0, read by pgmpbench
  RetierPromotions,   ///< retired: always 0, read by pgmpbench
  RetierDemotions,    ///< retired: always 0, read by pgmpbench
  SuperinstructionsFused, ///< retired: always 0, read by pgmpbench
  TierInlines,        ///< retired: always 0, read by pgmpbench
  TierInlineFallbacks, ///< retired: always 0, read by pgmpbench
  FusionEpochs,       ///< retired: always 0, read by pgmpbench
  TierInvalidations,  ///< retired: always 0, read by pgmpbench
  Reclaims,           ///< boundary region reclamations run (Heap::collect)
  ReclaimAborts       ///< reclamations degraded by an evac alloc failure
};
inline constexpr size_t NumStats = 29;

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t statsNowNanos();

/// Accumulates phase timings and self-metric counters for one Context.
/// Disabled by default; when disabled, bump() and addPhaseTime() are
/// no-ops behind one branch and nothing reads the clock.
class StatsRegistry {
public:
  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  void bump(Stat S, uint64_t N = 1) {
    if (Enabled)
      Counts[static_cast<size_t>(S)] += N;
  }
  uint64_t count(Stat S) const { return Counts[static_cast<size_t>(S)]; }

  void addPhaseTime(Phase P, uint64_t Nanos) {
    if (!Enabled)
      return;
    PhaseAccum &A = Phases[static_cast<size_t>(P)];
    A.Nanos += Nanos;
    ++A.Entries;
  }
  uint64_t phaseNanos(Phase P) const {
    return Phases[static_cast<size_t>(P)].Nanos;
  }
  uint64_t phaseEntries(Phase P) const {
    return Phases[static_cast<size_t>(P)].Entries;
  }

  /// Zeroes all counters and timers; keeps the enabled flag.
  void reset();

  /// Callback appending externally owned (name, value) rows — used by the
  /// Context to expose the heap's always-on allocation counters through
  /// the same snapshot/render surface without the allocator paying a
  /// stats-enabled branch. \p Source is the opaque provider pointer.
  using ExtraStatsFn = void (*)(const void *Source,
                                std::vector<std::pair<std::string, uint64_t>> &);

  /// Registers (or clears, with nullptr) the extra-stats provider. The
  /// provider must outlive the registry's snapshot()/render() calls.
  void setExtraSource(ExtraStatsFn Fn, const void *Source) {
    ExtraFn = Fn;
    ExtraSource = Source;
  }

  /// Deterministically ordered (name, value) pairs: every counter, then
  /// per-phase entry counts and nanoseconds, then any extra-source rows.
  /// Feeds (pgmp-stats) and the --stats report.
  std::vector<std::pair<std::string, uint64_t>> snapshot() const;

  /// Human-readable multi-line summary (counters + phase timings + any
  /// non-zero extra-source rows).
  std::string render() const;

  static const char *phaseName(Phase P);
  static const char *statName(Stat S);

private:
  struct PhaseAccum {
    uint64_t Nanos = 0;
    uint64_t Entries = 0;
  };
  bool Enabled = false;
  std::array<uint64_t, NumStats> Counts{};
  std::array<PhaseAccum, NumPhases> Phases{};
  ExtraStatsFn ExtraFn = nullptr;
  const void *ExtraSource = nullptr;
};

/// RAII phase timer: accumulates into a StatsRegistry and (optionally)
/// emits one Chrome trace_event per scope. Reads the clock only when
/// stats or tracing is enabled, so a disabled pipeline pays one branch
/// per phase boundary, not per expression.
class ScopedPhase {
public:
  ScopedPhase(StatsRegistry &Stats, TraceSink *Trace, Phase P);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;

private:
  StatsRegistry &Stats;
  TraceSink *Trace;
  Phase P;
  uint64_t StartNs = 0;
  bool Active;
};

} // namespace pgmp

#endif // PGMP_SUPPORT_STATS_H
