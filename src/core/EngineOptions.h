//===- core/EngineOptions.h - Construction-time engine config -*- C++ -*-===//
///
/// \file
/// One struct holding everything an embedder used to configure through a
/// growing pile of Engine::set* calls (setStrictProfile, setTracePath,
/// setStatsEnabled, setAnnotateMode, ...). Pass it to the Engine
/// constructor — or to EnginePool, which applies the same options to
/// every worker:
///
///   EngineOptions Opts;
///   Opts.Instrument = true;
///   Opts.StatsEnabled = true;
///   Engine E(Opts);
///
/// Options take effect for code evaluated *after* construction; the
/// prelude library loaded by the constructor is never instrumented or
/// counted, exactly as under the old post-construction setter protocol.
/// The deprecated setter shims have been removed; the only runtime toggle
/// is setInstrumentation, which the paper's profile/optimize cycle
/// genuinely flips mid-session.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_CORE_ENGINEOPTIONS_H
#define PGMP_CORE_ENGINEOPTIONS_H

#include "interp/TierPolicy.h"

#include <cstdint>
#include <string>

namespace pgmp {

enum class AnnotateMode : uint8_t; // interp/Context.h
enum class ReclaimMode : uint8_t;  // syntax/Heap.h

/// Retired: ignored, set by pgmpbench; the next benchmark change drops it.
struct ContinuousProfileOptions {
  uint64_t IntervalCharges = 0;
};

/// Construction-time configuration for one Engine (or every worker of an
/// EnginePool). Default-constructed options reproduce a plain `Engine E;`.
struct EngineOptions {
  /// Compile with source-expression counters (pass-1 profiling runs).
  bool Instrument = false;

  /// annotate-expr style: Inline (Chez, counter bump) or Wrap (Racket
  /// errortrace, nullary-call wrapping). Zero-initialized to
  /// AnnotateMode::Inline; the enum is defined in interp/Context.h, which
  /// every Engine user already sees through core/Engine.h.
  AnnotateMode Annotate{};

  /// Profile integrity policy: strict turns corrupt/stale/malformed
  /// profile inputs into errors instead of degrade-with-warning.
  bool StrictProfile = false;

  /// Pipeline stats: per-phase wall-clock timers and profiler
  /// self-metrics. Near-zero cost when off (the default).
  bool StatsEnabled = false;

  /// Non-empty enables trace-event collection; Engine::writeTrace() (and
  /// the destructor, best-effort) write Chrome trace_event JSON here.
  std::string TracePath;

  /// Tiered execution policy (interp/TierPolicy.h): when closures promote
  /// from the tree-walking interpreter to the bytecode VM. Defaults to
  /// TierMode::Off. Tiered code bumps the exact same source-expression
  /// counters as the interpreter, so instrumented profiles are
  /// byte-identical across tier modes.
  TierPolicy Tier;

  //===--------------------------------------------------------------------===//
  // Execution guards (support/ExecGuard.h; 0 = unlimited). Limits govern
  // code evaluated after construction, per run: a trip raises a
  // structured, catchable GuardTrip and the Engine stays reusable.
  //===--------------------------------------------------------------------===//

  /// Per-run step budget: one unit per procedure application and per VM
  /// back edge (pgmpi --fuel).
  uint64_t Fuel = 0;

  /// Non-tail application nesting limit — bounds C++ stack growth from
  /// deep Scheme recursion (pgmpi --max-depth).
  uint32_t MaxDepth = 0;

  /// Cap on the arena heap's reserved bytes, checked on chunk acquisition
  /// so the bump fast path is untouched (pgmpi --max-heap).
  uint64_t MaxHeapBytes = 0;

  /// Per-run wall-clock budget in milliseconds (pgmpi --deadline-ms).
  uint64_t DeadlineMs = 0;

  /// Region reclamation at run boundaries (syntax/Heap.h, DESIGN.md §6).
  /// Zero-initialized to ReclaimMode::Off — the historical contract:
  /// stable object addresses for the whole session, memory freed at
  /// teardown only. ReclaimMode::Boundary collects the nursery after
  /// every evalString/callGlobal, which is what long-lived serving loops
  /// (pgmpi serve) use to stay in bounded memory. Under Boundary, Values
  /// held by the embedder across run boundaries are invalidated by the
  /// collection — retain results through Scheme globals (or re-read
  /// EvalResult::V, which is forwarded) instead.
  ReclaimMode Reclaim{};

  /// Mirror display/write output to stdout (pgmpi-style drivers).
  bool EchoStdout = false;

  /// Mirror diagnostics to stderr as they are reported.
  bool EchoDiagnostics = false;

  /// Retired: ignored, set by pgmpbench; the next benchmark change drops it.
  ContinuousProfileOptions ContinuousProfile;
};

} // namespace pgmp

#endif // PGMP_CORE_ENGINEOPTIONS_H
