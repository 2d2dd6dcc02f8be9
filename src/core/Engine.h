//===- core/Engine.h - Public embedding API -------------------*- C++ -*-===//
///
/// \file
/// The public entry point: an Engine is one embedded Scheme session with
/// the PGMP machinery installed — reader, hygienic expander, compiler,
/// evaluator, counter-based profiler, and the Figure 4 API. A typical
/// profile-guided build is:
///
///   EngineOptions Prof;
///   Prof.Instrument = true;
///   Engine E1(Prof);                // pass 1: profile
///   E1.evalFile("app.scm");         // runs instrumented
///   E1.storeProfile("app.profile");
///
///   Engine E2;                      // pass 2: optimize
///   E2.loadProfile("app.profile");  // meta-programs now see weights
///   E2.evalFile("app.scm");         // expands optimized
///
/// Profile data is read through one surface: `snapshot()` returns an
/// immutable ProfileSnapshot whose weight/weightOpt/count methods carry
/// the semantics the three historical read paths (profileQuery,
/// profileQueryOpt, weightOf) used to split between them.
///
/// One Engine is one thread's session: evaluate on the thread that owns
/// it. To profile a workload across N threads, use EnginePool, which runs
/// one Engine per worker and merges their counters deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_CORE_ENGINE_H
#define PGMP_CORE_ENGINE_H

#include "core/EngineOptions.h"
#include "core/ProfileOpResult.h"
#include "expander/Expander.h"
#include "interp/Context.h"
#include "profile/ProfileSnapshot.h"

#include <memory>
#include <string>

namespace pgmp {

/// Result of evaluating source text.
struct EvalResult {
  bool Ok = false;
  Value V;            ///< value of the last form (when Ok)
  std::string Error;  ///< rendered error (when !Ok)
  /// Which resource guard aborted the run (GuardKind::None for ordinary
  /// errors and successes). Lets callers distinguish "program is wrong"
  /// from "program exceeded its budget" without parsing Error.
  GuardKind Tripped = GuardKind::None;

  explicit operator bool() const { return Ok; }
};

class Engine {
public:
  Engine();
  /// Constructs with \p Opts applied after the prelude loads (so the
  /// prelude itself is never instrumented or counted, matching the old
  /// construct-then-set protocol).
  explicit Engine(const EngineOptions &Opts);
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  Context &context() { return Ctx; }
  Expander &expander() { return Exp; }

  //===--------------------------------------------------------------------===//
  // Evaluation
  //===--------------------------------------------------------------------===//

  /// Reads, expands, compiles, and evaluates every form in \p Source.
  /// \p Name is the buffer's file name (profile points key off it, so use
  /// stable names).
  EvalResult evalString(const std::string &Source,
                        const std::string &Name = "<eval>");

  /// Like evalString, from a file on disk.
  EvalResult evalFile(const std::string &Path);

  /// Loads scheme/<name>.scm from the library directory baked in at build
  /// time (the case-study meta-programs live there).
  EvalResult loadLibrary(const std::string &Name);

  /// Calls a global procedure by name.
  EvalResult callGlobal(const std::string &Name,
                        const std::vector<Value> &Args);

  /// Expands (but does not run) every form; returns the printed core
  /// forms, one per line — used to inspect what a meta-program generated.
  EvalResult expandToString(const std::string &Source,
                            const std::string &Name = "<expand>");

  //===--------------------------------------------------------------------===//
  // Profiling workflow (paper Sections 3-4)
  //===--------------------------------------------------------------------===//

  /// Instrument code compiled from now on (source-expression counters).
  /// The one intentionally-runtime toggle: a session can run its own
  /// profile/optimize cycle. Everything else is EngineOptions.
  void setInstrumentation(bool On) { Ctx.InstrumentCompiles = On; }
  bool instrumentation() const { return Ctx.InstrumentCompiles; }

  bool strictProfile() const { return Ctx.StrictProfile; }

  /// Folds live counters into the profile database as one data set and
  /// resets them (also performed by storeProfile).
  void foldCountersIntoProfile();

  /// Stores / loads a profile; see ProfileOpResult.h for the structured
  /// result (operator bool keeps `if (!E.loadProfile(p))` working, and is
  /// true for degraded loads, matching the old degradation policy).
  ProfileOpResult storeProfile(const std::string &Path);
  ProfileOpResult loadProfile(const std::string &Path);

  void clearProfile();

  //===--------------------------------------------------------------------===//
  // Profile queries — the one read path
  //===--------------------------------------------------------------------===//

  /// An immutable view of the current profile data; see ProfileSnapshot.
  /// Cheap (O(1) between profile mutations) and safe to query from any
  /// thread or to keep across further loads.
  ProfileSnapshot snapshot() const { return Ctx.ProfileDb.snapshot(); }

  /// The interned profile point covering [Begin, End) of buffer \p File —
  /// the key for snapshot().weight()/weightOpt()/count().
  const SourceObject *profilePoint(const std::string &File, uint32_t Begin,
                                   uint32_t End);

  //===--------------------------------------------------------------------===//
  // Observability (phase timers, self-metrics, trace export)
  //===--------------------------------------------------------------------===//

  bool statsEnabled() const { return Ctx.Stats.enabled(); }

  /// The accumulated stats; see StatsRegistry::snapshot()/render().
  const StatsRegistry &stats() const { return Ctx.Stats; }
  void resetStats() { Ctx.Stats.reset(); }

  /// Writes the collected trace to the EngineOptions::TracePath target
  /// (or \p Path) and marks it flushed so the destructor does not rewrite
  /// it. Final heap allocation gauges ("ph":"C" counter samples:
  /// bytes allocated/reserved, chunks, objects) are recorded just before
  /// the write so every exported trace carries the memory picture.
  ProfileOpResult writeTrace();
  ProfileOpResult writeTrace(const std::string &Path);

  //===--------------------------------------------------------------------===//
  // Output capture
  //===--------------------------------------------------------------------===//

  /// Returns and clears everything display/write produced.
  std::string takeOutput();

private:
  void configureTracePath(const std::string &Path);
  /// Samples the heap allocation counters into the trace (no-op when
  /// tracing is off).
  void recordHeapTraceCounters();

  Context Ctx;
  Expander Exp;
  std::string TracePath;
};

} // namespace pgmp

#endif // PGMP_CORE_ENGINE_H
