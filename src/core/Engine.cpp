//===- core/Engine.cpp ----------------------------------------------------===//

#include "core/Engine.h"

#include "core/PgmpApi.h"
#include "interp/Compiler.h"
#include "interp/Eval.h"
#include "interp/Prims.h"
#include "reader/Reader.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "syntax/Writer.h"
#include "vm/Vm.h"

using namespace pgmp;

#ifndef PGMP_SCHEME_DIR
#define PGMP_SCHEME_DIR "scheme"
#endif

Engine::Engine() : Engine(EngineOptions{}) {}

Engine::Engine(const EngineOptions &Opts) : Ctx(), Exp(Ctx) {
  installAllPrims(Ctx);
  installPgmpApi(Ctx);
  EvalResult R = loadLibrary("prelude");
  if (!R.Ok)
    Ctx.Diags.report(DiagKind::Warning, "",
                     "prelude not loaded: " + R.Error);
  // Applied after the prelude so the options govern user code only — the
  // prelude is never instrumented, counted, or traced, matching the old
  // construct-then-set protocol byte for byte.
  Ctx.InstrumentCompiles = Opts.Instrument;
  Ctx.AnnotMode = Opts.Annotate;
  Ctx.StrictProfile = Opts.StrictProfile;
  Ctx.Stats.enable(Opts.StatsEnabled);
  Ctx.EchoStdout = Opts.EchoStdout;
  Ctx.Diags.EchoToStderr = Opts.EchoDiagnostics;
  Ctx.Tier = Opts.Tier;
  // Guards also apply only after the prelude: a tight fuel budget should
  // constrain the user's program, not the library bootstrap.
  Ctx.Guard.configure(Opts.Fuel, Opts.MaxDepth, Opts.DeadlineMs);
  Ctx.TheHeap.setLimitBytes(Opts.MaxHeapBytes);
  // Reclamation also arms after the prelude: the bootstrap allocates into
  // a virgin nursery and is fully retained through globals anyway.
  Ctx.Reclaim = Opts.Reclaim;
  if (Opts.Tier.Mode != TierMode::Off)
    installVm(Ctx);
  if (!Opts.TracePath.empty())
    configureTracePath(Opts.TracePath);
}

Engine::~Engine() {
  // Best-effort flush of an unwritten trace; explicit writeTrace() is the
  // error-reporting path.
  if (!TracePath.empty()) {
    recordHeapTraceCounters();
    std::string Err;
    (void)Ctx.Trace.write(TracePath, Err);
  }
}

void Engine::recordHeapTraceCounters() {
  if (!Ctx.Trace.enabled())
    return;
  uint64_t Now = statsNowNanos();
  const Heap::AllocStats &A = Ctx.TheHeap.allocStats();
  // Cumulative and live figures are separate counters: allocated only
  // grows, while reserved/live shrink when a collection frees nursery
  // chunks (the peak keeps the high-water mark).
  Ctx.Trace.counter("heap-bytes-allocated", "heap", Now, A.BytesAllocated);
  Ctx.Trace.counter("heap-bytes-reserved", "heap", Now, A.BytesReserved);
  Ctx.Trace.counter("heap-bytes-reserved-peak", "heap", Now,
                    A.PeakBytesReserved);
  Ctx.Trace.counter("heap-bytes-live", "heap", Now, Ctx.TheHeap.bytesLive());
  Ctx.Trace.counter("heap-bytes-reclaimed", "heap", Now, A.BytesReclaimed);
  Ctx.Trace.counter("heap-chunks", "heap", Now, A.ChunksAcquired);
  Ctx.Trace.counter("heap-objects", "heap", Now, Ctx.TheHeap.numObjects());
}

/// Reads the next form under the Read phase timer; the read/expand/
/// compile/eval split is what makes "where does expansion time go?"
/// answerable per top-level form without touching any hot loop.
static std::optional<Value> readOneTimed(Context &Ctx, Reader &Rd) {
  ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Read);
  if (faultinject::shouldFail(faultinject::Point::Read))
    raiseError("injected fault at phase boundary: read");
  return Rd.readOne();
}

EvalResult Engine::evalString(const std::string &Source,
                              const std::string &Name) {
  EvalResult R;
  // Fresh budgets per API call: an earlier trip (or a long-running prior
  // request) never poisons this one, so a guarded Engine is reusable as a
  // request-per-call sandbox.
  Ctx.Guard.beginRun();
  try {
    Ctx.SrcMgr.addBuffer(Name, Source);
    Reader Rd(Ctx.TheHeap, Ctx.Symbols, Ctx.Sources, Source, Name);
    Value Last = Value::undefined();
    while (auto Form = readOneTimed(Ctx, Rd)) {
      std::vector<Value> Cores;
      {
        ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Expand);
        if (faultinject::shouldFail(faultinject::Point::Expand))
          raiseError("injected fault at phase boundary: expand");
        Cores = Exp.expandTopLevel(*Form);
      }
      for (Value Core : Cores) {
        std::unique_ptr<CodeUnit> Unit;
        {
          ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Compile);
          if (faultinject::shouldFail(faultinject::Point::Compile))
            raiseError("injected fault at phase boundary: compile");
          Unit = compileCore(Ctx, Core);
        }
        // Units that compiled lambdas (or syntax-rules patterns and
        // templates) are adopted for the session, and adopted *before*
        // evaluation so a closure published to a global stays valid even
        // if a later subexpression of the same form throws. A
        // self-contained unit, by contrast, cannot be referenced once its
        // run finishes; under boundary reclamation it is dropped at the
        // end of this iteration, which keeps a long-lived serve session's
        // code table bounded instead of growing with every request. (Its
        // constants are arena values: any that escape into globals or the
        // result survive via the root walk, independent of the unit.)
        Expr *Root = Unit->Root;
        if (Ctx.Reclaim != ReclaimMode::Boundary || !Unit->selfContained())
          Ctx.adoptCode(std::move(Unit));
        {
          ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Eval);
          Last = evalExpr(Ctx, Root, nullptr);
        }
      }
    }
    R.Ok = true;
    // Run-boundary reclamation (no-op under ReclaimMode::Off). The result
    // is parked on the Context as a root and read back forwarded, so the
    // caller's EvalResult stays valid across the collection.
    Ctx.LastResult = Last;
    Ctx.reclaimAtBoundary();
    R.V = Ctx.LastResult;
  } catch (const GuardTrip &T) {
    R.Ok = false;
    R.Error = T.render();
    R.Tripped = T.kind();
    Ctx.Stats.bump(Stat::GuardTrips);
    Ctx.LastResult = Value::undefined();
    Ctx.reclaimAtBoundary();
  } catch (const SchemeError &E) {
    R.Ok = false;
    R.Error = E.render();
    Ctx.LastResult = Value::undefined();
    Ctx.reclaimAtBoundary();
  }
  return R;
}

EvalResult Engine::evalFile(const std::string &Path) {
  FileId Id;
  if (!Ctx.SrcMgr.addFile(Path, Id)) {
    EvalResult R;
    R.Error = "cannot open file: " + Path;
    return R;
  }
  return evalString(std::string(Ctx.SrcMgr.bufferText(Id)), Path);
}

EvalResult Engine::loadLibrary(const std::string &Name) {
  return evalFile(std::string(PGMP_SCHEME_DIR) + "/" + Name + ".scm");
}

EvalResult Engine::callGlobal(const std::string &Name,
                              const std::vector<Value> &Args) {
  EvalResult R;
  Ctx.Guard.beginRun();
  try {
    Value *Cell = Ctx.globalCell(Ctx.Symbols.intern(Name));
    if (Cell->isUnbound())
      raiseError("unbound global " + Name);
    Ctx.LastResult = Ctx.apply(*Cell, Args);
    Ctx.reclaimAtBoundary();
    R.V = Ctx.LastResult;
    R.Ok = true;
  } catch (const GuardTrip &T) {
    R.Error = T.render();
    R.Tripped = T.kind();
    Ctx.Stats.bump(Stat::GuardTrips);
    Ctx.LastResult = Value::undefined();
    Ctx.reclaimAtBoundary();
  } catch (const SchemeError &E) {
    R.Error = E.render();
    Ctx.LastResult = Value::undefined();
    Ctx.reclaimAtBoundary();
  }
  return R;
}

EvalResult Engine::expandToString(const std::string &Source,
                                  const std::string &Name) {
  EvalResult R;
  Ctx.Guard.beginRun();
  try {
    Ctx.SrcMgr.addBuffer(Name, Source);
    Reader Rd(Ctx.TheHeap, Ctx.Symbols, Ctx.Sources, Source, Name);
    std::string Out;
    WriteOptions Opts;
    Opts.SyntaxAsDatum = true;
    while (auto Form = readOneTimed(Ctx, Rd)) {
      std::vector<Value> Cores;
      {
        ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Expand);
        if (faultinject::shouldFail(faultinject::Point::Expand))
          raiseError("injected fault at phase boundary: expand");
        Cores = Exp.expandTopLevel(*Form);
      }
      for (Value Core : Cores) {
        Out += writeValue(Core, Opts);
        Out += "\n";
      }
    }
    R.Ok = true;
    Ctx.LastResult = Ctx.TheHeap.string(std::move(Out));
    Ctx.reclaimAtBoundary();
    R.V = Ctx.LastResult;
  } catch (const GuardTrip &T) {
    R.Error = T.render();
    R.Tripped = T.kind();
    Ctx.Stats.bump(Stat::GuardTrips);
    Ctx.LastResult = Value::undefined();
    Ctx.reclaimAtBoundary();
  } catch (const SchemeError &E) {
    R.Error = E.render();
    Ctx.LastResult = Value::undefined();
    Ctx.reclaimAtBoundary();
  }
  return R;
}

void Engine::foldCountersIntoProfile() {
  ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::CounterFold);
  uint64_t Before = Ctx.ProfileDb.numDatasets();
  Ctx.Stats.bump(Stat::CounterIncrements, Ctx.Counters.totalIncrements());
  Ctx.ProfileDb.addDataset(Ctx.Counters);
  if (Ctx.ProfileDb.numDatasets() > Before)
    Ctx.Stats.bump(Stat::DatasetMerges);
  Ctx.Counters.reset();
}

ProfileOpResult Engine::storeProfile(const std::string &Path) {
  return pgmpapi::storeProfile(Ctx, Path);
}

ProfileOpResult Engine::loadProfile(const std::string &Path) {
  return pgmpapi::loadProfile(Ctx, Path);
}

void Engine::configureTracePath(const std::string &Path) {
  TracePath = Path;
  Ctx.Trace.enable(!Path.empty());
}

ProfileOpResult Engine::writeTrace() {
  if (TracePath.empty())
    return ProfileOpResult::failure(
        "no trace path configured (set EngineOptions::TracePath)");
  ProfileOpResult R = writeTrace(TracePath);
  if (R.ok())
    TracePath.clear(); // flushed: the destructor must not rewrite it
  return R;
}

ProfileOpResult Engine::writeTrace(const std::string &Path) {
  recordHeapTraceCounters();
  std::string Err;
  if (!Ctx.Trace.write(Path, Err))
    return ProfileOpResult::failure("cannot write trace file: " + Path +
                                    " (" + Err + ")");
  return ProfileOpResult{};
}

void Engine::clearProfile() {
  Ctx.ProfileDb.clear();
  Ctx.Counters.reset();
}

const SourceObject *Engine::profilePoint(const std::string &File,
                                         uint32_t Begin, uint32_t End) {
  return Ctx.Sources.intern(File, Begin, End, 1, 1);
}

std::string Engine::takeOutput() {
  std::string Out = std::move(Ctx.Output);
  Ctx.Output.clear();
  return Out;
}
