//===- interp/Context.h - Shared evaluation context -----------*- C++ -*-===//
///
/// \file
/// The spine shared by the reader, expander, compiler, evaluator, and the
/// PGMP API: heap, symbols, source objects, globals, the profiler state,
/// and the binding table. One Context corresponds to one embedded Scheme
/// "session"; the public entry point is core/Engine.h.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_INTERP_CONTEXT_H
#define PGMP_INTERP_CONTEXT_H

#include "expander/Binding.h"
#include "interp/TierPolicy.h"
#include "profile/ProfileDatabase.h"
#include "profile/ShardedCounterStore.h"
#include "profile/SourceObject.h"
#include "support/Diagnostics.h"
#include "support/ExecGuard.h"
#include "support/SourceManager.h"
#include "support/Stats.h"
#include "support/Trace.h"
#include "syntax/Heap.h"
#include "syntax/SymbolTable.h"
#include "syntax/Syntax.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pgmp {

class CodeUnit;
class LambdaExpr;
class TierBackend;
class VmFunction;

/// How annotate-expr instruments (paper Sections 4.1 vs 4.2):
/// Inline — attach the profile point directly to the expression (Chez
/// style, counter bump only). Wrap — wrap the expression in a generated
/// nullary procedure call carrying the point (Racket errortrace style;
/// same counters, different run-time constants).
enum class AnnotateMode : uint8_t { Inline, Wrap };

/// Shared mutable state of one embedded Scheme session.
class Context {
public:
  Context();
  ~Context();
  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  Heap TheHeap;
  SymbolTable Symbols;
  SourceObjectTable Sources;
  SourceManager SrcMgr;
  DiagnosticSink Diags;

  //===--------------------------------------------------------------------===//
  // Profiler state
  //===--------------------------------------------------------------------===//

  /// Live counters of the current instrumented run. Sharded per thread:
  /// instrumented code compiled and run on any thread bumps its own page,
  /// and fold/store aggregate at quiescent points (see
  /// ShardedCounterStore for the threading contract).
  ShardedCounterStore Counters;
  /// (current-profile-information): weights merged over data sets.
  ProfileDatabase ProfileDb;
  /// When true, the compiler instruments every source expression.
  bool InstrumentCompiles = false;
  AnnotateMode AnnotMode = AnnotateMode::Inline;
  /// Profile integrity policy: by default corrupt/stale/malformed profile
  /// files degrade gracefully — load-profile warns through Diags and the
  /// session continues unoptimized (profile-data-available? stays #f).
  /// When strict (pgmpi --strict-profile), they are hard errors instead.
  bool StrictProfile = false;

  //===--------------------------------------------------------------------===//
  // Execution governance
  //===--------------------------------------------------------------------===//

  /// Per-run resource guards (fuel, depth, deadline; see
  /// support/ExecGuard.h). Inactive by default; Engine configures the
  /// limits from EngineOptions and re-arms at every run boundary. The
  /// interpreter's and VM's application paths charge it behind a single
  /// Guard.Active branch; the heap byte cap lives on TheHeap.
  ExecGuard Guard;

  //===--------------------------------------------------------------------===//
  // Region reclamation (syntax/Heap.h, DESIGN.md §6)
  //===--------------------------------------------------------------------===//

  /// Whether Engine run boundaries reclaim nursery memory. Set from
  /// EngineOptions::Reclaim after the prelude loads (the prelude itself
  /// is retained through globals, so collecting under it would only cost
  /// an evacuation pass).
  ReclaimMode Reclaim = ReclaimMode::Off;

  /// The value the last run produced, kept as a root so callers can
  /// still read an EvalResult after the boundary collection that follows
  /// it. Engine sets it right before reclaimAtBoundary() and reads back
  /// the forwarded Value.
  Value LastResult;

  /// Runs a region reclamation if Reclaim is Boundary: collects the heap
  /// with traceGcRoots as the root set, under Phase::Reclaim timing and
  /// the Reclaims/ReclaimAborts counters. Must only be called at a
  /// quiescent point (no Scheme Value/Obj* on the C++ stack outside the
  /// traced roots). Returns true when a collection ran.
  bool reclaimAtBoundary(bool ForceMajor = false);

  /// Enumerates every root the session retains across runs: global
  /// cells, LastResult, macro transformers (Meanings), Values embedded
  /// in adopted CodeUnits, and the tier backend's bytecode constant
  /// pools.
  void traceGcRoots(GcVisitor &V);

  //===--------------------------------------------------------------------===//
  // Tiered execution (interp -> VM promotion of hot closures)
  //===--------------------------------------------------------------------===//

  /// Tier policy for closure applies (interp/TierPolicy.h). The dispatch
  /// itself lives in the interpreter's apply path (interp/Eval.cpp);
  /// compilation and execution go through Backend below so interp/ stays
  /// free of vm/ headers, mirroring VmApplyHook.
  TierPolicy Tier;
  /// Nonzero while a macro transformer is running (expander phase 1).
  /// Phase-1 code never tiers: it is expansion-time-only, typically
  /// contains syntax-case/template nodes the VM rejects, and tiering it
  /// would buy nothing the three-pass protocol could keep stable.
  uint32_t PhaseOneDepth = 0;

  /// The tier-up backend (interp/TierBackend.h): compiles hot lambdas,
  /// runs their bytecode, and owns every module it compiled.
  /// Registered by vm/Vm.cpp (installVm) at engine construction; null
  /// when tiering is off, so a null check is the only coupling the
  /// interpreter has to the VM's existence.
  std::shared_ptr<TierBackend> Backend;

  //===--------------------------------------------------------------------===//
  // Pipeline observability
  //===--------------------------------------------------------------------===//

  /// Per-phase timers and profiler self-metrics (support/Stats.h). Off by
  /// default; Engine::setStatsEnabled / (set-pgmp-stats! #t) turn it on.
  StatsRegistry Stats;
  /// Chrome trace_event sink (support/Trace.h). Off by default;
  /// Engine::setTracePath / pgmpi --trace turn it on.
  TraceSink Trace;

  //===--------------------------------------------------------------------===//
  // Globals
  //===--------------------------------------------------------------------===//

  /// Returns the (stable) cell for global \p Sym, creating an unbound
  /// cell on first use. unordered_map guarantees reference stability.
  Value *globalCell(Symbol *Sym);

  /// Defines (or redefines) a global.
  void defineGlobal(Symbol *Sym, Value V) { *globalCell(Sym) = V; }
  void defineGlobal(const std::string &Name, Value V) {
    defineGlobal(Symbols.intern(Name), V);
  }

  /// Registers a primitive procedure under \p Name.
  void definePrimitive(const std::string &Name, int MinArgs, int MaxArgs,
                       PrimFn Fn);

  //===--------------------------------------------------------------------===//
  // Expansion state
  //===--------------------------------------------------------------------===//

  /// Every scope set this session's syntax and bindings use (interned).
  ScopeSetTable ScopeSets;
  BindingTable Bindings;
  std::unordered_map<BindingLabel, ExpBinding> Meanings;
  ScopeId NextScope = 1;

  ScopeId freshScope() { return NextScope++; }

  /// Binds \p Id (symbol+scopes) to a fresh label with \p Meaning;
  /// returns the label.
  BindingLabel bind(Symbol *Sym, ScopeSet Scopes, ExpBinding Meaning);

  /// Meaning of \p Label, or null if unknown.
  const ExpBinding *meaningOf(BindingLabel Label) const;

  //===--------------------------------------------------------------------===//
  // Code ownership and application
  //===--------------------------------------------------------------------===//

  /// Keeps compiled code alive for the session (closures point into it).
  void adoptCode(std::unique_ptr<CodeUnit> Unit);

  /// Number of code units retained for the session. Under boundary
  /// reclamation this must stay flat across request-shaped runs (the
  /// engine drops self-contained units), which is what makes a serve
  /// loop's host-side footprint bounded, not just its arena.
  size_t numCodeUnits() const { return Code.size(); }

  /// Calls a Scheme procedure from C++ (defined in Eval.cpp).
  Value apply(Value Fn, Value *Args, size_t NumArgs);
  Value apply(Value Fn, const std::vector<Value> &Args);

  /// Installed by the vm/ layer so the interpreter (and primitives like
  /// map) can apply VM closures without depending on vm/ headers.
  using ApplyHook = Value (*)(Context &, Value Fn, Value *Args, size_t N);
  ApplyHook VmApplyHook = nullptr;

  //===--------------------------------------------------------------------===//
  // Output
  //===--------------------------------------------------------------------===//

  /// display/write land here; tests read it back.
  std::string Output;
  bool EchoStdout = false;

  void writeOutput(const std::string &S);

  /// Deterministic RNG state for the Scheme-level rng primitives.
  uint64_t RngState = 0x2545F4914F6CDD1Dull;

private:
  std::unordered_map<Symbol *, Value> Globals;
  std::vector<std::unique_ptr<CodeUnit>> Code;
};

} // namespace pgmp

#endif // PGMP_INTERP_CONTEXT_H
