//===- support/ExecGuard.h - Resource-governed execution ------*- C++ -*-===//
///
/// \file
/// Per-run execution guards: a fuel (step) budget, a recursion-depth
/// limit, and a wall-clock deadline, plus the GuardTrip error that every
/// resource limit in the system (including the Heap's byte cap) raises
/// when it is exceeded. The ROADMAP's long-lived serving process cannot
/// afford a misbehaving request — runaway recursion, an infinite loop,
/// unbounded allocation — taking the whole Engine down; guards convert
/// those into structured, catchable errors that leave the Engine fully
/// reusable.
///
/// ## Semantics
///
/// - **Fuel**: one unit per procedure application and per VM back edge
///   (taken jump/branch). Both tiers charge at the same program events —
///   a loop iteration costs one unit whether it runs interpreted (a tail
///   application) or tiered (a taken branch) — so a budget that lets a
///   workload finish in one tier lets it finish in the other.
/// - **Depth**: non-tail application nesting (interpreter evalExpr
///   recursion and VM runVmFunction recursion grow the C++ stack
///   together; tail calls are iterative in both tiers and are not
///   counted). The reader and expander enforce their own fixed nesting
///   caps with the same GuardTrip error (see Reader.h / Expander.cpp).
/// - **Deadline**: absolute wall-clock budget per run, polled every 1024
///   fuel charges so the hot path never reads the clock per event.
/// - **Heap**: enforced by Heap::allocateSlow against the arena's
///   reserved bytes — the bump fast path is untouched (see Heap.h).
///
/// A "run" is one Engine entry point (evalString / evalFile / callGlobal
/// / expandToString): live state resets at entry, so a trip never poisons
/// the next request. Guard *checks* never touch profile counters, so
/// instrumented profiles of completing workloads stay byte-identical with
/// guards on or off, across tiers, and under EnginePool.
///
/// Every check hides behind one `Active` flag read: with no limits
/// configured (the default) the interpreter and VM pay one predictable
/// branch per application, which is the ≤2% disabled-overhead contract.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_SUPPORT_EXECGUARD_H
#define PGMP_SUPPORT_EXECGUARD_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string>

namespace pgmp {

/// Which resource limit a GuardTrip reports.
enum class GuardKind : uint8_t {
  None,     ///< no trip (EvalResult default)
  Fuel,     ///< step budget exhausted
  Depth,    ///< recursion/nesting limit exceeded
  Heap,     ///< arena byte cap reached (or injected allocation failure)
  Deadline, ///< wall-clock budget exceeded
};

/// Stable lower-case name ("fuel", "depth", "heap", "deadline", "none").
const char *guardKindName(GuardKind K);

/// The structured error a tripped guard raises. Derives from SchemeError
/// so every existing Engine-boundary catch converts it into a failed
/// EvalResult instead of crashing; boundaries that want the which-limit
/// diagnostics catch GuardTrip first (EvalResult::Tripped carries it).
class GuardTrip : public SchemeError {
public:
  GuardTrip(GuardKind K, std::string Message, std::string Where = "")
      : SchemeError(std::move(Message), std::move(Where)), K(K) {}

  GuardKind kind() const { return K; }

private:
  GuardKind K;
};

/// Raises a GuardTrip; the message is prefixed "guard trip [kind]: ..."
/// so rendered errors identify which limit fired.
[[noreturn]] void raiseGuardTrip(GuardKind K, std::string Message,
                                 std::string Where = "");

/// Per-Context guard state. Limits are configured once (EngineOptions at
/// Engine construction); live usage resets at every run boundary via
/// beginRun(). Hot paths call the charge/enter helpers only when Active.
class ExecGuard {
public:
  //===--------------------------------------------------------------------===//
  // Configured limits (0 = unlimited)
  //===--------------------------------------------------------------------===//

  uint64_t FuelLimit = 0;     ///< applications + VM back edges per run
  uint32_t DepthLimit = 0;    ///< non-tail application nesting
  uint64_t DeadlineNanos = 0; ///< wall-clock budget per run

  /// True when any of the limits above is configured; the single flag the
  /// interpreter and VM branch on. (The heap byte cap lives on the Heap
  /// and does not set this — its check rides the allocateSlow cold path.)
  bool Active = false;

  //===--------------------------------------------------------------------===//
  // Live per-run state
  //===--------------------------------------------------------------------===//

  uint64_t FuelUsed = 0;
  uint32_t Depth = 0;
  uint64_t DeadlineAt = 0; ///< absolute steady-clock ns; 0 = unarmed

  /// Sets the limits and recomputes Active. Called at Engine construction
  /// (after the prelude loads, so the prelude itself is never governed).
  void configure(uint64_t Fuel, uint32_t MaxDepth, uint64_t DeadlineMs);

  /// Resets live usage and arms the deadline. Called at every Engine run
  /// boundary — which is also what makes an Engine reusable after a trip:
  /// the unwound run's spent fuel and depth never leak into the next one.
  void beginRun();

  /// Charges one fuel unit; trips on exhaustion. Polls the deadline every
  /// 1024 charges. Call only when Active.
  void chargeFuel() {
    if (FuelLimit && ++FuelUsed > FuelLimit)
      tripFuel();
    if (DeadlineAt && (++DeadlineTick & 1023u) == 0)
      pollDeadline();
  }

  /// Non-tail application entry: one fuel unit plus one depth level.
  void enterCall() {
    chargeFuel();
    if (++Depth > DepthLimit && DepthLimit)
      tripDepth();
  }

  /// Non-tail application exit (not run on unwind: a trip aborts the whole
  /// run and beginRun() re-zeroes the counter).
  void leaveCall() { --Depth; }

private:
  [[noreturn]] void tripFuel();
  [[noreturn]] void tripDepth();
  void pollDeadline(); ///< trips (noreturn) only when the deadline passed

  uint32_t DeadlineTick = 0;
};

} // namespace pgmp

#endif // PGMP_SUPPORT_EXECGUARD_H
