//===- interp/TierBackend.h - Tier-up execution backend -------*- C++ -*-===//
///
/// \file
/// The interface between the interpreter and whatever executes tiered
/// code. The interpreter decides *when* a closure tiers (TierPolicy, the
/// apply path in Eval.cpp); a TierBackend decides *what that means*:
/// compiling the body and running it.
///
/// This replaces the former trio of raw hooks on Context
/// (TierCompileHook / TierRunHook function pointers plus the type-erased
/// TierModules blob): one object now carries the behavior *and* owns the
/// compiled modules, registered at engine construction by vm/Vm.cpp
/// (installVm). interp/ still never includes a vm/ header — VmFunction
/// stays an opaque forward declaration here, exactly as it was for the
/// hooks.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_INTERP_TIERBACKEND_H
#define PGMP_INTERP_TIERBACKEND_H

#include "syntax/Value.h"

#include <cstddef>
#include <cstdint>

namespace pgmp {

class Context;
class EnvObj;
class GcVisitor;
class LambdaExpr;
class VmFunction;

/// Abstract tier-up backend. The VM registers one on
/// Context::Backend at engine construction; a null Backend means tiering
/// is structurally impossible (TierMode::Off engines never install one).
/// The backend outlives every piece of code it compiled — Context holds
/// it by shared_ptr and closures keep running its modules' code for the
/// whole session.
class TierBackend {
public:
  virtual ~TierBackend() = default;

  /// Compiles \p L's body to a bytecode function, caching it on the
  /// lambda (L->Tiered) — or marks it TierBlocked and returns null when
  /// the body cannot run on the VM (phase-1-only nodes).
  virtual const VmFunction *compile(Context &Ctx, const LambdaExpr *L) = 0;

  /// Runs a tier-compiled function over a closure's captured frame.
  virtual Value run(Context &Ctx, const VmFunction *Fn, EnvObj *Captured,
                    Value *Args, size_t NumArgs) = 0;

  /// Visits every heap Value the backend's compiled modules retain
  /// (bytecode constant pools), so a region reclamation can forward them.
  /// Default: the backend retains nothing.
  virtual void traceGcRoots(GcVisitor &V) { (void)V; }
};

} // namespace pgmp

#endif // PGMP_INTERP_TIERBACKEND_H
