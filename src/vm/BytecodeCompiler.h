//===- vm/BytecodeCompiler.h - Expr IR -> bytecode ------------*- C++ -*-===//
///
/// \file
/// Compiles the interpreter's Expr IR (i.e. fully expanded core forms,
/// with meta-program optimizations already applied) down to basic-block
/// bytecode. This is the hand-off point of the paper's three-pass
/// protocol: source-level PGMP happens before this compiler runs, so the
/// block structure it produces is stable as long as the source profile is
/// held fixed.
///
/// Phase-1-only nodes (syntax-case, templates) are rejected: they never
/// occur in runtime code.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_VM_BYTECODECOMPILER_H
#define PGMP_VM_BYTECODECOMPILER_H

#include "interp/Expr.h"
#include "vm/Bytecode.h"

namespace pgmp {

struct VmCompileOptions {
  /// Insert a counter bump at every basic block entry.
  bool ProfileBlocks = false;

  /// Emit a ProfileSrc bump of each instrumented node's source counter at
  /// the node's entry — the same `uint64_t *` the interpreter increments,
  /// in the same order, so tiered execution of instrumented code yields
  /// byte-identical profiles to interpreter-only runs. linearize() runs
  /// them as ProfileSrcBatch ops.
  bool ProfileSources = false;
};

/// Compiles one top-level Expr into \p Module; returns the new top-level
/// thunk (0-argument function). Raises SchemeError on unsupported nodes.
VmFunction *compileExprToVm(const Expr *Root, VmModule &Module,
                            const VmCompileOptions &Opts);

/// Compiles one lambda's body into \p Module for tiered execution;
/// returns the function (arity taken from \p L). Raises SchemeError when
/// the body contains phase-1-only nodes, in which case nothing observable
/// happens to \p Module beyond dead functions.
VmFunction *compileLambdaToVm(const LambdaExpr *L, VmModule &Module,
                              const VmCompileOptions &Opts);

} // namespace pgmp

#endif // PGMP_VM_BYTECODECOMPILER_H
