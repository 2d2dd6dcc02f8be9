//===- interp/Eval.cpp ----------------------------------------------------===//

#include "interp/Eval.h"

#include "interp/TierBackend.h"

#include "expander/Matcher.h"
#include "expander/Template.h"
#include "support/Diagnostics.h"
#include "syntax/Writer.h"

using namespace pgmp;

static std::string describeCallee(const Value &Fn) {
  if (Fn.isPrimitive())
    return Fn.asPrimitive()->Name;
  if (Fn.isClosure() && !Fn.asClosure()->Template->Name.empty())
    return Fn.asClosure()->Template->Name;
  return writeToString(Fn);
}

[[noreturn]] static void arityError(const LambdaExpr *L, size_t NumArgs) {
  raiseError("procedure " +
             (L->Name.empty() ? std::string("#<anonymous>") : L->Name) +
             " expects " + std::to_string(L->Params.size()) +
             (L->HasRest ? "+" : "") + " arguments, got " +
             std::to_string(NumArgs));
}

/// Checks closure arity and builds its frame. Non-rest lambdas (the
/// overwhelmingly common case) take a branch-free copy loop; rest lambdas
/// cons only when surplus arguments actually exist.
static EnvObj *buildFrame(Context &Ctx, Closure *C, Value *Args,
                          size_t NumArgs) {
  const LambdaExpr *L = C->Template;
  size_t Fixed = L->Params.size();
  if (!L->HasRest) {
    if (NumArgs != Fixed)
      arityError(L, NumArgs);
    return Ctx.TheHeap.makeEnvFrom(C->Captured, Fixed, Args, Fixed,
                                   AllocSite::InterpFrame);
  }
  if (NumArgs < Fixed)
    arityError(L, NumArgs);
  EnvObj *Frame = Ctx.TheHeap.makeEnvFrom(C->Captured, Fixed + 1, Args,
                                          Fixed, AllocSite::InterpFrame);
  Value Rest = Value::nil();
  if (NumArgs > Fixed)
    for (size_t I = NumArgs; I > Fixed; --I)
      Rest = Ctx.TheHeap.cons(Args[I - 1], Rest, AllocSite::InterpRestArgs);
  Frame->slots()[Fixed] = Rest;
  return Frame;
}

const VmFunction *pgmp::tieredFunctionFor(Context &Ctx, const LambdaExpr *L) {
  if (L->Tiered)
    return L->Tiered;
  if (Ctx.Tier.Mode == TierMode::Off || L->TierBlocked || !Ctx.Backend ||
      Ctx.PhaseOneDepth != 0)
    return nullptr;
  if (Ctx.Tier.Mode == TierMode::Auto && !L->TierHot &&
      ++L->TierInvokes < Ctx.Tier.Threshold)
    return nullptr;
  return Ctx.Backend->compile(Ctx, L);
}

template <bool GuardOn>
static Value evalExprImpl(Context &Ctx, const Expr *E, EnvObj *Env);

Value pgmp::applyProcedure(Context &Ctx, Value Fn, Value *Args,
                           size_t NumArgs) {
  if (Fn.isPrimitive()) {
    Primitive *P = Fn.asPrimitive();
    if (static_cast<int>(NumArgs) < P->MinArgs ||
        (P->MaxArgs >= 0 && static_cast<int>(NumArgs) > P->MaxArgs))
      raiseError("primitive " + P->Name + " got " + std::to_string(NumArgs) +
                 " arguments");
    return P->Fn(Ctx, Args, NumArgs);
  }
  if (Fn.isClosure()) {
    Closure *C = Fn.asClosure();
    // The tiered route is not charged here: runVmFunction charges on
    // entry, so every application costs exactly one fuel unit no matter
    // which tier executes it (counter-fidelity for guards too).
    if (const VmFunction *VF = tieredFunctionFor(Ctx, C->Template))
      return Ctx.Backend->run(Ctx, VF, C->Captured, Args, NumArgs);
    EnvObj *Frame = buildFrame(Ctx, C, Args, NumArgs);
    ExecGuard &G = Ctx.Guard;
    if (G.Active) {
      G.enterCall();
      Value Result = evalExprImpl<true>(Ctx, C->Template->Body, Frame);
      G.leaveCall();
      return Result;
    }
    return evalExprImpl<false>(Ctx, C->Template->Body, Frame);
  }
  if (Fn.isVmClosure()) {
    if (!Ctx.VmApplyHook)
      raiseError("vm closure applied but no VM is installed");
    return Ctx.VmApplyHook(Ctx, Fn, Args, NumArgs);
  }
  raiseError("attempt to apply non-procedure " + describeCallee(Fn));
}

Value Context::apply(Value Fn, Value *Args, size_t NumArgs) {
  return applyProcedure(*this, Fn, Args, NumArgs);
}

Value Context::apply(Value Fn, const std::vector<Value> &Args) {
  return applyProcedure(*this, Fn,
                        const_cast<Value *>(Args.data()), Args.size());
}

/// The expression walker, specialized on whether guards are armed (same
/// scheme as the VM's runVmLoop): the unguarded instantiation carries no
/// per-application guard checks, so disabled guards cost one dispatch
/// branch per outermost evalExpr call and nothing per iteration.
template <bool GuardOn>
static Value evalExprImpl(Context &Ctx, const Expr *E, EnvObj *Env) {
tail:
  if (E->Counter)
    ++*E->Counter;
  switch (E->K) {
  case ExprKind::Const:
    return static_cast<const ConstExpr *>(E)->V;

  case ExprKind::LocalRef: {
    const auto *R = static_cast<const LocalRefExpr *>(E);
    EnvObj *Frame = Env;
    for (uint32_t D = 0; D < R->Depth; ++D) {
      assert(Frame && "local ref depth exceeds env chain");
      Frame = Frame->Parent;
    }
    assert(Frame && R->Index < Frame->NumSlots && "bad local ref");
    return Frame->slots()[R->Index];
  }

  case ExprKind::GlobalRef: {
    const auto *R = static_cast<const GlobalRefExpr *>(E);
    if (R->Cell->isUnbound())
      raiseError("unbound variable " + R->Name->Name);
    return *R->Cell;
  }

  case ExprKind::If: {
    const auto *I = static_cast<const IfExpr *>(E);
    E = evalExprImpl<GuardOn>(Ctx, I->Test, Env).isTruthy() ? I->Then : I->Else;
    goto tail;
  }

  case ExprKind::Lambda: {
    const auto *L = static_cast<const LambdaExpr *>(E);
    return Value::object(ValueKind::Closure,
                         Ctx.TheHeap.makeAt<Closure>(
                             AllocSite::InterpClosure, L, Env));
  }

  case ExprKind::Begin: {
    const auto *B = static_cast<const BeginExpr *>(E);
    for (size_t I = 0; I + 1 < B->Body.size(); ++I)
      evalExprImpl<GuardOn>(Ctx, B->Body[I], Env);
    E = B->Body.back();
    goto tail;
  }

  case ExprKind::SetLocal: {
    const auto *S = static_cast<const SetLocalExpr *>(E);
    Value V = evalExprImpl<GuardOn>(Ctx, S->Val, Env);
    EnvObj *Frame = Env;
    for (uint32_t D = 0; D < S->Depth; ++D) {
      assert(Frame && "set! depth exceeds env chain");
      Frame = Frame->Parent;
    }
    Ctx.TheHeap.noteWrite(Frame);
    Frame->slots()[S->Index] = V;
    return Value::undefined();
  }

  case ExprKind::SetGlobal: {
    const auto *S = static_cast<const SetGlobalExpr *>(E);
    if (S->Cell->isUnbound())
      raiseError("set! of unbound variable " + S->Name->Name);
    *S->Cell = evalExprImpl<GuardOn>(Ctx, S->Val, Env);
    return Value::undefined();
  }

  case ExprKind::DefineGlobal: {
    const auto *D = static_cast<const DefineGlobalExpr *>(E);
    *D->Cell = evalExprImpl<GuardOn>(Ctx, D->Val, Env);
    return Value::undefined();
  }

  case ExprKind::Call: {
    const auto *C = static_cast<const CallExpr *>(E);
    Value Fn = evalExprImpl<GuardOn>(Ctx, C->Fn, Env);
    // Fast path storage for the common small-arity case; the slow path
    // reserves once and appends, so no Value is default-constructed only
    // to be overwritten.
    Value ArgBuf[8];
    std::vector<Value> ArgVec;
    Value *Args;
    size_t N = C->Args.size();
    if (N <= 8) {
      Args = ArgBuf;
      for (size_t I = 0; I < N; ++I)
        Args[I] = evalExprImpl<GuardOn>(Ctx, C->Args[I], Env);
    } else {
      ArgVec.reserve(N);
      for (size_t I = 0; I < N; ++I)
        ArgVec.push_back(evalExprImpl<GuardOn>(Ctx, C->Args[I], Env));
      Args = ArgVec.data();
    }

    if (Fn.isPrimitive()) {
      Primitive *P = Fn.asPrimitive();
      if (static_cast<int>(N) < P->MinArgs ||
          (P->MaxArgs >= 0 && static_cast<int>(N) > P->MaxArgs))
        raiseError("primitive " + P->Name + " got " + std::to_string(N) +
                   " arguments");
      return P->Fn(Ctx, Args, N);
    }
    if (!Fn.isClosure()) {
      if (Fn.isVmClosure() && Ctx.VmApplyHook)
        return Ctx.VmApplyHook(Ctx, Fn, Args, N);
      raiseError("attempt to apply non-procedure " + describeCallee(Fn));
    }

    Closure *Cl = Fn.asClosure();
    // Tiered dispatch: the VM entry charges fuel/depth itself.
    if (const VmFunction *VF = tieredFunctionFor(Ctx, Cl->Template))
      return Ctx.Backend->run(Ctx, VF, Cl->Captured, Args, N);
    EnvObj *Frame = buildFrame(Ctx, Cl, Args, N);
    if (C->Tail) {
      // Tail applications are iterative (this goto): they consume fuel
      // but not depth, so (loop) with --max-depth never false-trips.
      if constexpr (GuardOn)
        Ctx.Guard.chargeFuel();
      E = Cl->Template->Body;
      Env = Frame;
      goto tail;
    }
    ExecGuard &G = Ctx.Guard;
    if constexpr (GuardOn)
      G.enterCall();
    Value Result = evalExprImpl<GuardOn>(Ctx, Cl->Template->Body, Frame);
    if constexpr (GuardOn)
      G.leaveCall();
    return Result;
  }

  case ExprKind::SyntaxCase: {
    const auto *SC = static_cast<const SyntaxCaseExpr *>(E);
    Value Scrut = evalExprImpl<GuardOn>(Ctx, SC->Scrutinee, Env);
    for (const SyntaxCaseClause &Clause : SC->Clauses) {
      EnvObj *Frame =
          Ctx.TheHeap.makeEnv(Env, Clause.NumVars, AllocSite::SyntaxCaseFrame);
      if (!matchPattern(Ctx, Clause.Pat, Scrut,
                        Clause.NumVars ? Frame->slots() : nullptr))
        continue;
      if (Clause.Fender &&
          !evalExprImpl<GuardOn>(Ctx, Clause.Fender, Frame).isTruthy())
        continue;
      E = Clause.Body;
      Env = Frame;
      goto tail;
    }
    raiseError("no matching syntax-case clause for " +
               writeToString(Scrut));
  }

  case ExprKind::Template:
    return instantiateTemplate(Ctx, static_cast<const TemplateExpr *>(E)->Tpl,
                               Env);
  }
  raiseError("corrupt expression node");
}

Value pgmp::evalExpr(Context &Ctx, const Expr *E, EnvObj *Env) {
  // Guard activation only changes at run boundaries, so one branch here
  // pins the instantiation for the whole (recursive) evaluation.
  if (Ctx.Guard.Active)
    return evalExprImpl<true>(Ctx, E, Env);
  return evalExprImpl<false>(Ctx, E, Env);
}
