//===- vm/Vm.cpp ----------------------------------------------------------===//

#include "vm/Vm.h"

#include "interp/Compiler.h"
#include "interp/Eval.h"
#include "interp/TierBackend.h"
#include "reader/Reader.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"

using namespace pgmp;

// Token-threaded dispatch needs the GNU labels-as-values extension;
// other compilers get the portable switch loop.
#if defined(__GNUC__) || defined(__clang__)
#define PGMP_VM_THREADED 1
#else
#define PGMP_VM_THREADED 0
#endif

// The VM's operand stack lives in uninitialized raw storage.
static_assert(std::is_trivially_copyable_v<Value> &&
                  std::is_trivially_destructible_v<Value>,
              "vm stack buffers assume Value needs no construction");

namespace {

[[noreturn]] void vmArityError(const VmFunction *Fn, size_t NumArgs) {
  raiseError("vm procedure " +
             (Fn->Name.empty() ? std::string("<anonymous>") : Fn->Name) +
             " expects " + std::to_string(Fn->NumParams) +
             (Fn->HasRest ? "+" : "") + " arguments, got " +
             std::to_string(NumArgs));
}

/// Builds the frame for a VM function call, checking arity. Mirrors the
/// interpreter's buildFrame: non-rest functions take a branch-free copy
/// loop; rest functions cons only when surplus arguments exist.
EnvObj *buildVmFrame(Context &Ctx, const VmFunction *Fn, EnvObj *Captured,
                     Value *Args, size_t NumArgs) {
  size_t Fixed = Fn->NumParams;
  if (!Fn->HasRest) {
    if (NumArgs != Fixed)
      vmArityError(Fn, NumArgs);
    return Ctx.TheHeap.makeEnvFrom(Captured, Fn->FrameSlots, Args, Fixed,
                                   AllocSite::VmFrame);
  }
  if (NumArgs < Fixed)
    vmArityError(Fn, NumArgs);
  EnvObj *Frame = Ctx.TheHeap.makeEnvFrom(Captured, Fn->FrameSlots, Args,
                                          Fixed, AllocSite::VmFrame);
  Value Rest = Value::nil();
  if (NumArgs > Fixed)
    for (size_t I = NumArgs; I > Fixed; --I)
      Rest = Ctx.TheHeap.cons(Args[I - 1], Rest, AllocSite::VmRestArgs);
  Frame->slots()[Fixed] = Rest;
  return Frame;
}

/// Fixnum fast paths for the intrinsic-tagged primitives (Heap.h). Wrap
/// semantics and compare-as-double match the registered handlers exactly
/// (primAdd accumulates in int64, compareChain compares doubles), so a
/// hit produces the same Value the handler would; any non-fixnum operand
/// misses and takes the ordinary handler call.
inline bool tryPrimIntrinsic(const Primitive *P, Value *A, size_t N,
                             Value &Out) {
  if (P->Intr == PrimIntrinsic::None)
    return false;
  if (N == 1) {
    if (P->Intr == PrimIntrinsic::ZeroP && A[0].isFixnum()) {
      Out = Value::boolean(A[0].asFixnum() == 0);
      return true;
    }
    return false;
  }
  if (N == 3 && A[0].isFixnum() && A[1].isFixnum() && A[2].isFixnum()) {
    // Ternary chains ((+ a b c), (* k x x)) are as common as binary ones
    // in arithmetic-heavy kernels; same int64 wrap as the handlers.
    if (P->Intr == PrimIntrinsic::Add) {
      Out = Value::fixnum(A[0].asFixnum() + A[1].asFixnum() +
                          A[2].asFixnum());
      return true;
    }
    if (P->Intr == PrimIntrinsic::Mul) {
      Out = Value::fixnum(A[0].asFixnum() * A[1].asFixnum() *
                          A[2].asFixnum());
      return true;
    }
    return false;
  }
  if (N != 2 || !A[0].isFixnum() || !A[1].isFixnum())
    return false;
  int64_t X = A[0].asFixnum(), Y = A[1].asFixnum();
  switch (P->Intr) {
  case PrimIntrinsic::Add:
    Out = Value::fixnum(X + Y);
    return true;
  case PrimIntrinsic::Sub:
    Out = Value::fixnum(X - Y);
    return true;
  case PrimIntrinsic::Mul:
    Out = Value::fixnum(X * Y);
    return true;
  case PrimIntrinsic::NumEq:
    Out = Value::boolean(static_cast<double>(X) == static_cast<double>(Y));
    return true;
  case PrimIntrinsic::Lt:
    Out = Value::boolean(static_cast<double>(X) < static_cast<double>(Y));
    return true;
  case PrimIntrinsic::Gt:
    Out = Value::boolean(static_cast<double>(X) > static_cast<double>(Y));
    return true;
  case PrimIntrinsic::Le:
    Out = Value::boolean(static_cast<double>(X) <= static_cast<double>(Y));
    return true;
  case PrimIntrinsic::Ge:
    Out = Value::boolean(static_cast<double>(X) >= static_cast<double>(Y));
    return true;
  default:
    return false;
  }
}

} // namespace

/// The dispatch loop, specialized on whether guards are armed. Guard
/// charging mirrors the interpreter exactly: one fuel unit (and one
/// depth level) per entry here, one fuel unit per taken back edge or
/// tail-call restart — so an application costs the same budget no
/// matter which tier runs it. The flag is a template parameter rather
/// than a runtime bool so the unguarded instantiation — the common case
/// and the one benchmarks run — carries no guard checks in the loop at
/// all (a per-step branch was measurable on tiered kernels).
template <bool GuardOn>
static Value runVmLoop(Context &Ctx, VmFunction *Fn, EnvObj *Captured,
                       Value *Args, size_t NumArgs) {
  ExecGuard &Guard = Ctx.Guard;
  if constexpr (GuardOn)
    Guard.enterCall();
  // Frameless functions (leaf-style: nothing captures the frame) keep
  // their locals in LocalBuf — no EnvObj, no slot vector, no allocation
  // per call. Framed functions bind a heap frame as before. Either way,
  // depth-0 local refs go through Slots0 and deeper refs walk Chain.
  Value LocalBuf[8];
  EnvObj *Frame = nullptr; ///< non-null only in framed mode
  Value *Slots0 = nullptr;
  EnvObj *Chain = nullptr;
  auto BindFrame = [&](const VmFunction *F, EnvObj *Env, Value *A, size_t N) {
    if (F->Frameless) {
      if (N != F->NumParams)
        vmArityError(F, N);
      for (size_t J = 0; J < N; ++J)
        LocalBuf[J] = A[J];
      Frame = nullptr;
      Slots0 = LocalBuf;
    } else {
      Frame = buildVmFrame(Ctx, F, Env, A, N);
      Slots0 = Frame->slots();
    }
    Chain = Env;
  };
  BindFrame(Fn, Captured, Args, NumArgs);

  // Operand stack: a fixed inline buffer covers almost every function
  // (MaxStack is the analyzed worst case); deeper functions fall back to
  // a heap buffer. Growth only ever happens at Sp == 0 (entry or a tail
  // restart), so no live values need copying. Raw storage on purpose:
  // Value is trivially copyable and zeroing 48 of them per invocation is
  // measurable on leaf-heavy workloads.
  constexpr size_t InlineCap = 48;
  alignas(Value) unsigned char InlineRaw[InlineCap * sizeof(Value)];
  std::vector<Value> HeapBuf;
  Value *Stack = reinterpret_cast<Value *>(InlineRaw);
  size_t Cap = InlineCap;
  size_t Sp = 0;
  auto EnsureCap = [&](size_t Need) {
    if (Need <= Cap)
      return;
    assert(Sp == 0 && "vm stack growth with live operands");
    HeapBuf.resize(Need < Cap * 2 ? Cap * 2 : Need);
    Stack = HeapBuf.data();
    Cap = HeapBuf.size();
  };
  EnsureCap(Fn->MaxStack);

  size_t Pc = 0;
  // The instruction pointer base: one register instead of re-chasing
  // Fn->Linear's data pointer on every dispatch. Rebound only where Fn
  // itself rebinds (tail-call restarts).
  const Instr *Code = Fn->Linear.data();

  auto Pop = [&]() {
    assert(Sp > 0 && "vm stack underflow");
    return Stack[--Sp];
  };
  auto Push = [&](Value V) {
    assert(Sp < Cap && "vm stack overflow past MaxStack analysis");
    Stack[Sp++] = V;
  };

  // Dispatch-loop counters live in locals and flush to the owning
  // module's RunStats at returns and function switches; a per-instruction
  // memory increment costs more than the bookkeeping is worth.
  VmModule::Stats *Stats = &Fn->Owner->RunStats;
  uint64_t Instrs = 0, Jumps = 0;
  auto FlushStats = [&] {
    Stats->InstructionsExecuted += Instrs;
    Stats->JumpsTaken += Jumps;
    Instrs = 0;
    Jumps = 0;
  };

  // Dispatch. On GCC/Clang the loop is token-threaded (labels as
  // values): every handler ends by jumping straight to the next
  // handler, so the branch predictor sees one indirect branch per
  // opcode site instead of a single shared dispatch branch, and learns
  // per-opcode successor patterns. The switch build is kept as the
  // portable fallback and as the reference semantics: both forms run
  // the same handler bodies via VM_CASE/VM_NEXT.
  //
  // Source counters are bumped a segment ahead (ProfileSrcBatch), so an
  // exception that leaves this invocation mid-segment takes back the
  // bumps of the nodes it never reached; Fn and Pc name the instruction
  // that threw, which is why a tail restart rebinds them together.
  try {
    Instr I;
#if PGMP_VM_THREADED
    static const void *const JumpTable[] = {
        &&Lb_Const,       &&Lb_LocalRef,    &&Lb_GlobalRef,
        &&Lb_SetLocal,    &&Lb_SetGlobal,   &&Lb_DefineGlobal,
        &&Lb_MakeClosure, &&Lb_Call,        &&Lb_TailCall,
        &&Lb_Jump,        &&Lb_BranchFalse, &&Lb_BranchTrue,
        &&Lb_Return,      &&Lb_Pop,         &&Lb_ProfileBlock,
        &&Lb_ProfileSrc,  &&Lb_ProfileSrcBatch,
    };
    static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) == NumOps,
                  "jump table must cover every opcode in enum order");
#define VM_CASE(op) Lb_##op
#define VM_NEXT()                                                              \
    do {                                                                       \
      assert(Pc < Fn->Linear.size() && "vm pc out of range");                  \
      I = Code[Pc];                                                            \
      ++Instrs;                                                                \
      goto *JumpTable[static_cast<size_t>(I.K)];                               \
    } while (0)
    VM_NEXT();
#else
#define VM_CASE(op) case Op::op
#define VM_NEXT() break
    while (true) {
      assert(Pc < Fn->Linear.size() && "vm pc out of range");
      I = Code[Pc];
      ++Instrs;
      switch (I.K) {
#endif
      VM_CASE(Const):
        Push(Fn->Pool[static_cast<size_t>(I.A)]);
        ++Pc;
        VM_NEXT();
      VM_CASE(LocalRef): {
        if (I.A == 0) {
          Push(Slots0[static_cast<size_t>(I.B)]);
          ++Pc;
          VM_NEXT();
        }
        EnvObj *F = Chain;
        for (int32_t D = 1; D < I.A; ++D)
          F = F->Parent;
        Push(F->slots()[static_cast<size_t>(I.B)]);
        ++Pc;
        VM_NEXT();
      }
      VM_CASE(GlobalRef): {
        Value *Cell = Fn->Cells[static_cast<size_t>(I.A)];
        if (Cell->isUnbound())
          raiseError("unbound variable " +
                     Fn->CellNames[static_cast<size_t>(I.A)]->Name);
        Push(*Cell);
        ++Pc;
        VM_NEXT();
      }
      VM_CASE(SetLocal): {
        Value V = Pop();
        if (I.A == 0) {
          // No write barrier: Slots0 is the C++ local buffer or a frame
          // this invocation built, and collections run only at quiescent
          // run boundaries, so the frame is young.
          Slots0[static_cast<size_t>(I.B)] = V;
        } else {
          EnvObj *F = Chain;
          for (int32_t D = 1; D < I.A; ++D)
            F = F->Parent;
          Ctx.TheHeap.noteWrite(F);
          F->slots()[static_cast<size_t>(I.B)] = V;
        }
        Push(Value::undefined());
        ++Pc;
        VM_NEXT();
      }
      VM_CASE(SetGlobal): {
        Value *Cell = Fn->Cells[static_cast<size_t>(I.A)];
        if (Cell->isUnbound())
          raiseError("set! of unbound variable " +
                     Fn->CellNames[static_cast<size_t>(I.A)]->Name);
        *Cell = Pop();
        Push(Value::undefined());
        ++Pc;
        VM_NEXT();
      }
      VM_CASE(DefineGlobal):
        *Fn->Cells[static_cast<size_t>(I.A)] = Pop();
        Push(Value::undefined());
        ++Pc;
        VM_NEXT();
      VM_CASE(MakeClosure): {
        // Frameless analysis guarantees a real frame exists here.
        assert(Frame && "MakeClosure in a frameless function");
        const VmFunction *Sub = Fn->SubFunctions[static_cast<size_t>(I.A)];
        Push(Value::object(
            ValueKind::VmClosure,
            Ctx.TheHeap.makeAt<VmClosure>(AllocSite::VmClosure, Sub, Frame)));
        ++Pc;
        VM_NEXT();
      }
      VM_CASE(Call):
      VM_CASE(TailCall): {
        size_t N = static_cast<size_t>(I.A);
        assert(Sp >= N + 1 && "vm call stack underflow");
        Value *CallArgs = Stack + (Sp - N);
        Value Callee = Stack[Sp - N - 1];

        // Resolve callees with a bytecode body up front: VM closures, and
        // interpreter closures whose template has tiered (or tiers right
        // now — heat-up counts VM-driven applies too).
        const VmFunction *Target = nullptr;
        EnvObj *TargetEnv = nullptr;
        if (Callee.isVmClosure()) {
          VmClosure *C = asVmClosure(Callee);
          Target = C->Fn;
          TargetEnv = C->Captured;
        } else if (Callee.isClosure()) {
          Closure *C = Callee.asClosure();
          if (const VmFunction *VF = tieredFunctionFor(Ctx, C->Template)) {
            Target = VF;
            TargetEnv = C->Captured;
          }
        }

        if (I.K == Op::TailCall && Target) {
          // Reuse this invocation: rebind and restart. This keeps hot tail
          // loops in the dispatch loop instead of growing the C++ stack
          // through applyProcedure.
          if constexpr (GuardOn)
            Guard.chargeFuel(); // a tail application: fuel, never depth
          BindFrame(Target, TargetEnv, CallArgs, N);
          FlushStats();
          Fn = const_cast<VmFunction *>(Target);
          Pc = 0;
          Stats = &Fn->Owner->RunStats;
          Sp = 0;
          EnsureCap(Fn->MaxStack);
          Code = Fn->Linear.data();
          VM_NEXT();
        }

        Value Result;
        if (Target) {
          Result = runVmLoop<GuardOn>(Ctx, const_cast<VmFunction *>(Target),
                                      TargetEnv, CallArgs, N);
        } else if (Callee.isPrimitive()) {
          // Inlined primitive dispatch: arithmetic dominates call counts in
          // numeric kernels, and applyProcedure would re-branch on kind.
          Primitive *P = Callee.asPrimitive();
          if (!tryPrimIntrinsic(P, CallArgs, N, Result)) {
            if (static_cast<int>(N) < P->MinArgs ||
                (P->MaxArgs >= 0 && static_cast<int>(N) > P->MaxArgs))
              raiseError("primitive " + P->Name + " got " + std::to_string(N) +
                         " arguments");
            Result = P->Fn(Ctx, CallArgs, N);
          }
        } else {
          Result = applyProcedure(Ctx, Callee, CallArgs, N);
        }
        if (I.K == Op::TailCall) {
          FlushStats();
          if constexpr (GuardOn)
            Guard.leaveCall();
          return Result;
        }
        Sp -= N + 1;
        Push(Result);
        ++Pc;
        VM_NEXT();
      }
      VM_CASE(Jump): {
        ++Jumps;
        size_t NewPc =
            static_cast<size_t>(Fn->BlockStart[static_cast<size_t>(I.A)]);
        // Only back edges consume fuel: forward jumps are bounded by code
        // size per application, loops are what a budget must interrupt.
        if constexpr (GuardOn)
          if (NewPc <= Pc)
            Guard.chargeFuel();
        Pc = NewPc;
        VM_NEXT();
      }
      VM_CASE(BranchFalse):
        if (!Pop().isTruthy()) {
          ++Jumps;
          size_t NewPc =
              static_cast<size_t>(Fn->BlockStart[static_cast<size_t>(I.A)]);
          if constexpr (GuardOn)
            if (NewPc <= Pc)
              Guard.chargeFuel();
          Pc = NewPc;
        } else {
          ++Pc;
        }
        VM_NEXT();
      VM_CASE(BranchTrue):
        if (Pop().isTruthy()) {
          ++Jumps;
          size_t NewPc =
              static_cast<size_t>(Fn->BlockStart[static_cast<size_t>(I.A)]);
          if constexpr (GuardOn)
            if (NewPc <= Pc)
              Guard.chargeFuel();
          Pc = NewPc;
        } else {
          ++Pc;
        }
        VM_NEXT();
      VM_CASE(Return):
        FlushStats();
        if constexpr (GuardOn)
          Guard.leaveCall();
        return Pop();
      VM_CASE(Pop):
        Pop();
        ++Pc;
        VM_NEXT();
      VM_CASE(ProfileBlock):
        ++Fn->Blocks[static_cast<size_t>(I.A)].ProfileCount;
        ++Pc;
        VM_NEXT();
      VM_CASE(ProfileSrc):
        assert(false && "ProfileSrc survived linearize()");
        ++Pc;
        VM_NEXT();
      VM_CASE(ProfileSrcBatch): {
        const VmFunction::SrcBump *Bp =
            Fn->SrcBumps.data() + static_cast<size_t>(I.A);
        for (const VmFunction::SrcBump *End = Bp + I.B; Bp != End; ++Bp)
          *Bp->Counter += Bp->Times;
        ++Pc;
        VM_NEXT();
      }
#if !PGMP_VM_THREADED
      }
    }
#endif
#undef VM_CASE
#undef VM_NEXT
  } catch (...) {
    Fn->refundUnrun(Pc);
    throw;
  }
}

Value pgmp::runVmFunction(Context &Ctx, VmFunction *Fn, EnvObj *Captured,
                          Value *Args, size_t NumArgs) {
  // One branch per outermost entry picks the instantiation; guard
  // activation only changes at run boundaries, so the choice is stable
  // for the whole invocation (including nested non-tail calls, which
  // stay inside the chosen instantiation).
  if (Ctx.Guard.Active)
    return runVmLoop<true>(Ctx, Fn, Captured, Args, NumArgs);
  return runVmLoop<false>(Ctx, Fn, Captured, Args, NumArgs);
}

static Value vmApplyHook(Context &Ctx, Value Fn, Value *Args, size_t N) {
  VmClosure *C = asVmClosure(Fn);
  return runVmFunction(Ctx, const_cast<VmFunction *>(C->Fn), C->Captured,
                       Args, N);
}

namespace {

/// The VM's TierBackend (interp/TierBackend.h): tier-up compilation and
/// bytecode execution. Each tiered lambda gets its own little module,
/// owned here; modules live as long as the backend (i.e. the Context,
/// which holds it by shared_ptr) because closures keep running their
/// code. A lambda compiles at most once: its body stays in
/// LambdaExpr::Tiered for the session.
class VmTierBackend : public TierBackend {
public:
  const VmFunction *compile(Context &Ctx, const LambdaExpr *L) override {
    ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::TierCompile);
    auto Module = std::make_shared<VmModule>();
    VmCompileOptions Opts;
    // Source-counter bumps are gated per node on Expr::Counter, so this
    // is free for uninstrumented units and mandatory for instrumented
    // ones — profiles must not depend on the tier that executed the code.
    Opts.ProfileSources = true;
    try {
      if (faultinject::shouldFail(faultinject::Point::TierCompile))
        raiseError("injected fault at phase boundary: tier-compile");
      VmFunction *Fn = compileLambdaToVm(L, *Module, Opts);
      Modules.push_back(std::move(Module));
      L->Tiered = Fn;
      Ctx.Stats.bump(Stat::TierUps);
      return Fn;
    } catch (const GuardTrip &) {
      // A resource trip (fuel/deadline) mid-tier-compile must abort the
      // run, not brand the lambda TierBlocked: it can tier fine next run.
      throw;
    } catch (const SchemeError &) {
      // Phase-1-only nodes (syntax-case, templates) in the body: this
      // lambda stays interpreted forever. An injected tier-compile fault
      // takes this path too — degrading to the interpreter IS the clean
      // recovery, and profiles stay identical by counter fidelity.
      L->TierBlocked = true;
      Ctx.Stats.bump(Stat::TierCompileFails);
      return nullptr;
    }
  }

  Value run(Context &Ctx, const VmFunction *Fn, EnvObj *Captured, Value *Args,
            size_t NumArgs) override {
    return runVmFunction(Ctx, const_cast<VmFunction *>(Fn), Captured, Args,
                         NumArgs);
  }

  void traceGcRoots(GcVisitor &V) override {
    // Bytecode constant pools embed heap Values (quoted data, strings);
    // Cells point at Context::Globals entries, which the Context traces
    // itself and whose addresses are stable, so only pools need visiting.
    for (const auto &M : Modules)
      for (const auto &Fn : M->Functions)
        for (Value &C : Fn->Pool)
          V.value(C);
  }

private:
  std::vector<std::shared_ptr<VmModule>> Modules;
};

} // namespace

void pgmp::installVm(Context &Ctx) {
  Ctx.VmApplyHook = vmApplyHook;
  if (!Ctx.Backend)
    Ctx.Backend = std::make_shared<VmTierBackend>();
  // Teach the collector to move/trace VmClosure, whose layout syntax/
  // never sees. Registered unconditionally with the hook so any engine
  // that can mint VM closures can also reclaim across them.
  Heap::ExternalKindOps Ops;
  Ops.Size = sizeof(VmClosure);
  Ops.Relocate = [](void *Mem, Obj *O) -> Obj * {
    auto *C = static_cast<VmClosure *>(O);
    auto *Copy = new (Mem) VmClosure(C->Fn, C->Captured);
    Copy->Site = C->Site;
    return Copy;
  };
  Ops.Trace = [](Obj *O, GcVisitor &V) {
    V.ptr(static_cast<VmClosure *>(O)->Captured);
  };
  Ctx.TheHeap.registerExternalKind(ValueKind::VmClosure, Ops);
}

//===----------------------------------------------------------------------===//
// VmRunner
//===----------------------------------------------------------------------===//

VmRunner::VmRunner(Engine &E) : E(E) { installVm(E.context()); }

EvalResult VmRunner::evalString(const std::string &Source,
                                const std::string &Name,
                                const VmCompileOptions &Opts) {
  EvalResult R;
  Context &Ctx = E.context();
  Ctx.Guard.beginRun();
  try {
    auto Module = std::make_unique<VmModule>();
    Ctx.SrcMgr.addBuffer(Name, Source);
    Reader Rd(Ctx.TheHeap, Ctx.Symbols, Ctx.Sources, Source, Name);
    Value Last = Value::undefined();
    auto ReadOne = [&] {
      ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Read);
      return Rd.readOne();
    };
    while (auto Form = ReadOne()) {
      std::vector<Value> Cores;
      {
        ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Expand);
        Cores = E.expander().expandTopLevel(*Form);
      }
      for (Value Core : Cores) {
        std::unique_ptr<CodeUnit> Unit;
        {
          ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Compile);
          Unit = compileCore(Ctx, Core);
        }
        VmFunction *Top;
        {
          ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::VmCompile);
          Top = compileExprToVm(Unit->Root, *Module, Opts);
        }
        Ctx.adoptCode(std::move(Unit));
        {
          ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::Eval);
          Last = runVmFunction(Ctx, Top, nullptr, nullptr, 0);
        }
      }
    }
    Modules.push_back(std::move(Module));
    R.Ok = true;
    R.V = Last;
  } catch (const GuardTrip &T) {
    R.Ok = false;
    R.Error = T.render();
    R.Tripped = T.kind();
    Ctx.Stats.bump(Stat::GuardTrips);
  } catch (const SchemeError &Err) {
    R.Ok = false;
    R.Error = Err.render();
  }
  return R;
}
