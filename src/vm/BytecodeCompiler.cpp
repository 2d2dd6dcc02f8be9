//===- vm/BytecodeCompiler.cpp --------------------------------------------===//

#include "vm/BytecodeCompiler.h"

#include "support/Diagnostics.h"

using namespace pgmp;

namespace {

class FnBuilder {
public:
  FnBuilder(VmModule &Module, VmFunction *Fn, const VmCompileOptions &Opts)
      : Module(Module), Fn(Fn), Opts(Opts) {
    Current = newBlock();
    (void)this->Module;
  }

  uint32_t newBlock() {
    Fn->Blocks.push_back(Block());
    uint32_t Id = static_cast<uint32_t>(Fn->Blocks.size() - 1);
    if (Opts.ProfileBlocks)
      Fn->Blocks[Id].Code.push_back(
          Instr{Op::ProfileBlock, static_cast<int32_t>(Id), 0});
    return Id;
  }

  void emit(Instr I) { Fn->Blocks[Current].Code.push_back(I); }

  /// Ends the current block with \p Term; conditional terminators get
  /// \p FallThrough as their not-taken successor.
  void terminate(Instr Term, int32_t FallThrough = -1) {
    Fn->Blocks[Current].Code.push_back(Term);
    Fn->Blocks[Current].FallThrough = FallThrough;
  }

  void switchTo(uint32_t BlockId) { Current = BlockId; }

  int32_t poolConst(Value V) {
    Fn->Pool.push_back(V);
    return static_cast<int32_t>(Fn->Pool.size() - 1);
  }

  int32_t cell(Value *C, Symbol *Name) {
    for (size_t I = 0; I < Fn->Cells.size(); ++I)
      if (Fn->Cells[I] == C)
        return static_cast<int32_t>(I);
    Fn->Cells.push_back(C);
    Fn->CellNames.push_back(Name);
    return static_cast<int32_t>(Fn->Cells.size() - 1);
  }

  int32_t srcCounter(uint64_t *C) {
    for (size_t I = 0; I < Fn->SrcCounters.size(); ++I)
      if (Fn->SrcCounters[I] == C)
        return static_cast<int32_t>(I);
    Fn->SrcCounters.push_back(C);
    return static_cast<int32_t>(Fn->SrcCounters.size() - 1);
  }

  VmModule &Module;
  VmFunction *Fn;
  const VmCompileOptions &Opts;
  uint32_t Current = 0;
};

class VmCompiler {
public:
  VmCompiler(VmModule &Module, const VmCompileOptions &Opts)
      : Module(Module), Opts(Opts) {}

  VmFunction *compileFunction(const LambdaExpr *L, const std::string &Name,
                              const Expr *Body) {
    VmFunction *Fn = Module.newFunction();
    if (L) {
      Fn->Name = L->Name.empty() ? Name : L->Name;
      Fn->NumParams = static_cast<uint32_t>(L->Params.size());
      Fn->HasRest = L->HasRest;
      Fn->FrameSlots = static_cast<uint32_t>(L->numSlots());
      Fn->Src = L->Src;
    } else {
      Fn->Name = Name;
    }
    FnBuilder B(Module, Fn, Opts);
    compile(B, Body, /*Tail=*/true);
    B.terminate(Instr{Op::Return, 0, 0});
    Fn->linearize();
    return Fn;
  }

private:
  [[noreturn]] void unsupported(const char *What) {
    raiseError(std::string("vm: ") + What +
               " cannot appear in runtime code");
  }

  void compile(FnBuilder &B, const Expr *E, bool Tail) {
    // The interpreter bumps a node's counter on entry, before any child
    // evaluates; emitting the bump first reproduces that order exactly.
    if (Opts.ProfileSources && E->Counter)
      B.emit(Instr{Op::ProfileSrc, B.srcCounter(E->Counter), 0});
    switch (E->K) {
    case ExprKind::Const:
      B.emit(Instr{Op::Const,
                   B.poolConst(static_cast<const ConstExpr *>(E)->V), 0});
      return;
    case ExprKind::LocalRef: {
      const auto *R = static_cast<const LocalRefExpr *>(E);
      B.emit(Instr{Op::LocalRef, static_cast<int32_t>(R->Depth),
                   static_cast<int32_t>(R->Index)});
      return;
    }
    case ExprKind::GlobalRef: {
      const auto *R = static_cast<const GlobalRefExpr *>(E);
      B.emit(Instr{Op::GlobalRef, B.cell(R->Cell, R->Name), 0});
      return;
    }
    case ExprKind::If: {
      const auto *I = static_cast<const IfExpr *>(E);
      compile(B, I->Test, /*Tail=*/false);
      uint32_t ThenBlk = B.newBlock();
      uint32_t ElseBlk = B.newBlock();
      uint32_t JoinBlk = B.newBlock();
      B.terminate(Instr{Op::BranchFalse, static_cast<int32_t>(ElseBlk), 0},
                  static_cast<int32_t>(ThenBlk));
      B.switchTo(ThenBlk);
      compile(B, I->Then, Tail);
      B.terminate(Instr{Op::Jump, static_cast<int32_t>(JoinBlk), 0});
      B.switchTo(ElseBlk);
      compile(B, I->Else, Tail);
      B.terminate(Instr{Op::Jump, static_cast<int32_t>(JoinBlk), 0});
      B.switchTo(JoinBlk);
      return;
    }
    case ExprKind::Lambda: {
      const auto *L = static_cast<const LambdaExpr *>(E);
      VmFunction *Sub = compileFunction(L, "<lambda>", L->Body);
      B.Fn->SubFunctions.push_back(Sub);
      B.emit(Instr{Op::MakeClosure,
                   static_cast<int32_t>(B.Fn->SubFunctions.size() - 1), 0});
      return;
    }
    case ExprKind::Begin: {
      const auto *Bg = static_cast<const BeginExpr *>(E);
      for (size_t I = 0; I + 1 < Bg->Body.size(); ++I) {
        compile(B, Bg->Body[I], /*Tail=*/false);
        B.emit(Instr{Op::Pop, 0, 0});
      }
      compile(B, Bg->Body.back(), Tail);
      return;
    }
    case ExprKind::SetLocal: {
      const auto *S = static_cast<const SetLocalExpr *>(E);
      compile(B, S->Val, /*Tail=*/false);
      B.emit(Instr{Op::SetLocal, static_cast<int32_t>(S->Depth),
                   static_cast<int32_t>(S->Index)});
      return;
    }
    case ExprKind::SetGlobal: {
      const auto *S = static_cast<const SetGlobalExpr *>(E);
      compile(B, S->Val, /*Tail=*/false);
      B.emit(Instr{Op::SetGlobal, B.cell(S->Cell, S->Name), 0});
      return;
    }
    case ExprKind::DefineGlobal: {
      const auto *D = static_cast<const DefineGlobalExpr *>(E);
      compile(B, D->Val, /*Tail=*/false);
      B.emit(Instr{Op::DefineGlobal, B.cell(D->Cell, D->Name), 0});
      return;
    }
    case ExprKind::Call: {
      const auto *C = static_cast<const CallExpr *>(E);
      bool IsTail = Tail && C->Tail;
      compile(B, C->Fn, /*Tail=*/false);
      for (const Expr *Arg : C->Args)
        compile(B, Arg, /*Tail=*/false);
      int32_t N = static_cast<int32_t>(C->Args.size());
      if (IsTail) {
        B.terminate(Instr{Op::TailCall, N, 0});
        // Code may syntactically continue after a tail call (e.g. the
        // join block of an if); start a fresh block for it.
        uint32_t Cont = B.newBlock();
        B.switchTo(Cont);
      } else {
        B.emit(Instr{Op::Call, N, 0});
      }
      return;
    }
    case ExprKind::SyntaxCase:
      unsupported("syntax-case");
    case ExprKind::Template:
      unsupported("syntax templates");
    }
  }

  VmModule &Module;
  VmCompileOptions Opts;
};

} // namespace

VmFunction *pgmp::compileExprToVm(const Expr *Root, VmModule &Module,
                                  const VmCompileOptions &Opts) {
  VmCompiler C(Module, Opts);
  VmFunction *Top = C.compileFunction(nullptr, "<top>", Root);
  if (!Module.Top)
    Module.Top = Top;
  return Top;
}

VmFunction *pgmp::compileLambdaToVm(const LambdaExpr *L, VmModule &Module,
                                    const VmCompileOptions &Opts) {
  VmCompiler C(Module, Opts);
  return C.compileFunction(L, "<tiered>", L->Body);
}
