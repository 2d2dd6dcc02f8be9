//===- vm/Bytecode.cpp ----------------------------------------------------===//

#include "vm/Bytecode.h"

#include "profile/SourceObject.h"
#include "syntax/SymbolTable.h"
#include "syntax/Writer.h"

using namespace pgmp;

void VmFunction::linearize() {
  Linear.clear();
  BlockStart.assign(Blocks.size(), -1);
  SrcBumps.clear();
  UnrunAt.clear();
  Unrun.assign(1, nullptr);
  if (Layout.empty()) {
    Layout.resize(Blocks.size());
    for (uint32_t I = 0; I < Blocks.size(); ++I)
      Layout[I] = I;
  }

  // The open counting segment: the Linear index of its ProfileSrcBatch,
  // or -1 before the segment's first bump. Every other instruction
  // records where the segment's not-yet-reached bumps start in Unrun;
  // later bumps append there, and closing the segment terminates the run.
  int32_t Batch = -1;
  auto Emit = [&](Instr I) {
    UnrunAt.push_back(Batch < 0 ? 0u : static_cast<uint32_t>(Unrun.size()));
    Linear.push_back(I);
  };
  auto CloseSegment = [&] {
    if (Batch < 0)
      return;
    Unrun.push_back(nullptr);
    Batch = -1;
  };
  auto Bump = [&](uint64_t *Counter) {
    if (Batch < 0) {
      Batch = static_cast<int32_t>(Linear.size());
      UnrunAt.push_back(0);
      Linear.push_back(Instr{Op::ProfileSrcBatch,
                             static_cast<int32_t>(SrcBumps.size()), 0});
    }
    Instr &Run = Linear[static_cast<size_t>(Batch)];
    Unrun.push_back(Counter);
    for (int32_t J = Run.A; J < Run.A + Run.B; ++J)
      if (SrcBumps[static_cast<size_t>(J)].Counter == Counter) {
        ++SrcBumps[static_cast<size_t>(J)].Times;
        return;
      }
    SrcBumps.push_back(SrcBump{Counter, 1});
    ++Run.B;
  };

  for (size_t L = 0; L < Layout.size(); ++L) {
    uint32_t Id = Layout[L];
    const Block &B = Blocks[Id];
    BlockStart[Id] = static_cast<int32_t>(Linear.size());
    int32_t Next =
        L + 1 < Layout.size() ? static_cast<int32_t>(Layout[L + 1]) : -1;

    assert(!B.Code.empty() && "empty basic block");
    // Emit all but the terminator verbatim, bumps batched. A callee may
    // read the counters, so a Call ends the segment it belongs to.
    for (size_t I = 0; I + 1 < B.Code.size(); ++I) {
      const Instr &In = B.Code[I];
      if (In.K == Op::ProfileSrc) {
        Bump(SrcCounters[static_cast<size_t>(In.A)]);
        continue;
      }
      Emit(In);
      if (In.K == Op::Call)
        CloseSegment();
    }

    Instr Term = B.Code.back();
    switch (Term.K) {
    case Op::Jump:
      if (Term.A != Next)
        Emit(Term);
      break;
    case Op::Return:
    case Op::TailCall:
      Emit(Term);
      break;
    case Op::BranchFalse:
    case Op::BranchTrue: {
      int32_t FT = B.FallThrough;
      assert(FT >= 0 && "conditional terminator without fallthrough");
      if (FT == Next) {
        Emit(Term);
      } else if (Term.A == Next) {
        // Invert the branch so the hot path falls through.
        Instr Inverted = Term;
        Inverted.K =
            Term.K == Op::BranchFalse ? Op::BranchTrue : Op::BranchFalse;
        Inverted.A = FT;
        Emit(Inverted);
      } else {
        Emit(Term);
        Emit(Instr{Op::Jump, FT, 0});
      }
      break;
    }
    default:
      assert(false && "block does not end in a terminator");
    }
    CloseSegment();
  }
  if (SrcBumps.empty()) {
    UnrunAt.clear();
    Unrun.clear();
  }

  computeMaxStack();

  // A function is frameless when nothing can observe its frame object:
  // MakeClosure is the only instruction that captures the current frame,
  // and rest-argument functions need a real slot vector for the consed
  // list. The parameter bound matches the VM's inline local buffer.
  Frameless = !HasRest && NumParams <= 8 && FrameSlots == NumParams;
  for (const Block &B : Blocks)
    for (const Instr &I : B.Code)
      if (I.K == Op::MakeClosure)
        Frameless = false;
}

void VmFunction::computeMaxStack() {
  // The block graph is acyclic (loops are TailCall restarts of the whole
  // invocation), so a single forward worklist pass over entry depths
  // converges. Depths are tracked as int64 to keep the assertion below
  // meaningful if a compiler bug ever underflows.
  std::vector<int64_t> EntryDepth(Blocks.size(), -1);
  std::vector<uint32_t> Work;
  EntryDepth[0] = 0;
  Work.push_back(0);
  int64_t Max = 0;
  auto Propagate = [&](int32_t Succ, int64_t Depth) {
    if (Succ < 0)
      return;
    if (EntryDepth[Succ] < Depth) {
      EntryDepth[Succ] = Depth;
      Work.push_back(static_cast<uint32_t>(Succ));
    }
  };
  while (!Work.empty()) {
    uint32_t Id = Work.back();
    Work.pop_back();
    const Block &B = Blocks[Id];
    int64_t Cur = EntryDepth[Id];
    for (const Instr &I : B.Code) {
      switch (I.K) {
      case Op::Const:
      case Op::LocalRef:
      case Op::GlobalRef:
      case Op::MakeClosure:
        ++Cur;
        break;
      case Op::SetLocal:
      case Op::SetGlobal:
      case Op::DefineGlobal:
        break; // pop one, push void: net zero, peak unchanged
      case Op::Call:
        Cur -= I.A; // pops fn + A args, pushes result
        break;
      case Op::TailCall:
        Cur -= I.A + 1; // consumes fn + args; invocation restarts
        break;
      case Op::Jump:
        Propagate(I.A, Cur);
        break;
      case Op::BranchFalse:
      case Op::BranchTrue:
        --Cur;
        Propagate(I.A, Cur);
        Propagate(B.FallThrough, Cur);
        break;
      case Op::Return:
      case Op::Pop:
        --Cur;
        break;
      case Op::ProfileBlock:
      case Op::ProfileSrc:
      case Op::ProfileSrcBatch:
        break;
      }
      assert(Cur >= 0 && "operand stack underflow in MaxStack analysis");
      if (Cur > Max)
        Max = Cur;
    }
  }
  MaxStack = static_cast<uint32_t>(Max);
}

uint64_t VmFunction::totalBlockCount() const {
  uint64_t Sum = 0;
  for (const Block &B : Blocks)
    Sum += B.ProfileCount;
  return Sum;
}

uint64_t VmFunction::structuralHash() const {
  uint64_t H = 1469598103934665603ull; // FNV offset basis
  auto Mix = [&H](uint64_t X) {
    H ^= X;
    H *= 1099511628211ull;
  };
  auto MixString = [&Mix](const std::string &S) {
    for (char C : S)
      Mix(static_cast<uint8_t>(C));
  };
  Mix(NumParams);
  Mix(HasRest ? 1 : 2);
  Mix(Blocks.size());
  for (const Block &B : Blocks) {
    Mix(0xB10C);
    Mix(static_cast<uint64_t>(B.FallThrough) + 7);
    for (const Instr &I : B.Code) {
      if (I.K == Op::ProfileBlock || I.K == Op::ProfileSrc)
        continue;
      Mix(static_cast<uint64_t>(I.K));
      // Operand indices are allocated in encounter order, so two
      // different compiles can produce identical index sequences; hash
      // what the operands denote instead where it matters.
      switch (I.K) {
      case Op::Const:
        MixString(writeToString(Pool[static_cast<size_t>(I.A)]));
        break;
      case Op::GlobalRef:
      case Op::SetGlobal:
      case Op::DefineGlobal:
        MixString(CellNames[static_cast<size_t>(I.A)]->Name);
        break;
      default:
        Mix(static_cast<uint64_t>(I.A) + 0x9e37);
        Mix(static_cast<uint64_t>(I.B) + 0x79b9);
      }
    }
  }
  return H;
}

void VmModule::resetBlockCounts() {
  for (auto &Fn : Functions)
    for (Block &B : Fn->Blocks)
      B.ProfileCount = 0;
}

std::string pgmp::disassemble(const VmFunction &Fn) {
  std::string Out = "function " + (Fn.Name.empty() ? "<top>" : Fn.Name) +
                    " params=" + std::to_string(Fn.NumParams) +
                    (Fn.HasRest ? "+rest" : "") + "\n";
  auto OpName = [](Op K) -> const char * {
    switch (K) {
    case Op::Const:
      return "const";
    case Op::LocalRef:
      return "local";
    case Op::GlobalRef:
      return "global";
    case Op::SetLocal:
      return "set-local";
    case Op::SetGlobal:
      return "set-global";
    case Op::DefineGlobal:
      return "def-global";
    case Op::MakeClosure:
      return "closure";
    case Op::Call:
      return "call";
    case Op::TailCall:
      return "tailcall";
    case Op::Jump:
      return "jump";
    case Op::BranchFalse:
      return "brf";
    case Op::BranchTrue:
      return "brt";
    case Op::Return:
      return "return";
    case Op::Pop:
      return "pop";
    case Op::ProfileBlock:
      return "profile";
    case Op::ProfileSrc:
      return "profile-src";
    case Op::ProfileSrcBatch:
      return "profile-src-batch";
    }
    return "?";
  };
  for (size_t BI = 0; BI < Fn.Blocks.size(); ++BI) {
    const Block &B = Fn.Blocks[BI];
    Out += "  block " + std::to_string(BI) +
           " count=" + std::to_string(B.ProfileCount) + "\n";
    for (const Instr &I : B.Code)
      Out += std::string("    ") + OpName(I.K) + " " + std::to_string(I.A) +
             " " + std::to_string(I.B) + "\n";
  }
  return Out;
}
