//===- vm/Bytecode.h - Stack bytecode with basic blocks -------*- C++ -*-===//
///
/// \file
/// The block-level substrate of Section 4.3: expanded core forms compile
/// to a stack bytecode organized into basic blocks. Blocks carry
/// execution counters (block-level profiling), and a separate pass
/// reorders blocks and flips branch polarity from those counters — the
/// "traditional low-level PGO" that the paper's three-pass protocol keeps
/// consistent with source-level PGMP.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_VM_BYTECODE_H
#define PGMP_VM_BYTECODE_H

#include "syntax/Heap.h"
#include "syntax/Value.h"

#include <memory>
#include <string>
#include <vector>

namespace pgmp {

struct SourceObject;

enum class Op : uint8_t {
  Const,        ///< push Pool[A]
  LocalRef,     ///< push frame chain depth A, slot B
  GlobalRef,    ///< push *Cells[A] (raises if unbound)
  SetLocal,     ///< pop into depth A, slot B; push void
  SetGlobal,    ///< pop into *Cells[A]; push void
  DefineGlobal, ///< pop into *Cells[A] (no bound check); push void
  MakeClosure,  ///< push closure over function A with current frame
  Call,         ///< call with A arguments (fn below args on stack)
  TailCall,     ///< like Call but reuses the current VM invocation
  Jump,         ///< to block A
  BranchFalse,  ///< pop; if false jump to block A, else fall through
  BranchTrue,   ///< pop; if true jump to block A, else fall through
  Return,       ///< pop return value
  Pop,          ///< drop top of stack
  ProfileBlock, ///< bump block counter A (present only when profiling)
  ProfileSrc,   ///< bump source counter SrcCounters[A] at the node's entry,
                ///< mirroring the interpreter's per-node bump. Blocks only:
                ///< linearize() folds these into ProfileSrcBatch, so the
                ///< VM never executes one.
  ProfileSrcBatch, ///< add Times to *Counter for each of SrcBumps[A, A+B)
                   ///< (Linear only; see VmFunction::SrcBumps)
};

/// Number of opcodes; the VM's threaded-dispatch jump table is checked
/// against this so adding an Op without a handler fails at compile time.
constexpr size_t NumOps = static_cast<size_t>(Op::ProfileSrcBatch) + 1;

struct Instr {
  Op K;
  int32_t A = 0;
  int32_t B = 0;
};

/// One basic block: straight-line code ending in a terminator (Jump,
/// Return, or a conditional branch followed by fallthrough).
struct Block {
  std::vector<Instr> Code;
  /// Fallthrough successor (block id), or -1 when the block ends in an
  /// unconditional terminator.
  int32_t FallThrough = -1;
  /// Execution count from block-level profiling.
  uint64_t ProfileCount = 0;
};

/// One compiled procedure (or top-level thunk).
class VmFunction {
public:
  std::string Name;
  class VmModule *Owner = nullptr;
  uint32_t NumParams = 0;
  bool HasRest = false;
  uint32_t FrameSlots = 0;
  const SourceObject *Src = nullptr;

  std::vector<Block> Blocks; ///< block 0 is the entry
  std::vector<Value> Pool;
  std::vector<Value *> Cells;
  std::vector<Symbol *> CellNames;
  std::vector<VmFunction *> SubFunctions; ///< for MakeClosure

  /// Source-expression counters referenced by ProfileSrc instructions.
  /// These point into the engine's sharded counter store — the *same*
  /// counters the interpreter bumps — which is what keeps instrumented
  /// profiles byte-identical across tier modes.
  std::vector<uint64_t *> SrcCounters;

  /// One merged entry of a ProfileSrcBatch run.
  struct SrcBump {
    uint64_t *Counter;
    uint64_t Times;
  };

  /// The runs the ProfileSrcBatch ops of Linear bump (filled by
  /// linearize()). A block's ProfileSrc ops between its entry and its
  /// first non-tail Call, and between one Call and the next, run equally
  /// often, so each such segment becomes one batch at its first bump,
  /// with repeated counters merged. Closing a segment at every Call keeps
  /// the counters exact whenever a callee can observe them
  /// (store-profile, clear-profile!).
  std::vector<SrcBump> SrcBumps;

  /// The refund table for a raise or guard trip that leaves a segment
  /// after its batch ran (filled by linearize(); empty for uninstrumented
  /// code). UnrunAt[Pc] indexes Unrun, where the counters of the
  /// segment's bumps that come after Pc in Blocks are listed once per
  /// bump, up to a null terminator; Unrun[0] is the null run.
  std::vector<uint32_t> UnrunAt;
  std::vector<uint64_t *> Unrun;

  /// Worst-case operand-stack depth of any path through the function
  /// (filled by linearize()); lets the VM run on a fixed-size buffer.
  uint32_t MaxStack = 0;

  /// True when invocations need no heap frame: no MakeClosure can capture
  /// it, no rest list is consed, and the few parameters fit the VM's
  /// inline local buffer. Locals then live on the C++ stack and calls
  /// allocate nothing (filled by linearize()).
  bool Frameless = false;

  /// Emission order of blocks; changed by the block-reordering PGO.
  std::vector<uint32_t> Layout;

  /// Linearized code (filled by linearize()).
  std::vector<Instr> Linear;
  std::vector<int32_t> BlockStart; ///< pc of each block id in Linear

  /// Rebuilds Linear/BlockStart from Blocks and Layout, inserting
  /// explicit jumps where the layout breaks a fallthrough and folding
  /// ProfileSrc ops into ProfileSrcBatch runs (SrcBumps, UnrunAt,
  /// Unrun). Also refreshes MaxStack.
  void linearize();

  /// Takes back the batched bumps the segment holding \p Pc had not
  /// reached yet, for an unwind that leaves the function at \p Pc.
  void refundUnrun(size_t Pc) const {
    if (UnrunAt.empty())
      return;
    for (uint64_t *const *C = &Unrun[UnrunAt[Pc]]; *C; ++C)
      --**C;
  }

  /// Recomputes MaxStack from the block graph (called by linearize()).
  void computeMaxStack();

  /// Sum of all block counters (for tests).
  uint64_t totalBlockCount() const;

  /// Fingerprint of the block structure and code, ignoring ProfileBlock
  /// and ProfileSrc instructions so instrumented and final builds of the
  /// same source compare equal. Used to detect invalidated block
  /// profiles.
  uint64_t structuralHash() const;
};

/// A compilation unit: one function per lambda plus the top-level thunk.
class VmModule {
public:
  std::vector<std::unique_ptr<VmFunction>> Functions;
  VmFunction *Top = nullptr;

  VmFunction *newFunction() {
    Functions.push_back(std::make_unique<VmFunction>());
    Functions.back()->Owner = this;
    return Functions.back().get();
  }

  /// Dynamic execution statistics of the whole module's last runs.
  struct Stats {
    /// Dispatches; source counters cost one per batch (one per block
    /// segment), not one per instrumented node.
    uint64_t InstructionsExecuted = 0;
    uint64_t JumpsTaken = 0; ///< non-fallthrough control transfers
  };
  Stats RunStats;

  void resetStats() { RunStats = Stats(); }
  void resetBlockCounts();
};

/// A closure over a VM function (mirrors interp Closure).
class VmClosure : public Obj {
public:
  VmClosure(const VmFunction *Fn, EnvObj *Captured)
      : Obj(ValueKind::VmClosure), Fn(Fn), Captured(Captured) {}
  const VmFunction *Fn;
  EnvObj *Captured;
};

/// Typed accessor for VmClosure values.
inline VmClosure *asVmClosure(const Value &V) {
  assert(V.isVmClosure() && "value kind mismatch in asVmClosure");
  return static_cast<VmClosure *>(V.obj());
}

/// Renders a function's blocks for debugging and golden tests.
std::string disassemble(const VmFunction &Fn);

} // namespace pgmp

#endif // PGMP_VM_BYTECODE_H
