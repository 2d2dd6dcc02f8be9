//===- tests/VmTest.cpp - Bytecode compiler/VM tests ----------------------===//

#include "TestUtil.h"

#include "support/Rng.h"
#include "vm/BlockProfile.h"
#include "vm/BlockReorder.h"
#include "vm/Vm.h"

using namespace pgmp;
using namespace pgmp::testutil;

namespace {

struct VmFixture : ::testing::Test {
  Engine E;
  VmRunner Runner{E};

  std::string runVm(const std::string &Src,
                    const VmCompileOptions &Opts = {}) {
    EvalResult R = Runner.evalString(Src, "vmtest.scm", Opts);
    EXPECT_TRUE(R.Ok) << R.Error << "\n  while running: " << Src;
    return R.Ok ? writeToString(R.V) : "<error>";
  }
};

TEST_F(VmFixture, BasicsMatchInterpreter) {
  EXPECT_EQ(runVm("(+ 1 2 3)"), "6");
  EXPECT_EQ(runVm("(if (< 1 2) 'yes 'no)"), "yes");
  EXPECT_EQ(runVm("(let ([x 2] [y 3]) (* x y))"), "6");
  EXPECT_EQ(runVm("(define (sq x) (* x x)) (sq 9)"), "81");
  EXPECT_EQ(runVm("((lambda (a . r) (cons a r)) 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(runVm("(begin 1 2 3)"), "3");
  EXPECT_EQ(runVm("(define v 1) (set! v 42) v"), "42");
}

TEST_F(VmFixture, ClosuresCaptureEnvironments) {
  EXPECT_EQ(runVm("(define (adder n) (lambda (x) (+ x n)))"
                  "(define add5 (adder 5))"
                  "(add5 10)"),
            "15");
  EXPECT_EQ(runVm("(define (counter)"
                  "  (let ([n 0]) (lambda () (set! n (+ n 1)) n)))"
                  "(define c (counter))"
                  "(c) (c) (c)"),
            "3");
}

TEST_F(VmFixture, TailCallsRunInConstantStack) {
  EXPECT_EQ(runVm("(define (loop i acc)"
                  "  (if (= i 500000) acc (loop (+ i 1) (+ acc 2))))"
                  "(loop 0 0)"),
            "1000000");
}

TEST_F(VmFixture, MutualTailRecursion) {
  EXPECT_EQ(runVm("(define (even2? n) (if (zero? n) #t (odd2? (- n 1))))"
                  "(define (odd2? n) (if (zero? n) #f (even2? (- n 1))))"
                  "(even2? 100001)"),
            "#f");
}

TEST_F(VmFixture, VmClosuresCallableFromInterpreterPrims) {
  // map (a C++ primitive) applies a VM closure via the hook.
  EXPECT_EQ(runVm("(map (lambda (x) (* x x)) '(1 2 3))"), "(1 4 9)");
  EXPECT_EQ(runVm("(sort '(3 1 2) (lambda (a b) (< a b)))"), "(1 2 3)");
}

TEST_F(VmFixture, InterpCodeCallsVmCode) {
  ASSERT_EQ(runVm("(define (vm-side x) (* x 7))"), "#<void>");
  // Evaluate through the interpreter; it must call the VM closure.
  EXPECT_EQ(evalOk(E, "(vm-side 6)"), "42");
}

TEST_F(VmFixture, VmCodeCallsInterpCode) {
  ASSERT_TRUE(E.evalString("(define (interp-side x) (+ x 1))").Ok);
  EXPECT_EQ(runVm("(interp-side 41)"), "42");
}

TEST_F(VmFixture, MacrosWorkThroughVmPipeline) {
  loadLib(E, "exclusive-cond");
  loadLib(E, "pgmp-case");
  EXPECT_EQ(runVm("(define (cls c)"
                  "  (case c [(#\\a) 'a] [(#\\b) 'b] [else 'other]))"
                  "(list (cls #\\a) (cls #\\b) (cls #\\z))"),
            "(a b other)");
}

TEST_F(VmFixture, BlockProfilingCountsBlocks) {
  VmCompileOptions Opts;
  Opts.ProfileBlocks = true;
  runVm("(define (f n) (if (even? n) 'e 'o))"
        "(define (go i) (if (zero? i) 'done (begin (f i) (go (- i 1)))))"
        "(go 10)",
        Opts);
  VmModule *M = Runner.lastModule();
  ASSERT_NE(M, nullptr);
  uint64_t Total = 0;
  for (auto &Fn : M->Functions)
    Total += Fn->totalBlockCount();
  EXPECT_GT(Total, 20u);

  // The branch blocks of f each ran 5 times.
  const VmFunction *F = nullptr;
  for (auto &Fn : M->Functions)
    if (Fn->Name == "f")
      F = Fn.get();
  ASSERT_NE(F, nullptr);
  std::vector<uint64_t> Counts;
  for (const Block &B : F->Blocks)
    Counts.push_back(B.ProfileCount);
  EXPECT_EQ(std::count(Counts.begin(), Counts.end(), 5u), 2)
      << disassemble(*F);
}

TEST_F(VmFixture, NoProfileOpsWithoutFlag) {
  runVm("(define (g x) x) (g 1)");
  VmModule *M = Runner.lastModule();
  for (auto &Fn : M->Functions)
    for (const Block &B : Fn->Blocks)
      for (const Instr &I : B.Code)
        EXPECT_NE(I.K, Op::ProfileBlock);
}

TEST_F(VmFixture, BlockProfileRoundTrip) {
  VmCompileOptions Opts;
  Opts.ProfileBlocks = true;
  runVm("(define (h n) (if (even? n) 1 2)) (h 2) (h 2) (h 3)", Opts);
  VmModule *M = Runner.lastModule();
  std::string Text = serializeBlockProfile(*M);

  // Reset and re-apply.
  std::vector<uint64_t> Before;
  for (auto &Fn : M->Functions)
    for (Block &B : Fn->Blocks)
      Before.push_back(B.ProfileCount);
  M->resetBlockCounts();
  std::string Err;
  ASSERT_TRUE(applyBlockProfile(Text, *M, Err)) << Err;
  size_t I = 0;
  for (auto &Fn : M->Functions)
    for (Block &B : Fn->Blocks)
      EXPECT_EQ(B.ProfileCount, Before[I++]);
}

TEST_F(VmFixture, BlockProfileRejectsMismatchedStructure) {
  VmCompileOptions Opts;
  Opts.ProfileBlocks = true;
  runVm("(define (p n) (if n 1 2)) (p #t)", Opts);
  std::string Text = serializeBlockProfile(*Runner.lastModule());

  // A structurally different module must reject the profile.
  Engine E2;
  VmRunner R2(E2);
  ASSERT_TRUE(R2.evalString("(define (p n) (if n (if n 1 2) 3)) (p #t)",
                            "vmtest.scm", Opts)
                  .Ok);
  std::string Err;
  EXPECT_FALSE(applyBlockProfile(Text, *R2.lastModule(), Err));
  EXPECT_NE(Err.find("invalidated"), std::string::npos) << Err;
}

TEST_F(VmFixture, ReorderingPreservesSemanticsAndCutsJumps) {
  // A loop whose condition almost always takes the "else" side: with the
  // default layout the hot path jumps; after reordering it falls through.
  const char *Prog =
      "(define (work n acc)"
      "  (if (= n 0)"
      "      acc"                                   // cold exit
      "      (work (- n 1) (+ acc (if (even? n) 1 2)))))";
  VmCompileOptions Opts;
  Opts.ProfileBlocks = true;
  // Profile run.
  Engine EP;
  VmRunner RP(EP);
  ASSERT_TRUE(RP.evalString(Prog, "work.scm", Opts).Ok);
  ASSERT_TRUE(EP.evalString("(work 1000 0)").Ok);
  VmModule *M = RP.lastModule();

  // Baseline dynamic jump count with original layout (fresh run).
  M->resetStats();
  ASSERT_TRUE(EP.evalString("(work 1000 0)").Ok);
  uint64_t JumpsBefore = M->RunStats.JumpsTaken;
  EvalResult Base = EP.evalString("(work 37 0)");
  ASSERT_TRUE(Base.Ok);

  // Reorder by profile and re-run.
  applyProfileGuidedLayout(*M);
  M->resetStats();
  ASSERT_TRUE(EP.evalString("(work 1000 0)").Ok);
  uint64_t JumpsAfter = M->RunStats.JumpsTaken;
  EvalResult Opt = EP.evalString("(work 37 0)");
  ASSERT_TRUE(Opt.Ok);

  EXPECT_EQ(writeToString(Base.V), writeToString(Opt.V));
  EXPECT_LT(JumpsAfter, JumpsBefore)
      << "profile-guided layout should reduce taken jumps";
}

TEST_F(VmFixture, RestoreOriginalLayoutIsIdentity) {
  const char *Prog = "(define (f n) (if (even? n) 'e 'o)) (f 4)";
  runVm(Prog);
  VmModule *M = Runner.lastModule();
  std::vector<Instr> Before = M->Functions[0]->Linear;
  applyProfileGuidedLayout(*M);
  restoreOriginalLayout(*M);
  const std::vector<Instr> &After = M->Functions[0]->Linear;
  ASSERT_EQ(Before.size(), After.size());
  for (size_t I = 0; I < Before.size(); ++I) {
    EXPECT_EQ(Before[I].K, After[I].K);
    EXPECT_EQ(Before[I].A, After[I].A);
  }
}

// Source counters in Linear: linearize() folds each segment's ProfileSrc
// ops (block entry or a Call up to the next Call) into one
// ProfileSrcBatch, and leaves Blocks, and so everything computed from
// them, as it was.
TEST(VmCounterBatching, OneBatchPerSegmentAndBlocksUnchanged) {
  Engine E(withInstrumentation());
  VmRunner Runner(E);
  VmCompileOptions Opts;
  Opts.ProfileSources = true;
  EvalResult R = Runner.evalString(
      "(define (g n) (* n n))\n"
      "(define (f n acc)\n"
      "  (if (= n 0) acc (f (- n 1) (+ acc (g n) (* n 2)))))\n"
      "(f 5 0)",
      "batch.scm", Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(writeToString(R.V), "85");
  const VmFunction *F = nullptr;
  for (auto &Fn : Runner.lastModule()->Functions)
    if (Fn->Name == "f")
      F = Fn.get();
  ASSERT_NE(F, nullptr);

  size_t Bumps = 0, Batched = 0;
  for (size_t Id = 0; Id < F->Blocks.size(); ++Id) {
    // A segment starts at a block's first bump and at the first bump
    // after each Call.
    size_t Segments = 0, Calls = 0;
    bool Open = false;
    for (const Instr &I : F->Blocks[Id].Code) {
      if (I.K == Op::ProfileSrc) {
        ++Bumps;
        if (!Open)
          ++Segments;
        Open = true;
      } else if (I.K == Op::Call) {
        ++Calls;
        Open = false;
      }
    }
    size_t Begin = static_cast<size_t>(F->BlockStart[Id]);
    size_t End = F->Linear.size();
    for (int32_t S : F->BlockStart)
      if (S > F->BlockStart[Id] && static_cast<size_t>(S) < End)
        End = static_cast<size_t>(S);
    size_t Batches = 0;
    for (size_t Pc = Begin; Pc < End; ++Pc) {
      const Instr &I = F->Linear[Pc];
      EXPECT_NE(I.K, Op::ProfileSrc) << "pc " << Pc;
      if (I.K != Op::ProfileSrcBatch)
        continue;
      ++Batches;
      for (int32_t J = I.A; J < I.A + I.B; ++J)
        Batched += F->SrcBumps[static_cast<size_t>(J)].Times;
    }
    EXPECT_EQ(Batches, Segments) << "block " << Id << "\n" << disassemble(*F);
    if (Calls == 0 && Segments > 0) {
      EXPECT_EQ(Batches, 1u) << "block " << Id;
    }
  }
  EXPECT_GT(Bumps, 10u);
  EXPECT_EQ(Batched, Bumps) << "every node counted once per block entry";

  // Taken from the same program built before linearize() batched bumps.
  EXPECT_EQ(F->structuralHash(), 0x9496b51d2fe808b8ull);
  EXPECT_EQ(disassemble(*F),
            "function f params=2\n"
            "  block 0 count=0\n"
            "    profile-src 0 0\n"
            "    profile-src 1 0\n"
            "    profile-src 2 0\n"
            "    global 0 0\n"
            "    profile-src 3 0\n"
            "    local 0 0\n"
            "    profile-src 4 0\n"
            "    const 0 0\n"
            "    call 2 0\n"
            "    brf 2 0\n"
            "  block 1 count=0\n"
            "    profile-src 5 0\n"
            "    local 0 1\n"
            "    jump 3 0\n"
            "  block 2 count=0\n"
            "    profile-src 6 0\n"
            "    profile-src 7 0\n"
            "    global 1 0\n"
            "    profile-src 8 0\n"
            "    profile-src 9 0\n"
            "    global 2 0\n"
            "    profile-src 10 0\n"
            "    local 0 0\n"
            "    profile-src 11 0\n"
            "    const 1 0\n"
            "    call 2 0\n"
            "    profile-src 12 0\n"
            "    profile-src 13 0\n"
            "    global 3 0\n"
            "    profile-src 14 0\n"
            "    local 0 1\n"
            "    profile-src 15 0\n"
            "    profile-src 16 0\n"
            "    global 4 0\n"
            "    profile-src 17 0\n"
            "    local 0 0\n"
            "    call 1 0\n"
            "    profile-src 18 0\n"
            "    profile-src 19 0\n"
            "    global 5 0\n"
            "    profile-src 20 0\n"
            "    local 0 0\n"
            "    profile-src 21 0\n"
            "    const 2 0\n"
            "    call 2 0\n"
            "    call 3 0\n"
            "    tailcall 2 0\n"
            "  block 3 count=0\n"
            "    return 0 0\n"
            "  block 4 count=0\n"
            "    jump 3 0\n");
}

//===----------------------------------------------------------------------===//
// Property: VM and interpreter agree on randomly generated programs.
//===----------------------------------------------------------------------===//

class VmEquivalence : public ::testing::TestWithParam<int> {};

std::string randomExpr(Rng &R, int Depth) {
  if (Depth <= 0)
    return std::to_string(static_cast<int64_t>(R.below(20)) - 10);
  switch (R.below(7)) {
  case 0:
    return "(+ " + randomExpr(R, Depth - 1) + " " + randomExpr(R, Depth - 1) +
           ")";
  case 1:
    return "(* " + randomExpr(R, Depth - 1) + " " + randomExpr(R, Depth - 1) +
           ")";
  case 2:
    return "(if (< " + randomExpr(R, Depth - 1) + " " +
           randomExpr(R, Depth - 1) + ") " + randomExpr(R, Depth - 1) + " " +
           randomExpr(R, Depth - 1) + ")";
  case 3:
    return "(let ([a " + randomExpr(R, Depth - 1) + "] [b " +
           randomExpr(R, Depth - 1) + "]) (- a b))";
  case 4:
    return "((lambda (x) (+ x " + randomExpr(R, Depth - 1) + ")) " +
           randomExpr(R, Depth - 1) + ")";
  case 5:
    return "(begin " + randomExpr(R, Depth - 1) + " " +
           randomExpr(R, Depth - 1) + ")";
  default:
    return "(max " + randomExpr(R, Depth - 1) + " " +
           randomExpr(R, Depth - 1) + ")";
  }
}

TEST_P(VmEquivalence, AgreesWithInterpreter) {
  Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  for (int I = 0; I < 25; ++I) {
    std::string Src = randomExpr(R, 4);
    Engine EI;
    EvalResult RI = EI.evalString(Src);
    ASSERT_TRUE(RI.Ok) << RI.Error << " src: " << Src;

    Engine EV;
    VmRunner RV(EV);
    EvalResult RVm = RV.evalString(Src, "rand.scm");
    ASSERT_TRUE(RVm.Ok) << RVm.Error << " src: " << Src;

    EXPECT_EQ(writeToString(RI.V), writeToString(RVm.V)) << "src: " << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmEquivalence, ::testing::Range(0, 8));

} // namespace
