//===- tests/TieredExecTest.cpp - Profile-guided tiered execution ---------===//
//
// The tiered-execution contract:
//   - results are identical across TierMode Off/Auto/Always, including
//     closures calling each other across the tier boundary in tail and
//     non-tail positions;
//   - *counter fidelity*: an instrumented run produces byte-identical
//     stored profiles whatever tier executed the code — tiered bytecode
//     bumps the exact same source counters as the tree-walking
//     interpreter, also when a raise, guard trip or allocation fault
//     leaves a tiered block early, and under a 4-worker pool merge;
//   - phase-1 (macro transformer) code never tiers, and runtime closures
//     whose bodies contain phase-1-only nodes (syntax-case) fall back to
//     the interpreter permanently instead of erroring;
//   - Auto mode respects the invocation threshold, and a loaded profile
//     pre-marks hot closures so they tier on first invocation;
//   - each lambda tier-compiles at most once, however often the hot set
//     shifts between closures.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/EnginePool.h"
#include "interp/Expr.h"
#include "profile/ShardedCounterStore.h"
#include "support/AtomicFile.h"
#include "support/FaultInjector.h"
#include "syntax/Heap.h"
#include "vm/Bytecode.h"

using namespace pgmp;
using namespace pgmp::testutil;

namespace {

std::string slurp(const std::string &Path) {
  std::string Out, Err;
  EXPECT_EQ(readFileAll(Path, Out, Err), FileReadStatus::Ok) << Err;
  return Out;
}

EngineOptions withTier(TierMode Mode, uint32_t Threshold = 64,
                       bool Instrument = false, bool Stats = false) {
  EngineOptions Opts;
  Opts.Tier.Mode = Mode;
  Opts.Tier.Threshold = Threshold;
  Opts.Instrument = Instrument;
  Opts.StatsEnabled = Stats;
  return Opts;
}

// Closures that call each other across the tier boundary: `hot` crosses
// any threshold and tiers; `rare` is called once and (in Auto) stays
// interpreted; calls occur in tail position (loop), non-tail position
// (poly, rare), and through a higher-order apply (map from the prelude).
const char *InteropProgram =
    "(define (poly x) (+ (* 3 x x) (* -2 x) 7))\n"
    "(define (hot n)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i n) acc (loop (+ i 1) (+ acc (poly i))))))\n"
    "(define (rare f n) (+ 1 (f n)))\n"
    "(define (weird n) (if (> n 100) (hot n) (rare hot n)))\n";
const char *InteropName = "interop.scm";
const char *InteropWorkload =
    "(list (hot 200) (weird 50) (weird 150) (map poly '(1 2 3)))";

std::string runTiered(TierMode Mode, uint32_t Threshold = 64) {
  Engine E(withTier(Mode, Threshold));
  EXPECT_TRUE(E.evalString(InteropProgram, InteropName).Ok);
  return evalOk(E, InteropWorkload);
}

TEST(TieredExec, ResultsIdenticalAcrossTierModes) {
  std::string Off = runTiered(TierMode::Off);
  EXPECT_EQ(Off, runTiered(TierMode::Always));
  EXPECT_EQ(Off, runTiered(TierMode::Auto));
  // A threshold of 1 tiers everything on its second call; mid-loop
  // tier-up must not disturb in-flight iterations.
  EXPECT_EQ(Off, runTiered(TierMode::Auto, 1));
}

TEST(TieredExec, AutoTiersAfterThresholdOnly) {
  Engine E(withTier(TierMode::Auto, /*Threshold=*/5, /*Instrument=*/false,
                    /*Stats=*/true));
  ASSERT_TRUE(E.evalString("(define (f x) (* x x))", "f.scm").Ok);
  for (int I = 0; I < 4; ++I)
    evalOk(E, "(f 3)");
  EXPECT_EQ(E.stats().count(Stat::TierUps), 0u)
      << "4 calls must stay under a threshold of 5";
  evalOk(E, "(f 3)");
  EXPECT_EQ(E.stats().count(Stat::TierUps), 1u)
      << "the 5th call crosses the threshold";
  EXPECT_EQ(evalOk(E, "(f 7)"), "49") << "tiered body must agree";
  EXPECT_EQ(E.stats().count(Stat::TierUps), 1u) << "compiled exactly once";
}

TEST(TieredExec, AlwaysTiersOnFirstCall) {
  Engine E(withTier(TierMode::Always, 64, false, /*Stats=*/true));
  ASSERT_TRUE(E.evalString("(define (g x) (+ x 1))", "g.scm").Ok);
  EXPECT_EQ(evalOk(E, "(g 41)"), "42");
  EXPECT_GE(E.stats().count(Stat::TierUps), 1u);
}

TEST(TieredExec, SelfTailRecursionStaysFlat) {
  // A deep tiered tail loop must run in constant C++ stack: the VM
  // rebinds the invocation in place even when the callee enters as an
  // interpreter closure that tiers mid-loop.
  Engine E(withTier(TierMode::Auto, 8));
  ASSERT_TRUE(
      E.evalString("(define (count n) (if (zero? n) 'done (count (- n 1))))",
                   "count.scm")
          .Ok);
  EXPECT_EQ(evalOk(E, "(count 2000000)"), "done");
}

TEST(TieredExec, SyntaxCaseBodiesFallBackToInterpreter) {
  // syntax-case in a runtime closure cannot compile to bytecode; the
  // closure must keep running interpreted (TierBlocked), not error.
  Engine E(withTier(TierMode::Always, 64, false, /*Stats=*/true));
  ASSERT_TRUE(E.evalString("(define (probe stx)\n"
                           "  (syntax-case stx () [(a b) #'b]))",
                           "probe.scm")
                  .Ok);
  EXPECT_EQ(evalOk(E, "(syntax->datum (probe #'(1 2)))"), "2");
  EXPECT_EQ(evalOk(E, "(syntax->datum (probe #'(3 4)))"), "4");
  EXPECT_GE(E.stats().count(Stat::TierCompileFails), 1u);
  EXPECT_EQ(E.stats().count(Stat::TierUps), 0u);
}

TEST(TieredExec, MacroTransformersNeverTier) {
  // Phase-1 code: the transformer (and helpers it calls) runs under the
  // PhaseOneDepth guard, so even TierMode::Always leaves it interpreted.
  Engine E(withTier(TierMode::Always, 64, false, /*Stats=*/true));
  ASSERT_TRUE(E.evalString("(define (twice-helper e) (list '+ e e))\n"
                           "(define-syntax (twice stx)\n"
                           "  (syntax-case stx ()\n"
                           "    [(_ e) (datum->syntax stx\n"
                           "             (twice-helper (syntax->datum #'e)))"
                           "]))",
                           "twice.scm")
                  .Ok);
  uint64_t Before = E.stats().count(Stat::TierUps);
  EXPECT_EQ(evalOk(E, "(twice 21)"), "42");
  EXPECT_EQ(evalOk(E, "(twice 5)"), "10");
  EXPECT_EQ(E.stats().count(Stat::TierUps), Before)
      << "transformer bodies and their helpers must stay interpreted";
}

//===----------------------------------------------------------------------===//
// Counter fidelity
//===----------------------------------------------------------------------===//

std::string storeTieredProfile(TierMode Mode, const std::string &Path,
                               uint32_t Threshold = 64) {
  Engine E(withTier(Mode, Threshold, /*Instrument=*/true));
  EXPECT_TRUE(E.evalString(InteropProgram, InteropName).Ok);
  EXPECT_TRUE(E.evalString(InteropWorkload, "workload.scm").Ok);
  ProfileOpResult St = E.storeProfile(Path);
  EXPECT_TRUE(St) << St.Error;
  return slurp(Path);
}

TEST(TieredExec, InstrumentedProfilesByteIdenticalAcrossTierModes) {
  std::string Off =
      storeTieredProfile(TierMode::Off, tempPath("off.profile"));
  ASSERT_FALSE(Off.empty());
  EXPECT_EQ(Off,
            storeTieredProfile(TierMode::Always, tempPath("always.profile")))
      << "tiered bytecode must bump the same counters as the interpreter";
  EXPECT_EQ(Off, storeTieredProfile(TierMode::Auto, tempPath("auto.profile")));
  // Threshold 1 exercises the worst case: almost everything runs tiered,
  // but the tier-up happens mid-workload (after warm interpreted calls).
  EXPECT_EQ(Off, storeTieredProfile(TierMode::Auto,
                                    tempPath("auto1.profile"), 1));
}

//===----------------------------------------------------------------------===//
// Counter fidelity across unwinds
//
// Tiered code bumps a run of source counters ahead of the nodes that own
// them, and takes back the ones a raise, guard trip or allocation fault
// kept it from reaching. Each request below leaves a tiered block early
// in a different way; the stored profile must still match the
// interpreter's byte for byte, and the engine must go on serving.
//===----------------------------------------------------------------------===//

// `mid` raises inside a mid-block Call (its `let` is a MakeClosure), `ug`
// references an unbound global mid-block with argument nodes after it,
// and `deep` runs out of fuel in a nested call.
const char *UnwindProgram =
    "(define (fails x) (if (> x 3) (vector-ref (vector 1 2) x) x))\n"
    "(define (mid x) (+ (fails x) (* x 2) (let ([y (+ x 1)]) (* y y))))\n"
    "(define (ug x) (if (> x 3) (+ x (not-yet-defined x) 1) x))\n"
    "(define (spin n) (if (= n 0) 0 (spin (- n 1))))\n"
    "(define (deep n) (+ 1 (spin n) (* n 3)))\n"
    "(define (warm n)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i n) acc\n"
    "        (loop (+ i 1) (+ acc (mid 1) (ug 2) (deep 10))))))\n";

// `wide` takes more parameters than a heap chunk holds, so its frame is
// the one allocation of a `calls-wide`/`tail-wide` request that must
// acquire a chunk: an injected alloc fault lands on that frame, after
// the interpreter or the VM has counted the same nodes, from a non-tail
// and from a tail call.
constexpr size_t WideParams = Heap::ChunkBytes / sizeof(Value) + 64;

std::string wideProgram() {
  std::string Params, Args;
  for (size_t I = 0; I < WideParams; ++I) {
    Params += " a";
    Params += std::to_string(I);
    Args += " ";
    Args += std::to_string(I);
  }
  std::string Src = "(define (wide";
  Src += Params;
  Src += ") (+ a0 a1))\n(define (calls-wide x) (+ x (wide";
  Src += Args;
  Src += ") (* x 2)))\n(define (tail-wide x) (begin (* x 2) (wide";
  Src += Args;
  Src += ")))\n";
  return Src;
}

struct UnwindCase {
  const char *Request;
  GuardKind Tripped;
};

const UnwindCase CoreUnwinds[] = {
    {"(mid 10)", GuardKind::None},
    {"(ug 10)", GuardKind::None},
    {"(deep 100000000)", GuardKind::Fuel},
};

EngineOptions unwindOptions(TierMode Mode, uint32_t Threshold) {
  EngineOptions Opts = withTier(Mode, Threshold, /*Instrument=*/true);
  Opts.Fuel = 1000000;
  // Every run starts on an empty nursery, so a run's chunk acquisitions
  // are the same in every tier.
  Opts.Reclaim = ReclaimMode::Boundary;
  return Opts;
}

/// One serving session: warm up (tiering what Mode tiers), then each
/// failing request, each followed by requests that must still succeed.
void serveUnwinds(Engine &E, bool WithAllocFaults) {
  ASSERT_TRUE(E.evalString(UnwindProgram, "unwind.scm").Ok);
  if (WithAllocFaults) {
    ASSERT_TRUE(E.evalString(wideProgram(), "wide.scm").Ok);
  }
  evalOk(E, "(warm 100)");
  if (WithAllocFaults) {
    for (int I = 0; I < 70; ++I)
      evalOk(E, "(list (calls-wide 1) (tail-wide 1))");
  }
  for (const UnwindCase &C : CoreUnwinds) {
    EvalResult R = E.evalString(C.Request);
    EXPECT_FALSE(R.Ok) << C.Request;
    EXPECT_EQ(R.Tripped, C.Tripped) << C.Request << ": " << R.Error;
    EXPECT_EQ(evalOk(E, "(list (mid 2) (ug 3) (deep 5))"), "(15 3 16)");
  }
  if (WithAllocFaults) {
    for (const char *Request : {"(calls-wide 5)", "(tail-wide 5)"}) {
      // The request's first allocation takes a fresh nursery chunk; the
      // second chunk acquisition is the wide frame.
      faultinject::arm(faultinject::Point::Alloc, 1);
      EvalResult R = E.evalString(Request);
      faultinject::disarm();
      EXPECT_FALSE(R.Ok) << Request;
      EXPECT_EQ(R.Tripped, GuardKind::Heap) << Request << ": " << R.Error;
      EXPECT_NE(R.Error.find("injected allocation failure (chunk of " +
                             std::to_string(sizeof(EnvObj) +
                                            WideParams * sizeof(Value))),
                std::string::npos)
          << Request << ": " << R.Error;
      EXPECT_EQ(evalOk(E, "(list (calls-wide 1) (tail-wide 1))"), "(4 1)");
    }
  }
  evalOk(E, "(warm 3)");
}

std::string storeUnwindProfile(TierMode Mode, uint32_t Threshold,
                               const std::string &Path) {
  Engine E(unwindOptions(Mode, Threshold));
  serveUnwinds(E, /*WithAllocFaults=*/true);
  ProfileOpResult St = E.storeProfile(Path);
  EXPECT_TRUE(St) << St.Error;
  return slurp(Path);
}

TEST(TieredExec, ProfilesByteIdenticalWhenTieredBlocksUnwind) {
  std::string Off =
      storeUnwindProfile(TierMode::Off, 64, tempPath("off.profile"));
  ASSERT_FALSE(Off.empty());
  EXPECT_EQ(Off, storeUnwindProfile(TierMode::Auto, 64,
                                    tempPath("auto.profile")));
  EXPECT_EQ(Off, storeUnwindProfile(TierMode::Auto, 1,
                                    tempPath("auto1.profile")));
  EXPECT_EQ(Off, storeUnwindProfile(TierMode::Always, 64,
                                    tempPath("always.profile")));
}

TEST(TieredExec, PoolMergeAfterUnwindsMatchesSequentialInterpreter) {
  // The fault injector is process-wide, so an armed alloc fault would
  // fire in whichever worker next acquires a chunk; the pool runs the
  // raise, unbound-global and fuel unwinds.
  constexpr size_t Jobs = 4;
  std::string Par = tempPath("par.profile");
  std::string Seq = tempPath("seq.profile");
  {
    EnginePool Pool(Jobs, unwindOptions(TierMode::Auto, 1));
    EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
      serveUnwinds(E, /*WithAllocFaults=*/false);
      return E.evalString("(warm 2)");
    });
    ASSERT_TRUE(R.Ok) << R.Error;
    ProfileOpResult St = Pool.storeMergedProfile(Par);
    ASSERT_TRUE(St) << St.Error;
    EXPECT_EQ(St.DatasetsMerged, Jobs);
  }
  {
    Engine E(unwindOptions(TierMode::Off, 64));
    for (size_t I = 0; I < Jobs; ++I) {
      serveUnwinds(E, /*WithAllocFaults=*/false);
      ASSERT_TRUE(E.evalString("(warm 2)").Ok);
      E.foldCountersIntoProfile();
    }
    ProfileOpResult St = E.storeProfile(Seq);
    ASSERT_TRUE(St) << St.Error;
  }
  std::string A = slurp(Par), B = slurp(Seq);
  EXPECT_FALSE(A.empty());
  EXPECT_EQ(A, B) << "tiered workers that unwind must merge to the "
                     "sequential interpreter's profile";
}

TEST(TieredExec, CallsThatReadCountersSeeTheInterpretersCounts) {
  // store-profile called from the middle of a tiered block: the file it
  // writes holds exactly the nodes reached so far, and the nodes after
  // the call count toward the next fold, as in the interpreter.
  // One path for every mode: it is part of the program's source text.
  auto Run = [](TierMode Mode) {
    std::string Mid = tempPath("mid.profile"), End = tempPath("end.profile");
    Engine E(withTier(Mode, 64, /*Instrument=*/true));
    std::string Prog = "(define (snap p) (begin (* 1 2) (store-profile p) "
                       "(* 3 4) (list 5 6)))\n"
                       "(define (go n) (if (= n 0) 0 (begin (snap \"" +
                       Mid + "\") (go (- n 1)))))\n";
    EXPECT_TRUE(E.evalString(Prog, "snap.scm").Ok);
    evalOk(E, "(go 80)");
    EXPECT_TRUE(E.storeProfile(End));
    return slurp(Mid) + slurp(End);
  };
  std::string Off = Run(TierMode::Off);
  ASSERT_FALSE(Off.empty());
  EXPECT_EQ(Off, Run(TierMode::Always));
  EXPECT_EQ(Off, Run(TierMode::Auto));
}

//===----------------------------------------------------------------------===//
// Profile-guided pre-tiering
//===----------------------------------------------------------------------===//

TEST(TieredExec, LoadedProfilePremarksHotClosures) {
  std::string Path = tempPath("hot.profile");
  {
    Engine E(withInstrumentation());
    ASSERT_TRUE(E.evalString(InteropProgram, InteropName).Ok);
    ASSERT_TRUE(E.evalString(InteropWorkload, "workload.scm").Ok);
    ProfileOpResult St = E.storeProfile(Path);
    ASSERT_TRUE(St) << St.Error;
  }
  EngineOptions Opts = withTier(TierMode::Auto, /*Threshold=*/1000000,
                                /*Instrument=*/false, /*Stats=*/true);
  Engine E(Opts);
  ProfileOpResult Ld = E.loadProfile(Path);
  ASSERT_TRUE(Ld) << Ld.Error;
  ASSERT_TRUE(E.evalString(InteropProgram, InteropName).Ok);
  EXPECT_GE(E.stats().count(Stat::TierPremarkedHot), 1u)
      << "the hot loop body should cross the default weight threshold";
  // The threshold is unreachable, so any tier-up proves pre-marking.
  ASSERT_TRUE(E.evalString(InteropWorkload, "workload.scm").Ok);
  EXPECT_GE(E.stats().count(Stat::TierUps), 1u)
      << "pre-marked closures tier on first invocation";
}

TEST(TieredExec, SkewFlipTierCompilesEachLambdaOnce) {
  // The serve-skewflip shape in one engine: the hot closure flips from
  // work-a to work-b, then does so again.
  Engine E(withTier(TierMode::Auto, 64, /*Instrument=*/true, /*Stats=*/true));
  ASSERT_TRUE(
      E.evalString("(define (work-a n) (if (= n 0) 0 (+ 1 (work-a (- n 1)))))\n"
                   "(define (work-b n) (if (= n 0) 0 (+ 2 (work-b (- n 1)))))",
                   "work.scm")
          .Ok);
  auto Flip = [&E] {
    for (int I = 0; I < 50; ++I)
      evalOk(E, "(work-a 200)");
    for (int I = 0; I < 50; ++I)
      evalOk(E, "(work-b 200)");
  };
  Flip();
  // The program's only lambdas are work-a and work-b. Every tier-up is
  // still held by one of them: no lambda compiled twice. Tier-up bodies
  // carry source counters only, never block counters.
  uint64_t Held = 0;
  for (const char *Name : {"work-a", "work-b"}) {
    Context &Ctx = E.context();
    Value V = *Ctx.globalCell(Ctx.Symbols.intern(Name));
    ASSERT_TRUE(V.isClosure()) << Name;
    const VmFunction *Fn = V.asClosure()->Template->Tiered;
    if (!Fn)
      continue;
    ++Held;
    std::string Code = disassemble(*Fn);
    EXPECT_EQ(Code.find("    profile "), std::string::npos) << Code;
  }
  EXPECT_EQ(Held, 2u) << "work-a and work-b both cross the threshold";
  EXPECT_EQ(E.stats().count(Stat::TierUps), Held);
  Flip();
  EXPECT_EQ(E.stats().count(Stat::TierUps), Held)
      << "a second flip must reuse the compiled bodies";
}

TEST(TieredExec, TierCompileTimeIsMeasured) {
  Engine E(withTier(TierMode::Always, 64, false, /*Stats=*/true));
  ASSERT_TRUE(E.evalString("(define (h x) (- x 1))", "h.scm").Ok);
  evalOk(E, "(h 1)");
  EXPECT_GE(E.stats().phaseEntries(Phase::TierCompile), 1u);
}

} // namespace
