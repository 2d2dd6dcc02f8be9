//===- tests/TieredExecTest.cpp - Profile-guided tiered execution ---------===//
//
// The tiered-execution contract:
//   - results are identical across TierMode Off/Auto/Always, including
//     closures calling each other across the tier boundary in tail and
//     non-tail positions;
//   - *counter fidelity*: an instrumented run produces byte-identical
//     stored profiles whatever tier executed the code — tiered bytecode
//     bumps the exact same source counters in the same order as the
//     tree-walking interpreter;
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

#include "interp/Expr.h"
#include "profile/ShardedCounterStore.h"
#include "support/AtomicFile.h"
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
