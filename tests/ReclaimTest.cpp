//===- tests/ReclaimTest.cpp - Boundary reclamation, engine level ---------===//
//
// The generational reclamation contract seen from the Engine API:
// run-boundary collection keeps long sessions in bounded memory; globals,
// macros (retained syntax and transformers), tier state, and the returned
// result all survive forwarding; source-counter profiles are byte-
// identical with reclamation on and off, sequentially and across an
// 8-worker pool; every store site calls the generational write barrier;
// and a minor collection's scan cost does not grow with the tenured heap.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/EnginePool.h"
#include "support/AtomicFile.h"

#include <gtest/gtest.h>

#include <string>

using namespace pgmp;
using namespace pgmp::testutil;

namespace {

EngineOptions withReclaim(EngineOptions Opts = {}) {
  Opts.Reclaim = ReclaimMode::Boundary;
  return Opts;
}

// A request-shaped churn unit: allocates a few thousand pairs, keeps none.
const char *ChurnDef =
    "(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))"
    "(define (churn) (length (build 2000 '())))";

TEST(Reclaim, LongSessionRunsInBoundedMemory) {
  Engine E(withReclaim());
  evalOk(E, ChurnDef);
  // Warm up a few boundaries, then record the plateau: hundreds more
  // run-boundary reclamations must not grow the live set or the reserved
  // footprint — the bounded-memory contract a serve loop relies on.
  for (int I = 0; I < 10; ++I)
    evalOk(E, "(churn)");
  uint64_t LivePlateau = E.context().TheHeap.bytesLive();
  uint64_t ReservedPlateau = E.context().TheHeap.bytesReserved();
  for (int I = 0; I < 300; ++I)
    EXPECT_EQ(evalOk(E, "(churn)"), "2000");
  EXPECT_LE(E.context().TheHeap.bytesLive(), LivePlateau + 64 * 1024)
      << "live bytes must plateau, not creep";
  EXPECT_LE(E.context().TheHeap.bytesReserved(), 2 * ReservedPlateau)
      << "reserved chunks must be recycled, not accumulated";
  EXPECT_GE(E.context().TheHeap.allocStats().Collections, 300u);
}

TEST(Reclaim, RequestUnitsAreTransientAndTheCodeTableStaysBounded) {
  Engine E(withReclaim());
  evalOk(E, ChurnDef);
  // Request-shaped units (no lambdas, no syntax-rules) must be dropped at
  // the run boundary: a serve loop compiles one per request, and adopting
  // them for the session would grow host memory linearly in the request
  // count even though the arena itself plateaus.
  size_t Baseline = E.context().numCodeUnits();
  for (int I = 0; I < 200; ++I)
    EXPECT_EQ(evalOk(E, "(churn)"), "2000");
  EXPECT_EQ(E.context().numCodeUnits(), Baseline)
      << "self-contained request units must not accumulate";
  // A request that defines a lambda is retained — the published closure
  // must keep working across later boundaries.
  evalOk(E, "(define (bump x) (+ x 1))");
  EXPECT_GT(E.context().numCodeUnits(), Baseline);
  for (int I = 0; I < 5; ++I)
    evalOk(E, "(churn)");
  EXPECT_EQ(evalOk(E, "(bump 41)"), "42");
}

TEST(Reclaim, ConstantsEscapingATransientUnitSurviveItsRelease) {
  Engine E(withReclaim());
  evalOk(E, "(define keep '())");
  // The quoted list is a constant owned by a self-contained unit that the
  // engine drops at the boundary; the value escaped into a global, so the
  // root walk (not the unit's constant pool) must keep it alive and
  // forward it through later evacuations.
  evalOk(E, "(set! keep '(10 20 30))");
  evalOk(E, ChurnDef);
  for (int I = 0; I < 20; ++I)
    evalOk(E, "(churn)");
  EXPECT_EQ(evalOk(E, "keep"), "(10 20 30)");
  EXPECT_EQ(evalOk(E, "(car keep)"), "10");
}

TEST(Reclaim, GlobalsAndResultsSurviveForwarding) {
  Engine E(withReclaim());
  evalOk(E, ChurnDef);
  evalOk(E, "(define keep (build 100 '()))");
  // Many boundaries (each one a collection) between the write and the
  // reads: the global's whole list is forwarded every time.
  for (int I = 0; I < 20; ++I)
    evalOk(E, "(churn)");
  EXPECT_EQ(evalOk(E, "(length keep)"), "100");
  EXPECT_EQ(evalOk(E, "(car keep)"), "1");
  EXPECT_EQ(evalOk(E, "(list-tail keep 99)"), "(100)");
  // The value returned across the boundary is itself forwarded: the
  // EvalResult holds a live list, not a dangling nursery pointer.
  EXPECT_EQ(evalOk(E, "(build 3 '())"), "(1 2 3)");
}

TEST(Reclaim, MacrosAndTransformersSurviveCollection) {
  Engine E(withReclaim());
  evalOk(E, ChurnDef);
  // The transformer closure and its retained syntax objects live in the
  // Meanings table — roots across every boundary.
  evalOk(E, "(define-syntax swap!"
            "  (syntax-rules ()"
            "    ((_ a b) (let ((tmp a)) (set! a b) (set! b tmp)))))");
  for (int I = 0; I < 20; ++I)
    evalOk(E, "(churn)");
  evalOk(E, "(define x 1) (define y 2) (swap! x y)");
  EXPECT_EQ(evalOk(E, "(list x y)"), "(2 1)");
  // A macro defined *and used* with collections in between still expands
  // hygienically (its scope sets were forwarded intact).
  evalOk(E, "(define-syntax my-or"
            "  (syntax-rules ()"
            "    ((_) #f)"
            "    ((_ e) e)"
            "    ((_ e r ...) (let ((t e)) (if t t (my-or r ...))))))");
  for (int I = 0; I < 10; ++I)
    evalOk(E, "(churn)");
  EXPECT_EQ(evalOk(E, "(let ((t 'outer)) (my-or #f t))"), "outer");
}

TEST(Reclaim, CallGlobalForwardsArgumentsAndResult) {
  Engine E(withReclaim());
  evalOk(E, ChurnDef);
  evalOk(E, "(define (twice x) (cons x x))");
  EvalResult R = E.callGlobal("twice", {Value::fixnum(7)});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.V.asPair()->Car.asFixnum(), 7);
  EXPECT_EQ(R.V.asPair()->Cdr.asFixnum(), 7);
}

TEST(Reclaim, VmClosuresRelocateUnderTierAlways) {
  // Tier-always routes every call through the VM: frames, rest-args, and
  // VmClosure captures all take the VM allocation sites, and VmClosure —
  // the one external kind — relocates through the registered hooks.
  EngineOptions Opts = withReclaim();
  Opts.Tier.Mode = TierMode::Always;
  Engine E(Opts);
  evalOk(E, ChurnDef);
  evalOk(E, "(define (adder n) (lambda (x) (+ x n)))");
  evalOk(E, "(define add5 (adder 5))");
  for (int I = 0; I < 20; ++I)
    evalOk(E, "(churn)");
  EXPECT_EQ(evalOk(E, "(add5 37)"), "42");
  EXPECT_EQ(evalOk(E, "((adder 1) 2)"), "3");
  // Site attribution reached the VM paths.
  const auto &Sites = E.context().TheHeap.siteStats();
  EXPECT_GT(Sites[static_cast<size_t>(AllocSite::VmFrame)].Objects, 0u);
  EXPECT_GT(Sites[static_cast<size_t>(AllocSite::VmClosure)].Objects, 0u);
}

TEST(Reclaim, ReclaimStatsAreRecorded) {
  Engine E(withReclaim(withStats()));
  evalOk(E, ChurnDef);
  for (int I = 0; I < 5; ++I)
    evalOk(E, "(churn)");
  EXPECT_GE(E.stats().count(Stat::Reclaims), 5u);
  const Heap::AllocStats &A = E.context().TheHeap.allocStats();
  EXPECT_GE(A.Collections, 5u);
  EXPECT_GT(A.BytesReclaimed, 0u);
  EXPECT_EQ(A.ReclaimAborts, 0u);
  // The live/cumulative split: cumulative only grows; live stays small.
  EXPECT_GT(A.BytesAllocated, E.context().TheHeap.bytesLive());
  std::vector<std::pair<std::string, uint64_t>> Rows;
  E.context().TheHeap.appendStats(Rows);
  bool SawLive = false, SawNursery = false, SawTenured = false,
       SawEvac = false;
  for (const auto &[Name, V] : Rows) {
    SawLive |= Name == "heap-bytes-live";
    SawNursery |= Name == "heap-bytes-nursery";
    SawTenured |= Name == "heap-bytes-tenured";
    SawEvac |= Name == "heap-bytes-evacuated";
  }
  EXPECT_TRUE(SawLive && SawNursery && SawTenured && SawEvac);
}

//===----------------------------------------------------------------------===//
// Profile fidelity: reclamation must be invisible to stored profiles
//===----------------------------------------------------------------------===//

// An instrumented workload with distinct hot and cold paths.
const char *ProfiledWorkload =
    "(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))"
    "(define (hot n) (if (zero? n) 'done (hot (- n 1))))"
    "(define (cold) (length (build 50 '())))"
    "(hot 500)"
    "(cold)"
    "(hot 300)";

std::string runAndStore(ReclaimMode Mode, const std::string &Path) {
  EngineOptions Opts = withInstrumentation();
  Opts.Reclaim = Mode;
  Engine E(Opts);
  // Several boundaries so reclamation actually runs between increments.
  evalOk(E, ProfiledWorkload);
  evalOk(E, "(hot 100)");
  evalOk(E, "(cold)");
  ProfileOpResult S = E.storeProfile(Path);
  EXPECT_TRUE(S) << S.Error;
  std::string Bytes, Err;
  EXPECT_EQ(readFileAll(Path, Bytes, Err), FileReadStatus::Ok) << Err;
  return Bytes;
}

TEST(Reclaim, StoredProfilesAreByteIdenticalWithReclamationOnAndOff) {
  std::string Off = runAndStore(ReclaimMode::Off, tempPath("off.profile"));
  std::string On = runAndStore(ReclaimMode::Boundary, tempPath("on.profile"));
  ASSERT_FALSE(Off.empty());
  EXPECT_EQ(Off, On)
      << "reclamation must be invisible to the stored source profile";
}

std::string runPoolAndStore(ReclaimMode Mode, const std::string &Path) {
  EngineOptions Opts = withInstrumentation();
  Opts.Reclaim = Mode;
  EnginePool Pool(8, Opts);
  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
    EvalResult Last = E.evalString(ProfiledWorkload);
    if (!Last.Ok)
      return Last;
    Last = E.evalString("(hot 100)");
    if (!Last.Ok)
      return Last;
    return E.evalString("(cold)");
  });
  EXPECT_TRUE(R.Ok) << R.Error;
  ProfileOpResult S = Pool.storeMergedProfile(Path);
  EXPECT_TRUE(S) << S.Error;
  std::string Bytes, Err;
  EXPECT_EQ(readFileAll(Path, Bytes, Err), FileReadStatus::Ok) << Err;
  return Bytes;
}

TEST(ReclaimPool, MergedProfilesAreByteIdenticalWithReclamationOnAndOff) {
  std::string Off =
      runPoolAndStore(ReclaimMode::Off, tempPath("pool_off.profile"));
  std::string On =
      runPoolAndStore(ReclaimMode::Boundary, tempPath("pool_on.profile"));
  ASSERT_FALSE(Off.empty());
  EXPECT_EQ(Off, On) << "8-worker merge must be byte-identical too";
}

TEST(ReclaimPool, MergedSiteStatsFoldWorkersIndexWise) {
  EngineOptions Opts = withReclaim();
  EnginePool Pool(4, Opts);
  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
    EvalResult Last = E.evalString(ChurnDef);
    if (!Last.Ok)
      return Last;
    return E.evalString("(churn)");
  });
  ASSERT_TRUE(R.Ok) << R.Error;
  std::array<AllocSiteStats, NumAllocSites> Merged = Pool.mergedSiteStats();
  // The merge is an index-wise sum of the workers' profiles.
  for (size_t I = 0; I < NumAllocSites; ++I) {
    uint64_t Objects = 0, Bytes = 0;
    for (size_t W = 0; W < Pool.size(); ++W) {
      const auto &S = Pool.engine(W).context().TheHeap.siteStats()[I];
      Objects += S.Objects;
      Bytes += S.Bytes;
    }
    EXPECT_EQ(Merged[I].Objects, Objects) << allocSiteName(static_cast<AllocSite>(I));
    EXPECT_EQ(Merged[I].Bytes, Bytes);
  }
  EXPECT_GT(Merged[static_cast<size_t>(AllocSite::InterpFrame)].Objects, 0u);
}

//===----------------------------------------------------------------------===//
// The write barrier: one test per store site
//===----------------------------------------------------------------------===//

// Request 1 defines a global structure, which tenures at its boundary.
// Request 2 stores a freshly allocated list or string into it through
// the site under test. Only the barrier tells the next minor collection
// that the tenured structure now points into the nursery; without it the
// new value is freed with the nursery, and the read-back after a few
// churn requests dereferences a dead chunk (ASan reports it; tier1.sh
// runs this suite under the asan preset).
void expectStoreSurvives(EngineOptions Opts, const std::string &Define,
                         const std::string &Store,
                         const std::string &ReadBack,
                         const std::string &Expected) {
  Engine E(withReclaim(Opts));
  evalOk(E, ChurnDef);
  evalOk(E, Define);
  evalOk(E, Store);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(evalOk(E, "(churn)"), "2000");
  EXPECT_EQ(evalOk(E, ReadBack), Expected);
}

TEST(ReclaimBarrier, SetCar) {
  expectStoreSurvives({}, "(define p (cons 0 0))",
                      "(set-car! p (build 3 '()))", "(car p)", "(1 2 3)");
}

TEST(ReclaimBarrier, SetCdr) {
  expectStoreSurvives({}, "(define p (cons 0 0))",
                      "(set-cdr! p (string-append \"ab\" \"cd\"))",
                      "(cdr p)", "\"abcd\"");
}

TEST(ReclaimBarrier, SetBox) {
  expectStoreSurvives({}, "(define b (box 0))", "(set-box! b (build 3 '()))",
                      "(unbox b)", "(1 2 3)");
}

TEST(ReclaimBarrier, VectorSet) {
  expectStoreSurvives({}, "(define v (make-vector 4 #f))",
                      "(vector-set! v 2 (build 3 '()))", "(vector-ref v 2)",
                      "(1 2 3)");
}

TEST(ReclaimBarrier, VectorFill) {
  expectStoreSurvives({}, "(define v (make-vector 2 #f))",
                      "(vector-fill! v (string-append \"ab\" \"cd\"))", "v",
                      "#(\"abcd\" \"abcd\")");
}

TEST(ReclaimBarrier, HashtableSet) {
  expectStoreSurvives({}, "(define h (make-eqv-hashtable))",
                      "(hashtable-set! h 7 (build 3 '()))",
                      "(hashtable-ref h 7 #f)", "(1 2 3)");
}

TEST(ReclaimBarrier, HashtableUpdate) {
  expectStoreSurvives(
      {}, "(define h (make-eqv-hashtable)) (hashtable-set! h 7 0)",
      "(hashtable-update! h 7 (lambda (old) (build 3 '())) #f)",
      "(hashtable-ref h 7 #f)", "(1 2 3)");
}

// set! on a captured variable stores into the defining frame, which
// tenured with the closures: the interpreter's SetLocal under tier off,
// the VM's SetLocal through the frame chain under tier always.
const char *CapturedCell =
    "(define cell (let ([x #f]) (cons (lambda (v) (set! x v)) "
    "(lambda () x))))";

TEST(ReclaimBarrier, SetCapturedLocalInterpreted) {
  EngineOptions Opts;
  Opts.Tier.Mode = TierMode::Off;
  expectStoreSurvives(Opts, CapturedCell, "((car cell) (build 3 '()))",
                      "((cdr cell))", "(1 2 3)");
}

TEST(ReclaimBarrier, SetCapturedLocalTiered) {
  EngineOptions Opts;
  Opts.Tier.Mode = TierMode::Always;
  expectStoreSurvives(Opts, CapturedCell, "((car cell) (build 3 '()))",
                      "((cdr cell))", "(1 2 3)");
}

TEST(Reclaim, MinorScanCostIsFlatInTheTenuredLiveSet) {
  // A minor collection visits roots, remembered objects and nursery
  // survivors, never the old generation behind them: the same request
  // costs the same scan whether 2,000 or 20,000 tenured pairs are live.
  Engine E(withReclaim());
  evalOk(E, ChurnDef);
  evalOk(E, "(define keep '())");
  const Heap &H = E.context().TheHeap;
  auto MinorScan = [&](int LiveSet) {
    evalOk(E, "(define live (build " + std::to_string(LiveSet) + " '()))");
    EXPECT_TRUE(E.context().reclaimAtBoundary(/*ForceMajor=*/true));
    const std::string Request = "(begin (set! keep (build 100 '())) (churn))";
    for (int I = 0; I < 3; ++I)
      evalOk(E, Request); // warm: tier-ups and code retention settle
    uint64_t Scanned = H.allocStats().ObjectsScanned;
    uint64_t Majors = H.allocStats().MajorCollections;
    EXPECT_EQ(evalOk(E, Request), "2000");
    EXPECT_EQ(H.allocStats().MajorCollections, Majors)
        << "the request's boundary collection must be a minor one";
    EXPECT_EQ(evalOk(E, "(length live)"), std::to_string(LiveSet));
    return H.allocStats().ObjectsScanned - Scanned;
  };
  uint64_t Small = MinorScan(2000);
  uint64_t Large = MinorScan(20000);
  EXPECT_GE(Small, 100u) << "the kept list's pairs are scanned survivors";
  EXPECT_EQ(Small, Large);
}

} // namespace
