//===- tests/FaultInjectionTest.cpp - Fault-injection harness -------------===//
//
// The faultinject contract: a named fault point armed at any phase
// boundary (read / expand / compile / tier-compile / profile store and
// load) or at arena chunk acquisition fires exactly once, the failure is
// contained to the operation that hit it, and the engine — including its
// profile state — remains fully usable. The matrix test walks every
// point; tier1.sh runs this suite under ASan so "contained" also means
// "unwound without leaks".
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/FaultInjector.h"

using namespace pgmp;
using namespace pgmp::testutil;
using namespace pgmp::faultinject;

namespace {

// Enough pair allocations to force at least one fresh arena chunk.
const char *BigAlloc =
    "(define (mk n acc) (if (zero? n) acc (mk (- n 1) (cons n acc))))"
    "(mk 200000 '())";

/// The injector is process-global; every test leaves it disarmed, and
/// starts from a clean slate even after a failed predecessor.
class FaultInjection : public ::testing::Test {
protected:
  void SetUp() override { disarm(); }
  void TearDown() override { disarm(); }
};

//===----------------------------------------------------------------------===//
// Arming semantics
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, ArmFireDisarmLifecycle) {
  EXPECT_FALSE(armed());
  arm(Point::Read);
  EXPECT_TRUE(armed());
  EXPECT_FALSE(shouldFail(Point::Expand)) << "wrong point must not consume";
  EXPECT_TRUE(armed());
  EXPECT_TRUE(shouldFail(Point::Read));
  EXPECT_FALSE(armed()) << "firing disarms";
  EXPECT_FALSE(shouldFail(Point::Read)) << "one-shot: never fires twice";
}

TEST_F(FaultInjection, SkipCountDelaysTheFiringHit) {
  arm(Point::Compile, 2);
  EXPECT_FALSE(shouldFail(Point::Compile));
  EXPECT_FALSE(shouldFail(Point::Compile));
  EXPECT_TRUE(shouldFail(Point::Compile)) << "the (skip+1)-th hit fires";
  EXPECT_FALSE(shouldFail(Point::Compile));
}

TEST_F(FaultInjection, ReArmingOverwritesThePendingFault) {
  arm(Point::Read, 5);
  arm(Point::Expand);
  EXPECT_FALSE(shouldFail(Point::Read));
  EXPECT_TRUE(shouldFail(Point::Expand));
}

TEST_F(FaultInjection, PointNamesRoundTripThroughTheParser) {
  for (size_t I = 1; I < NumPoints; ++I) {
    Point P = static_cast<Point>(I);
    EXPECT_EQ(parsePoint(pointName(P)), P) << pointName(P);
  }
  EXPECT_EQ(parsePoint("none"), Point::None);
  EXPECT_EQ(parsePoint("no-such-point"), Point::None);
}

//===----------------------------------------------------------------------===//
// Per-point recovery
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, PipelinePhaseFaultsAreContainedAndNamed) {
  for (Point P : {Point::Read, Point::Expand, Point::Compile}) {
    Engine E;
    arm(P);
    EvalResult R = E.evalString("(+ 1 2)");
    EXPECT_FALSE(R.Ok) << pointName(P);
    EXPECT_NE(R.Error.find("injected fault"), std::string::npos) << R.Error;
    EXPECT_NE(R.Error.find(pointName(P)), std::string::npos) << R.Error;
    EXPECT_EQ(R.Tripped, GuardKind::None)
        << "an injected phase fault is an error, not a guard trip";
    EXPECT_FALSE(armed());
    EXPECT_EQ(evalOk(E, "(+ 1 2)"), "3") << pointName(P);
  }
}

TEST_F(FaultInjection, AllocFaultIsAnOutOfMemoryDressRehearsal) {
  Engine E;
  arm(Point::Alloc);
  EvalResult R = E.evalString(BigAlloc, "alloc.scm");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Tripped, GuardKind::Heap)
      << "a failed chunk acquisition surfaces as the heap guard";
  EXPECT_FALSE(armed());
  EXPECT_EQ(evalOk(E, "(+ 20 22)"), "42");
}

TEST_F(FaultInjection, TierCompileFaultDegradesToTheInterpreter) {
  // A tier-up that fails keeps the closure interpreted: the run still
  // completes, which is the recovery path this phase really has.
  EngineOptions Opts;
  Opts.Tier.Mode = TierMode::Auto;
  Opts.Tier.Threshold = 4;
  Engine E(Opts);
  evalOk(E, "(define (hot n) (if (zero? n) 'done (hot (- n 1))))");
  arm(Point::TierCompile);
  EXPECT_EQ(evalOk(E, "(hot 50)"), "done");
  EXPECT_FALSE(armed()) << "the tier-up attempt must have consumed it";
  EXPECT_EQ(evalOk(E, "(hot 50)"), "done");
}

TEST_F(FaultInjection, ProfileStoreFaultPreservesCounters) {
  Engine E(withInstrumentation());
  evalOk(E, "(define (hot n) (if (zero? n) 'done (hot (- n 1))))");
  evalOk(E, "(hot 50)");
  uint64_t Before = E.context().Counters.totalIncrements();
  ASSERT_GT(Before, 0u);
  std::string Path = tempPath("store.profile");
  arm(Point::ProfileStore);
  ProfileOpResult S = E.storeProfile(Path);
  EXPECT_FALSE(S);
  EXPECT_NE(S.Error.find("injected fault"), std::string::npos) << S.Error;
  EXPECT_EQ(E.context().Counters.totalIncrements(), Before)
      << "a failed store must not destroy the data it failed to persist";
  EXPECT_EQ(E.snapshot().datasets(), 0u) << "nothing committed on failure";
  // Retrying the identical call now succeeds and commits the fold.
  ProfileOpResult S2 = E.storeProfile(Path);
  ASSERT_TRUE(S2) << S2.Error;
  EXPECT_EQ(E.snapshot().datasets(), 1u);
}

TEST_F(FaultInjection, ProfileLoadFaultLeavesEngineCleanForRetry) {
  std::string Path = tempPath("train.profile");
  {
    Engine Trainer(withInstrumentation());
    evalOk(Trainer, "(define (hot n) (if (zero? n) 'done (hot (- n 1))))");
    evalOk(Trainer, "(hot 50)");
    ProfileOpResult S = Trainer.storeProfile(Path);
    ASSERT_TRUE(S) << S.Error;
  }
  Engine E;
  arm(Point::ProfileLoad);
  ProfileOpResult L = E.loadProfile(Path);
  EXPECT_FALSE(L);
  EXPECT_NE(L.Error.find("injected fault"), std::string::npos) << L.Error;
  EXPECT_EQ(E.snapshot().datasets(), 0u);
  ProfileOpResult L2 = E.loadProfile(Path);
  ASSERT_TRUE(L2) << L2.Error;
  EXPECT_EQ(evalOk(E, "(profile-data-available?)"), "#t");
}

//===----------------------------------------------------------------------===//
// The matrix: every point, one uniform recovery invariant
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, MatrixEveryPointRecoversCleanly) {
  for (size_t I = 1; I < NumPoints; ++I) {
    Point P = static_cast<Point>(I);
    SCOPED_TRACE(pointName(P));
    EngineOptions Opts = withInstrumentation();
    if (P == Point::TierCompile) {
      Opts.Tier.Mode = TierMode::Auto;
      Opts.Tier.Threshold = 4;
    }
    Engine E(Opts);
    std::string Profile =
        tempPath(std::string("matrix_") + pointName(P) + ".profile");
    evalOk(E, "(define (hot n) (if (zero? n) 'done (hot (- n 1))))");
    evalOk(E, "(hot 50)");
    ProfileOpResult S = E.storeProfile(Profile);
    ASSERT_TRUE(S) << S.Error;

    arm(P);
    switch (P) {
    case Point::Read:
    case Point::Expand:
    case Point::Compile:
      EXPECT_FALSE(E.evalString("(+ 1 2)").Ok);
      break;
    case Point::TierCompile:
      // A fresh closure crosses the threshold mid-run, hits the injected
      // tier-compile fault, and finishes interpreted anyway.
      evalOk(E, "(define (h2 n) (if (zero? n) 'done (h2 (- n 1))))");
      EXPECT_EQ(evalOk(E, "(h2 50)"), "done");
      break;
    case Point::ProfileStore:
      EXPECT_FALSE(E.storeProfile(Profile));
      break;
    case Point::ProfileLoad:
      EXPECT_FALSE(E.loadProfile(Profile));
      break;
    case Point::Alloc: {
      EvalResult R = E.evalString(BigAlloc, "alloc.scm");
      EXPECT_FALSE(R.Ok);
      EXPECT_EQ(R.Tripped, GuardKind::Heap);
      break;
    }
    case Point::None:
      break;
    }
    EXPECT_FALSE(armed()) << "every driver must consume its fault";
    EXPECT_EQ(evalOk(E, "(+ 20 22)"), "42");
    ProfileOpResult S2 = E.storeProfile(Profile);
    EXPECT_TRUE(S2) << "profile machinery must survive: " << S2.Error;
  }
}

//===----------------------------------------------------------------------===//
// Alloc faults under region reclamation
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, AllocFaultDuringEvacuationDegradesTheCycle) {
  // An allocation failure *inside* collect() must never escape: the cycle
  // degrades to promoting the nursery wholesale, every root stays valid,
  // and the next cycle runs normally.
  Heap H;
  std::vector<Value> Roots;
  for (int I = 0; I < 3000; ++I)
    Roots.push_back(H.cons(Value::fixnum(I), Value::nil()));
  arm(Point::Alloc);
  Heap::ReclaimResult R = H.collect([&](GcVisitor &V) {
    for (Value &Root : Roots)
      V.value(Root);
  });
  EXPECT_TRUE(R.Aborted);
  EXPECT_FALSE(armed()) << "the evacuation attempt must have consumed it";
  EXPECT_EQ(H.allocStats().ReclaimAborts, 1u);
  for (int I = 0; I < 3000; ++I)
    EXPECT_EQ(Roots[I].asPair()->Car.asFixnum(), I)
        << "in-place promotion must leave every object intact";
  // The degraded cycle left a consistent heap: the next (major, so the
  // adopted chunks are collectible again) cycle succeeds and reclaims.
  Roots.resize(10);
  Heap::ReclaimResult R2 = H.collect(
      [&](GcVisitor &V) {
        for (Value &Root : Roots)
          V.value(Root);
      },
      /*ForceMajor=*/true);
  EXPECT_FALSE(R2.Aborted);
  EXPECT_GT(R2.BytesReclaimed, 0u);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Roots[I].asPair()->Car.asFixnum(), I);
}

TEST_F(FaultInjection, AllocFaultUnderReclamationTripsAndRecovers) {
  // The mutator-side OOM dress rehearsal, now with boundary reclamation
  // on: the trip unwinds, the catch-path boundary collection runs on the
  // quiesced engine, and the session stays usable.
  EngineOptions Opts;
  Opts.Reclaim = ReclaimMode::Boundary;
  Engine E(Opts);
  arm(Point::Alloc);
  EvalResult R = E.evalString(BigAlloc, "alloc.scm");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Tripped, GuardKind::Heap);
  EXPECT_FALSE(armed());
  EXPECT_GE(E.context().TheHeap.allocStats().Collections, 1u)
      << "the failed run's boundary still reclaims";
  EXPECT_EQ(evalOk(E, "(+ 20 22)"), "42");
}

TEST_F(FaultInjection, AllocFaultMatrixAcrossReclamationPaths) {
  // Walk the skip count so the one armed fault lands in different
  // allocation paths — mutator nursery chunks and evacuation chunks
  // during the boundary collection.
  // Whichever path it hits, the outcome is contained: either the run
  // trips the heap guard (mutator) or the cycle degrades (collector),
  // and the engine keeps answering afterwards.
  for (uint64_t Skip : {0u, 1u, 2u, 5u, 13u}) {
    SCOPED_TRACE(Skip);
    EngineOptions Opts;
    Opts.Reclaim = ReclaimMode::Boundary;
    Engine E(Opts);
    evalOk(E, "(define (mk n acc)"
              "  (if (zero? n) acc (mk (- n 1) (cons n acc))))");
    arm(Point::Alloc, Skip);
    (void)E.evalString("(length (mk 200000 '()))"); // trip or degrade
    disarm(); // some skips may outlast the workload's chunk count
    EXPECT_EQ(evalOk(E, "(+ 20 22)"), "42");
    EXPECT_EQ(evalOk(E, "(length (mk 100 '()))"), "100")
        << "allocation and reclamation must both still work";
  }
}

TEST_F(FaultInjection, SurvivesAThousandConsecutiveInjectedFaults) {
  Engine E;
  for (int I = 0; I < 1000; ++I) {
    Point P = static_cast<Point>(1 + (I % 3)); // read / expand / compile
    arm(P);
    EvalResult R = E.evalString("(* 6 7)");
    EXPECT_FALSE(R.Ok) << "iteration " << I;
    EXPECT_FALSE(armed()) << "iteration " << I;
  }
  EXPECT_EQ(evalOk(E, "(* 6 7)"), "42");
}

} // namespace
