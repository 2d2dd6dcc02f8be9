//===- tests/ContinuousProfileTest.cpp - ProfileBus & re-tiering ---------===//
///
/// The continuous profiling service: epoch versioning, decay, concurrent
/// publish/query safety (TSan), merge fidelity across epoch boundaries,
/// online re-tiering under a skew flip, and the unified ProfileSession
/// lifecycle.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/EnginePool.h"
#include "core/ProfileSession.h"
#include "interp/Expr.h"
#include "profile/ProfileBus.h"
#include "support/AtomicFile.h"
#include "vm/Bytecode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

using namespace pgmp;
using namespace pgmp::testutil;

namespace {

BusPointKey key(const char *File, uint32_t Begin = 0, uint32_t End = 1) {
  BusPointKey K;
  K.File = File;
  K.Begin = Begin;
  K.End = End;
  return K;
}

std::string slurp(const std::string &Path) {
  std::string Bytes, Err;
  EXPECT_EQ(readFileAll(Path, Bytes, Err), FileReadStatus::Ok) << Err;
  return Bytes;
}

/// Two recursive workers whose relative hotness the tests flip.
constexpr const char *WorkDefs =
    "(define (work-a n) (if (= n 0) 0 (+ 1 (work-a (- n 1)))))\n"
    "(define (work-b n) (if (= n 0) 0 (+ 2 (work-b (- n 1)))))\n";

} // namespace

//===----------------------------------------------------------------------===//
// Bus-level behavior
//===----------------------------------------------------------------------===//

TEST(ContinuousProfile, BusVersionsStrictlyMonotonic) {
  ProfileBusOptions BO;
  BO.DecayHalfLife = 1.0; // fast decay: the skew flip must churn the hot set
  BO.RetierThreshold = 0.25;
  BO.HotSetK = 4;
  ProfileBus Bus(BO);
  uint64_t Pub = Bus.addPublisher();

  uint64_t Last = 0, A = 0, B = 0;
  for (int Round = 0; Round < 40; ++Round) {
    (Round < 20 ? A : B) += 1000; // hotness flips at round 20
    uint64_t V =
        Bus.publish(Pub, {{key("a.scm"), A}, {key("b.scm"), B}});
    // Versions never move backwards, and the version a publish returns is
    // exactly what a subscriber polls.
    EXPECT_GE(V, Last);
    EXPECT_EQ(V, Bus.version());
    if (std::shared_ptr<const ProfileEpoch> E = Bus.epoch()) {
      EXPECT_EQ(E->Version, V);
    }
    Last = V;
  }
  // At least the initial epoch and the flip epoch, and every version bump
  // corresponds to exactly one published epoch.
  EXPECT_GE(Bus.version(), 2u);
  EXPECT_EQ(Bus.epochsPublished(), Bus.version());
  EXPECT_EQ(Bus.publishes(), 40u);
}

TEST(ContinuousProfile, DecayedWeightNeverResurrectsStaleHot) {
  ProfileBusOptions BO;
  BO.DecayHalfLife = 2.0;
  BO.RetierThreshold = 0.1;
  BO.HotSetK = 4;
  ProfileBus Bus(BO);
  uint64_t Pub = Bus.addPublisher();

  // Phase 1: only A is hit.
  uint64_t A = 0;
  for (int Round = 0; Round < 10; ++Round) {
    A += 1000;
    Bus.publish(Pub, {{key("a.scm"), A}});
  }
  auto WeightOfA = [&]() -> double {
    std::shared_ptr<const ProfileEpoch> E = Bus.epoch();
    EXPECT_TRUE(E);
    for (const ProfileEpochRow &R : E->Rows)
      if (R.Key == key("a.scm"))
        return R.Weight;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(WeightOfA(), 1.0); // A is the hottest point

  // Phase 2: A goes silent. A fresh dominant point each round keeps the
  // hot set churning, so every round publishes an epoch through which A's
  // decay is observable. A's weight must fall monotonically — a stale hot
  // mark can never be resurrected by decay alone, only by fresh hits.
  double Prev = 1.0;
  for (int Round = 0; Round < 30; ++Round) {
    std::string Fresh = "hot" + std::to_string(Round) + ".scm";
    Bus.publish(Pub,
                {{key("a.scm"), A}, {key(Fresh.c_str()), 10000}});
    double W = WeightOfA();
    EXPECT_LE(W, Prev) << "stale point gained weight at round " << Round;
    Prev = W;
  }
  EXPECT_LT(Prev, 0.05); // well below the default TierHotWeight
}

TEST(ContinuousProfile, CounterResetRebasesInsteadOfUnderflowing) {
  ProfileBus Bus;
  uint64_t Pub = Bus.addPublisher();
  Bus.publish(Pub, {{key("a.scm"), 1000}});
  // The engine folded its counters: cumulative totals restart from a
  // lower value. The bus must treat the whole new total as the delta, not
  // compute a wrapped-around difference. (Point b enters hot, churning
  // the hot set so a fresh epoch carries the re-based count.)
  Bus.publish(Pub, {{key("a.scm"), 40}, {key("b.scm"), 5000}});
  std::shared_ptr<const ProfileEpoch> E = Bus.epoch();
  ASSERT_TRUE(E);
  ASSERT_EQ(E->Rows.size(), 2u);
  uint64_t CountA = 0;
  for (const ProfileEpochRow &R : E->Rows)
    if (R.Key == key("a.scm"))
      CountA = R.Count;
  EXPECT_EQ(CountA, 1040u);
}

TEST(ContinuousProfile, PublishDuringQueryNeverTears) {
  ProfileBusOptions BO;
  BO.DecayHalfLife = 1.0;
  BO.RetierThreshold = 0.1; // churn often: many epochs under the reader
  BO.HotSetK = 2;
  ProfileBus Bus(BO);
  uint64_t Pub = Bus.addPublisher();

  std::atomic<bool> Stop{false};
  std::thread Reader([&Bus, &Stop] {
    uint64_t Seen = 0;
    while (!Stop.load(std::memory_order_acquire)) {
      uint64_t V = Bus.version();
      EXPECT_GE(V, Seen); // monotonic from the subscriber's seat
      Seen = V;
      if (std::shared_ptr<const ProfileEpoch> E = Bus.epoch()) {
        // An epoch is immutable and internally consistent no matter when
        // it is fetched: normalized weights, hottest row exactly 1.0.
        EXPECT_GE(E->Version, 1u);
        double Max = 0;
        for (const ProfileEpochRow &R : E->Rows) {
          EXPECT_GE(R.Weight, 0.0);
          EXPECT_LE(R.Weight, 1.0);
          Max = std::max(Max, R.Weight);
        }
        if (!E->Rows.empty()) {
          EXPECT_DOUBLE_EQ(Max, 1.0);
        }
      }
    }
  });

  // Rotate hotness across four points so the hot set keeps churning.
  uint64_t Totals[4] = {0, 0, 0, 0};
  const char *Files[4] = {"p0.scm", "p1.scm", "p2.scm", "p3.scm"};
  for (int Round = 0; Round < 2000; ++Round) {
    Totals[Round / 100 % 4] += 500;
    ProfileBus::TotalsRows T;
    for (int I = 0; I < 4; ++I)
      T.emplace_back(key(Files[I]), Totals[I]);
    Bus.publish(Pub, T);
  }
  Stop.store(true, std::memory_order_release);
  Reader.join();
  EXPECT_GE(Bus.epochsPublished(), 2u);
}

//===----------------------------------------------------------------------===//
// Merge fidelity
//===----------------------------------------------------------------------===//

TEST(ContinuousProfile, EpochBoundaryMergeByteIdentical) {
  // The same instrumented workload, once with the bus off and once with
  // continuous profiling publishing (and re-tiering) throughout. The
  // stored profiles must be byte-identical: publishing reads cumulative
  // totals and never perturbs the live counters.
  auto RunAndStore = [](bool Continuous, const std::string &Path) {
    EngineOptions O;
    O.Instrument = true;
    O.Tier.Mode = TierMode::Auto;
    if (Continuous) {
      O.ContinuousProfile.IntervalCharges = 64;
      O.ContinuousProfile.DecayHalfLife = 2.0;
      O.ContinuousProfile.RetierThreshold = 0.1;
    }
    Engine E(O);
    EvalResult R = E.evalString(WorkDefs, "work.scm");
    ASSERT_TRUE(R.Ok) << R.Error;
    for (int I = 0; I < 30; ++I)
      evalOk(E, "(work-a 100)");
    for (int I = 0; I < 30; ++I)
      evalOk(E, "(work-b 100)");
    if (Continuous) {
      ASSERT_NE(E.bus(), nullptr);
      EXPECT_GE(E.bus()->publishes(), 1u) << "poll hook never fired";
    }
    ProfileOpResult S = E.storeProfile(Path);
    ASSERT_TRUE(S) << S.Error;
  };
  std::string POff = tempPath("off.profile"), POn = tempPath("on.profile");
  RunAndStore(false, POff);
  RunAndStore(true, POn);
  EXPECT_EQ(slurp(POff), slurp(POn));
  std::remove(POff.c_str());
  std::remove(POn.c_str());
}

//===----------------------------------------------------------------------===//
// Online re-tiering
//===----------------------------------------------------------------------===//

TEST(ContinuousProfile, SkewFlipRetiersWithoutRestart) {
  EngineOptions O;
  O.Instrument = true;
  O.StatsEnabled = true;
  O.Tier.Mode = TierMode::Auto;
  O.Tier.Threshold = 1u << 30; // the invocation path never promotes:
                              // any tier change is the bus's doing
  O.ContinuousProfile.IntervalCharges = 256;
  O.ContinuousProfile.DecayHalfLife = 2.0;
  O.ContinuousProfile.RetierThreshold = 0.25;
  Engine E(O);
  EvalResult R = E.evalString(WorkDefs, "work.scm");
  ASSERT_TRUE(R.Ok) << R.Error;

  // Phase 1: work-a is hot. The poll hook publishes as fuel burns; force
  // one final observation so the assertion is deterministic.
  for (int I = 0; I < 50; ++I)
    evalOk(E, "(work-a 200)");
  E.observeProfileEpoch();
  uint64_t Promotions1 = E.stats().count(Stat::RetierPromotions);
  EXPECT_GE(Promotions1, 1u) << "hot closure was not premarked by an epoch";
  EXPECT_EQ(E.stats().count(Stat::RetierDemotions), 0u);

  // Phase 2: hotness flips to work-b mid-session — same engine, no
  // restart. The decayed profile must demote the stale-hot work-a and
  // promote work-b.
  for (int I = 0; I < 200; ++I)
    evalOk(E, "(work-b 200)");
  E.observeProfileEpoch();
  EXPECT_GT(E.stats().count(Stat::RetierPromotions), Promotions1)
      << "newly hot closure was not promoted after the flip";
  EXPECT_GE(E.stats().count(Stat::RetierDemotions), 1u)
      << "stale hot closure was not demoted after the flip";
  EXPECT_GE(E.stats().count(Stat::BusEpochs), 2u);

  // Phase 3: hotness flips back. work-a re-promotes from its parked body.
  uint64_t Promotions2 = E.stats().count(Stat::RetierPromotions);
  for (int I = 0; I < 200; ++I)
    evalOk(E, "(work-a 200)");
  E.observeProfileEpoch();
  EXPECT_GT(E.stats().count(Stat::RetierPromotions), Promotions2)
      << "demoted closure was not re-promoted after the flip back";

  // Each lambda tier-compiles once: every tier-up is still held, live or
  // parked, so no demotion/re-promotion cycle recompiled a body. Tier-up
  // bodies carry source counters only, never block counters.
  uint64_t Held = 0;
  for (const LambdaExpr *L : E.context().TierLambdas) {
    const VmFunction *Fn = L->Tiered ? L->Tiered : L->TierCache;
    if (!Fn)
      continue;
    ++Held;
    std::string Code = disassemble(*Fn);
    EXPECT_EQ(Code.find("    profile "), std::string::npos) << Code;
  }
  EXPECT_GE(Held, 2u);
  EXPECT_EQ(E.stats().count(Stat::TierUps), Held);

  // The flip is invisible to merge fidelity: the full session still folds
  // into one coherent data set.
  std::string P = tempPath("profile");
  ProfileOpResult S = E.storeProfile(P);
  ASSERT_TRUE(S) << S.Error;
  std::remove(P.c_str());
}

//===----------------------------------------------------------------------===//
// ProfileSession lifecycle
//===----------------------------------------------------------------------===//

TEST(ContinuousProfile, SessionCommitMatchesStoreProfile) {
  auto Run = [](Engine &E) {
    EvalResult R = E.evalString(WorkDefs, "work.scm");
    ASSERT_TRUE(R.Ok) << R.Error;
    for (int I = 0; I < 10; ++I)
      evalOk(E, "(work-a 50)");
  };
  std::string PSession = tempPath("session.profile");
  std::string PClassic = tempPath("classic.profile");
  {
    Engine E(withInstrumentation());
    Run(E);
    ProfileSession S(E.context(),
                     std::make_unique<FileProfileTransport>(PSession));
    ProfileOpResult C = S.commit();
    ASSERT_TRUE(C) << C.Error;
    EXPECT_EQ(C.DatasetsMerged, 1u);
    // Commit folded the counters: a session snapshot now carries the data.
    EXPECT_TRUE(S.current().hasData());
    EXPECT_EQ(E.context().Counters.totalIncrements(), 0u);
  }
  {
    Engine E(withInstrumentation());
    Run(E);
    ProfileOpResult S = E.storeProfile(PClassic);
    ASSERT_TRUE(S) << S.Error;
  }
  // The classic entry point is a thin wrapper over a file-transport
  // session; both spellings must produce the same bytes.
  EXPECT_EQ(slurp(PSession), slurp(PClassic));

  // And restore() round-trips what commit() wrote.
  Engine E2;
  ProfileSession S2(E2.context(),
                    std::make_unique<FileProfileTransport>(PSession));
  ProfileOpResult L = S2.restore();
  ASSERT_TRUE(L) << L.Error;
  EXPECT_EQ(L.DatasetsMerged, 1u);
  EXPECT_TRUE(S2.current().hasData());
  std::remove(PSession.c_str());
  std::remove(PClassic.c_str());
}

TEST(ContinuousProfile, TransportlessSessionObservesEpochs) {
  EngineOptions O;
  O.Instrument = true;
  O.Tier.Mode = TierMode::Auto;
  O.ContinuousProfile.IntervalCharges = 128;
  Engine E(O);
  EvalResult R = E.evalString(WorkDefs, "work.scm");
  ASSERT_TRUE(R.Ok) << R.Error;
  ProfileSession S(E.context()); // no transport: in-memory lifecycle
  EXPECT_TRUE(S.restore());      // vacuously ok
  for (int I = 0; I < 40; ++I)
    evalOk(E, "(work-a 100)");
  S.observe();
  ASSERT_TRUE(S.epoch());
  EXPECT_GE(S.epoch()->Version, 1u);
  ProfileOpResult C = S.commit(); // folds counters, no I/O
  ASSERT_TRUE(C) << C.Error;
  EXPECT_TRUE(S.current().hasData());
}

//===----------------------------------------------------------------------===//
// Pool integration
//===----------------------------------------------------------------------===//

TEST(ContinuousProfile, PoolHostsOneSharedBus) {
  EngineOptions O;
  O.Instrument = true;
  O.StatsEnabled = true;
  O.Tier.Mode = TierMode::Auto;
  O.ContinuousProfile.IntervalCharges = 256;
  EnginePool Pool(2, O);
  ASSERT_NE(Pool.bus(), nullptr);
  // Every worker publishes to the pool-owned aggregator, not a private
  // bus each.
  for (size_t I = 0; I < Pool.size(); ++I)
    EXPECT_EQ(Pool.engine(I).bus(), Pool.bus());

  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
    EvalResult Last = E.evalString(WorkDefs, "work.scm");
    if (!Last)
      return Last;
    for (int I = 0; I < 40 && Last; ++I)
      Last = E.evalString("(work-a 200)", "<request>");
    return Last;
  });
  ASSERT_TRUE(R) << R.Error;
  EXPECT_GE(Pool.bus()->publishes(), 2u) << "workers did not publish";

  // The merged store still works with the bus attached, and the epoch
  // boundary does not disturb it.
  std::string P = tempPath("pool.profile");
  ProfileOpResult S = Pool.storeMergedProfile(P);
  ASSERT_TRUE(S) << S.Error;
  EXPECT_EQ(S.DatasetsMerged, 2u);
  std::remove(P.c_str());
}
