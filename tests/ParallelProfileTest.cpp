//===- tests/ParallelProfileTest.cpp - Concurrent profiling runtime -------===//
//
// The concurrent profiling runtime's contract, proven under real threads
// (run these under the tsan preset to get the full guarantee):
//   - ShardedCounterStore keeps the stable-pointer counterFor contract
//     while N threads increment concurrently, and aggregation after a
//     join sums exactly — no lost updates, no data races;
//   - EnginePool runs one instrumented workload per worker and the merged
//     profile is *bit-identical* to a sequential engine folding the same
//     data sets in the same order (FP addition is order-sensitive, so
//     this pins the fold order, the re-interning, and the serializer);
//   - two different thread interleavings render identical `pgmpi report`
//     tables;
//   - loads concurrent with storeProfile never see a torn file (atomic
//     rename), so they never degrade.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/EnginePool.h"
#include "profile/ProfileIO.h"
#include "profile/ProfileReport.h"
#include "profile/ShardedCounterStore.h"
#include "support/AtomicFile.h"

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

using namespace pgmp;
using namespace pgmp::testutil;

namespace {

std::string slurp(const std::string &Path) {
  std::string Out, Err;
  EXPECT_EQ(readFileAll(Path, Out, Err), FileReadStatus::Ok) << Err;
  return Out;
}

/// A point's identity as text, comparable across interning tables.
std::string pointKey(const SourceObject *Src) {
  return std::string(Src->File) + ":" + std::to_string(Src->BeginOffset) +
         "-" + std::to_string(Src->EndOffset);
}

// A workload with a clear hot/cold split. The buffer name is a stable
// (non-ephemeral) .scm name so stored profiles fingerprint it.
const char *Workload =
    "(define (hot n) (if (zero? n) 'done (hot (- n 1))))"
    "(define (cold) 'c)"
    "(hot 50) (cold)";
const char *WorkloadName = "parwork.scm";

//===----------------------------------------------------------------------===//
// ShardedCounterStore
//===----------------------------------------------------------------------===//

TEST(ShardedCounterStore, CounterPointersStableAcrossGrowthAndReset) {
  SourceObjectTable T;
  ShardedCounterStore Store;
  const SourceObject *P0 = T.intern("x.scm", 0, 1, 1, 1);
  uint64_t *C0 = Store.counterFor(P0);
  ++*C0;
  // Register enough points to force the shard's backing deque to grow.
  for (uint32_t I = 1; I < 2000; ++I)
    ++*Store.counterFor(T.intern("x.scm", I, I + 1, 1, 1));
  EXPECT_EQ(C0, Store.counterFor(P0)) << "same thread, same slot";
  EXPECT_EQ(Store.count(P0), 1u);
  EXPECT_EQ(Store.size(), 2000u);

  Store.reset();
  EXPECT_EQ(Store.epoch(), 1u);
  EXPECT_EQ(Store.count(P0), 0u);
  ++*C0; // the old pointer survives reset
  EXPECT_EQ(Store.count(P0), 1u);
  EXPECT_EQ(Store.totalIncrements(), 1u);
}

TEST(ShardedCounterStore, ConcurrentIncrementsSumExactly) {
  SourceObjectTable T;
  ShardedCounterStore Store;
  const SourceObject *P1 = T.intern("par.scm", 0, 5, 1, 1);
  const SourceObject *P2 = T.intern("par.scm", 6, 9, 1, 1);
  constexpr uint64_t NumThreads = 8;
  constexpr uint64_t Iters = 100000;

  std::vector<std::thread> Threads;
  for (uint64_t W = 0; W < NumThreads; ++W)
    Threads.emplace_back([&Store, P1, P2] {
      // Each thread registers its own page; the increments are plain
      // non-atomic bumps on thread-private slots.
      uint64_t *C1 = Store.counterFor(P1);
      uint64_t *C2 = Store.counterFor(P2);
      for (uint64_t I = 0; I < Iters; ++I) {
        ++*C1;
        if (I % 2 == 0)
          ++*C2;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  // The join above is the quiescent point; aggregation is now exact.
  EXPECT_EQ(Store.count(P1), NumThreads * Iters);
  EXPECT_EQ(Store.count(P2), NumThreads * (Iters / 2));
  EXPECT_EQ(Store.maxCount(), NumThreads * Iters);
  EXPECT_EQ(Store.totalIncrements(), NumThreads * (Iters + Iters / 2));
  EXPECT_EQ(Store.numShards(), NumThreads);
  EXPECT_EQ(Store.size(), 2u);

  ProfileDatabase::CounterRows Rows = Store.snapshot();
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].first, P1) << "registration order";
  EXPECT_EQ(Rows[0].second, NumThreads * Iters);
}

TEST(ShardedCounterStore, ClearDropsRegistrationsAndOrphansShards) {
  SourceObjectTable T;
  ShardedCounterStore Store;
  const SourceObject *P = T.intern("x.scm", 0, 1, 1, 1);
  ++*Store.counterFor(P);
  Store.clear();
  EXPECT_EQ(Store.size(), 0u);
  EXPECT_EQ(Store.numShards(), 0u);
  EXPECT_EQ(Store.count(P), 0u);
  // The calling thread's stale shard mapping must not resolve: a fresh
  // counterFor gets a fresh slot in a fresh shard.
  uint64_t *C = Store.counterFor(P);
  ++*C;
  EXPECT_EQ(Store.count(P), 1u);
  EXPECT_EQ(Store.numShards(), 1u);
}

TEST(ShardedCounterStore, StoresAreIndependentOnOneThread) {
  SourceObjectTable T;
  const SourceObject *P = T.intern("x.scm", 0, 1, 1, 1);
  ShardedCounterStore A, B;
  uint64_t *Ca = A.counterFor(P);
  uint64_t *Cb = B.counterFor(P);
  EXPECT_NE(Ca, Cb);
  ++*Ca;
  EXPECT_EQ(A.count(P), 1u);
  EXPECT_EQ(B.count(P), 0u);
}

TEST(ShardedCounterStore, NewStoreAfterDestructionStartsClean) {
  SourceObjectTable T;
  const SourceObject *P = T.intern("x.scm", 0, 1, 1, 1);
  auto S1 = std::make_unique<ShardedCounterStore>();
  ++*S1->counterFor(P);
  S1.reset(); // the dead store's thread-local entries must never resolve
  ShardedCounterStore S2;
  EXPECT_EQ(S2.count(P), 0u);
  ++*S2.counterFor(P);
  EXPECT_EQ(S2.count(P), 1u);
}

//===----------------------------------------------------------------------===//
// EnginePool
//===----------------------------------------------------------------------===//

TEST(ParallelProfile, MergedCountsEqualSequentialSum) {
  constexpr size_t Jobs = 4;
  constexpr int Reps = 3; // M evaluations per worker, folded as one set

  // Sequential reference: one engine, the same M evaluations, one fold.
  std::map<std::string, uint64_t> SeqCounts;
  {
    Engine E(withInstrumentation());
    for (int I = 0; I < Reps; ++I)
      ASSERT_TRUE(E.evalString(Workload, WorkloadName).Ok);
    E.foldCountersIntoProfile();
    for (const auto &[Src, Entry] : E.snapshot().entries())
      SeqCounts[pointKey(Src)] = Entry.TotalCount;
    ASSERT_FALSE(SeqCounts.empty());
  }

  EnginePool Pool(Jobs, withInstrumentation());
  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
    EvalResult Last;
    Last.Ok = true;
    for (int I = 0; I < Reps; ++I)
      if (!(Last = E.evalString(Workload, WorkloadName)))
        break;
    return Last;
  });
  ASSERT_TRUE(R.Ok) << R.Error;

  ProfileDatabase Merged;
  Pool.mergeCountersInto(Merged, Pool.engine(0).context().Sources);
  ProfileSnapshot S = Merged.snapshot();
  EXPECT_EQ(S.datasets(), Jobs) << "one data set per worker";
  ASSERT_EQ(S.points(), SeqCounts.size());
  for (const auto &[Src, Entry] : S.entries())
    EXPECT_EQ(Entry.TotalCount, Jobs * SeqCounts.at(pointKey(Src)))
        << "at " << pointKey(Src);
}

TEST(ParallelProfile, MergedProfileBitIdenticalToSequential) {
  constexpr size_t Jobs = 4;
  std::string Par = tempPath("par.profile");
  std::string Seq = tempPath("seq.profile");
  {
    EnginePool Pool(Jobs, withInstrumentation());
    EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
      return E.evalString(Workload, WorkloadName);
    });
    ASSERT_TRUE(R.Ok) << R.Error;
    ProfileOpResult St = Pool.storeMergedProfile(Par);
    ASSERT_TRUE(St) << St.Error;
    EXPECT_EQ(St.DatasetsMerged, Jobs);
    // The commit landed in the coordinator and reset every worker.
    EXPECT_EQ(Pool.engine(0).snapshot().datasets(), Jobs);
    for (size_t I = 0; I < Pool.size(); ++I)
      EXPECT_EQ(Pool.engine(I).context().Counters.totalIncrements(), 0u);
  }
  {
    Engine E(withInstrumentation());
    for (size_t I = 0; I < Jobs; ++I) {
      ASSERT_TRUE(E.evalString(Workload, WorkloadName).Ok);
      E.foldCountersIntoProfile();
    }
    ProfileOpResult St = E.storeProfile(Seq);
    ASSERT_TRUE(St) << St.Error;
  }
  std::string A = slurp(Par), B = slurp(Seq);
  EXPECT_FALSE(A.empty());
  EXPECT_EQ(A, B) << "parallel merge must be bit-identical to sequential";
}

TEST(ParallelProfile, TieredWorkersMergeBitIdenticalToInterpreted) {
  // Counter fidelity under `run --jobs 8` with tiering: workers whose hot
  // closures tier up to bytecode mid-workload must merge to a profile
  // byte-identical to an interpreter-only pool. Threshold 4 forces the
  // tier-up to happen inside the recursive loop, the worst case for the
  // invariant.
  constexpr size_t Jobs = 8;
  std::string Tiered = tempPath("tiered.profile");
  std::string Interp = tempPath("interp.profile");
  auto RunPool = [](EngineOptions Opts, const std::string &Path) {
    EnginePool Pool(Jobs, Opts);
    EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
      return E.evalString(Workload, WorkloadName);
    });
    ASSERT_TRUE(R.Ok) << R.Error;
    ProfileOpResult St = Pool.storeMergedProfile(Path);
    ASSERT_TRUE(St) << St.Error;
  };
  {
    EngineOptions Opts = withInstrumentation();
    Opts.Tier.Mode = TierMode::Auto;
    Opts.Tier.Threshold = 4;
    RunPool(Opts, Tiered);
  }
  RunPool(withInstrumentation(), Interp);
  std::string A = slurp(Tiered), B = slurp(Interp);
  EXPECT_FALSE(A.empty());
  EXPECT_EQ(A, B) << "tiered workers must bump the same counters as the "
                     "interpreter";
}

TEST(ParallelProfile, ReportIdenticalAcrossInterleavings) {
  // Stagger the workers two opposite ways so the two runs interleave
  // differently; the report table (sorted once, deterministic
  // tie-breaks) must not care.
  auto Produce = [](const std::string &Path, bool Reverse) {
    EnginePool Pool(4, withInstrumentation());
    EnginePool::PoolResult R = Pool.run([Reverse](Engine &E, size_t I) {
      size_t Rank = Reverse ? 3 - I : I;
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * Rank));
      return E.evalString(Workload, WorkloadName);
    });
    ASSERT_TRUE(R.Ok) << R.Error;
    ProfileOpResult St = Pool.storeMergedProfile(Path);
    ASSERT_TRUE(St) << St.Error;
  };
  std::string PA = tempPath("a.profile"), PB = tempPath("b.profile");
  Produce(PA, false);
  Produce(PB, true);
  EXPECT_EQ(slurp(PA), slurp(PB));

  auto Render = [](const std::string &Path) {
    std::string Out, Err;
    EXPECT_TRUE(renderProfileReportFile(Path, Out, Err)) << Err;
    return Out;
  };
  std::string RA = Render(PA), RB = Render(PB);
  // Identical tables modulo the header's file name.
  EXPECT_EQ(RA.substr(RA.find('\n')), RB.substr(RB.find('\n')));
}

TEST(ParallelProfile, WorkerErrorsAreLabeled) {
  EnginePool Pool(3);
  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t I) {
    return E.evalString(I == 1 ? "(this-is-unbound)" : "42");
  });
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("worker 1"), std::string::npos) << R.Error;
  ASSERT_EQ(R.PerWorker.size(), 3u);
  EXPECT_TRUE(R.PerWorker[0].Ok);
  EXPECT_FALSE(R.PerWorker[1].Ok);
  EXPECT_TRUE(R.PerWorker[2].Ok);
}

TEST(ParallelProfile, FailedStorePreservesWorkerCounters) {
  EnginePool Pool(2, withInstrumentation());
  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
    return E.evalString(Workload, WorkloadName);
  });
  ASSERT_TRUE(R.Ok) << R.Error;
  ProfileOpResult St = Pool.storeMergedProfile("/nonexistent-dir/p.profile");
  EXPECT_FALSE(St);
  for (size_t I = 0; I < Pool.size(); ++I)
    EXPECT_GT(Pool.engine(I).context().Counters.totalIncrements(), 0u)
        << "worker " << I << " counters must survive a failed store";
  EXPECT_EQ(Pool.engine(0).snapshot().datasets(), 0u)
      << "nothing may be committed on failure";
}

TEST(ParallelProfile, LoadProfileAllGivesEveryWorkerTheWeights) {
  std::string Path = tempPath("train.profile");
  {
    Engine E(withInstrumentation());
    ASSERT_TRUE(E.evalString(Workload, WorkloadName).Ok);
    ASSERT_TRUE(E.storeProfile(Path));
  }
  EnginePool Pool(3);
  Pool.preRegisterFile(WorkloadName); // no-op: not on disk; exercised anyway
  ProfileOpResult L = Pool.loadProfileAll(Path);
  ASSERT_TRUE(L) << L.Error;
  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t) {
    return E.evalString("(profile-data-available?)");
  });
  ASSERT_TRUE(R.Ok) << R.Error;
  for (const EvalResult &Res : R.PerWorker)
    EXPECT_EQ(writeToString(Res.V), "#t");
}

//===----------------------------------------------------------------------===//
// Fault isolation: poisoned tasks, retries on fresh workers, merge policy
//===----------------------------------------------------------------------===//

TEST(ParallelProfile, PoisonedTaskRetriesOnFreshWorkerAndMergeMatches) {
  // One task fails on its first attempt (after bumping counters!); the
  // pool retries it on a fresh worker. The failed attempt's partial
  // counters died with the replaced engine, so the merged profile is
  // byte-identical to an all-healthy pool's.
  constexpr size_t Jobs = 8;
  EnginePool::FaultPolicy Policy;
  Policy.MaxRetries = 2;
  Policy.BackoffBaseMs = 0;
  EnginePool Pool(Jobs, withInstrumentation(), Policy);
  std::atomic<int> PoisonShots{1};
  EnginePool::PoolResult R = Pool.run([&PoisonShots](Engine &E, size_t I) {
    EvalResult Res = E.evalString(Workload, WorkloadName);
    if (!Res.Ok)
      return Res;
    if (I == 3 && PoisonShots.fetch_sub(1) > 0)
      return E.evalString("(poisoned)"); // unbound: fails this attempt only
    return Res;
  });
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.TotalRetries, 1u);
  EXPECT_EQ(R.NumFailed, 0u);
  ASSERT_EQ(R.Outcomes.size(), Jobs);
  for (size_t I = 0; I < Jobs; ++I) {
    EXPECT_TRUE(R.Outcomes[I].Ok) << "task " << I;
    EXPECT_EQ(R.Outcomes[I].Attempts, I == 3 ? 2u : 1u) << "task " << I;
  }
  std::string Par = tempPath("retried.profile");
  ProfileOpResult St = Pool.storeMergedProfile(Par);
  ASSERT_TRUE(St) << St.Error;

  std::string Healthy = tempPath("healthy.profile");
  {
    EnginePool P2(Jobs, withInstrumentation());
    ASSERT_TRUE(P2.run([](Engine &E, size_t) {
                    return E.evalString(Workload, WorkloadName);
                  }).Ok);
    ProfileOpResult St2 = P2.storeMergedProfile(Healthy);
    ASSERT_TRUE(St2) << St2.Error;
  }
  EXPECT_EQ(slurp(Par), slurp(Healthy))
      << "a discarded first attempt must leave no trace in the merge";
}

TEST(ParallelProfile, GuardTrippedTaskIsExcludedFromMerge) {
  // jobs 8, one task poisoned with a runaway loop under a fuel guard:
  // once retries are exhausted, the merged profile must equal a
  // sequential merge of the seven healthy tasks' data sets — and since
  // the reference engine runs with no guards at all, this also pins
  // "guard checks never touch counters" under the pool.
  constexpr size_t Jobs = 8;
  EngineOptions Opts = withInstrumentation();
  Opts.Fuel = 100000; // Workload fits easily; the poisoned task cannot
  EnginePool::FaultPolicy Policy;
  Policy.MaxRetries = 1;
  Policy.BackoffBaseMs = 0;
  EnginePool Pool(Jobs, Opts, Policy);
  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t I) {
    EvalResult Res = E.evalString(Workload, WorkloadName);
    if (!Res.Ok || I != 5)
      return Res;
    return E.evalString("(define (sp n) (sp (+ n 1))) (sp 0)");
  });
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.NumFailed, 1u);
  EXPECT_EQ(R.TotalRetries, 1u);
  ASSERT_EQ(R.Outcomes.size(), Jobs);
  EXPECT_EQ(R.Outcomes[5].Tripped, GuardKind::Fuel);
  EXPECT_EQ(R.Outcomes[5].Attempts, 2u) << "initial attempt + one retry";
  EXPECT_NE(R.Outcomes[5].Error.find("guard trip [fuel]"), std::string::npos)
      << R.Outcomes[5].Error;
  for (size_t I = 0; I < Jobs; ++I) {
    if (I != 5) {
      EXPECT_TRUE(R.Outcomes[I].Ok) << "task " << I;
    }
  }

  std::string Par = tempPath("survivors.profile");
  ProfileOpResult St = Pool.storeMergedProfile(Par);
  ASSERT_TRUE(St) << St.Error;
  EXPECT_EQ(St.DatasetsMerged, Jobs - 1) << "only survivors contribute";

  std::string Seq = tempPath("seq.profile");
  {
    Engine E(withInstrumentation());
    for (size_t I = 0; I + 1 < Jobs; ++I) {
      ASSERT_TRUE(E.evalString(Workload, WorkloadName).Ok);
      E.foldCountersIntoProfile();
    }
    ProfileOpResult St2 = E.storeProfile(Seq);
    ASSERT_TRUE(St2) << St2.Error;
  }
  EXPECT_EQ(slurp(Par), slurp(Seq))
      << "merge of survivors must be byte-identical to their sequential run";
}

TEST(ParallelProfile, MergePartialCountersPolicyKeepsFailedTasksData) {
  // Opting in to partial data: a finally-failed task's counters survive
  // into the merge as their own data set instead of being zeroed.
  constexpr size_t Jobs = 4;
  EnginePool::FaultPolicy Policy;
  Policy.MaxRetries = 0;
  Policy.BackoffBaseMs = 0;
  Policy.MergePartialCounters = true;
  EnginePool Pool(Jobs, withInstrumentation(), Policy);
  EnginePool::PoolResult R = Pool.run([](Engine &E, size_t I) {
    EvalResult Res = E.evalString(Workload, WorkloadName);
    if (!Res.Ok || I != 2)
      return Res;
    return E.evalString("(poisoned)");
  });
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.NumFailed, 1u);
  EXPECT_EQ(R.Outcomes[2].Attempts, 1u);
  ProfileDatabase Merged;
  Pool.mergeCountersInto(Merged, Pool.engine(0).context().Sources);
  EXPECT_EQ(Merged.snapshot().datasets(), Jobs)
      << "the failed task's partial data set must be kept under this policy";
}

TEST(ParallelProfile, FreshRetryWorkerSeesLoadedProfile) {
  // Replacement workers must replay the pool's bootstrap: a task that
  // needs the loaded profile succeeds on its fresh-worker retry too.
  std::string Path = tempPath("train.profile");
  {
    Engine E(withInstrumentation());
    ASSERT_TRUE(E.evalString(Workload, WorkloadName).Ok);
    ASSERT_TRUE(E.storeProfile(Path));
  }
  EnginePool::FaultPolicy Policy;
  Policy.MaxRetries = 1;
  Policy.BackoffBaseMs = 0;
  EnginePool Pool(2, EngineOptions{}, Policy);
  ProfileOpResult L = Pool.loadProfileAll(Path);
  ASSERT_TRUE(L) << L.Error;
  std::atomic<int> PoisonShots{1};
  EnginePool::PoolResult R = Pool.run([&PoisonShots](Engine &E, size_t I) {
    if (I == 1 && PoisonShots.fetch_sub(1) > 0)
      return E.evalString("(poisoned)");
    return E.evalString("(profile-data-available?)");
  });
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outcomes[1].Attempts, 2u);
  EXPECT_EQ(writeToString(R.PerWorker[1].V), "#t")
      << "the replacement worker must see the profile the pool loaded";
}

//===----------------------------------------------------------------------===//
// Concurrent store/load robustness
//===----------------------------------------------------------------------===//

TEST(ParallelProfile, LoadsConcurrentWithStoresNeverDegrade) {
  std::string Path = tempPath("live.profile");
  Engine Writer(withInstrumentation());
  ASSERT_TRUE(Writer.evalString(Workload, WorkloadName).Ok);
  ASSERT_TRUE(Writer.storeProfile(Path)); // readers never see no-file

  std::atomic<bool> Stop{false};
  std::atomic<int> Failures{0};
  std::atomic<int> Loads{0};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      SourceObjectTable Sources;
      ProfileDatabase Db;
      ProfileLoadReport Report;
      std::string Err;
      if (!loadProfileFile(Path, Sources, Db, Err, nullptr, &Report)) {
        ++Failures;
        break;
      }
      ++Loads;
    }
  });
  for (int I = 0; I < 25; ++I) {
    ASSERT_TRUE(Writer.evalString("(hot 10)", WorkloadName).Ok);
    ProfileOpResult St = Writer.storeProfile(Path);
    ASSERT_TRUE(St) << St.Error;
  }
  Stop = true;
  Reader.join();
  EXPECT_EQ(Failures.load(), 0)
      << "atomic rename must never expose a torn profile";
  EXPECT_GT(Loads.load(), 0);

  // And the engine-level load of the final file is fully Ok, not degraded.
  Engine E;
  ProfileOpResult L = E.loadProfile(Path);
  ASSERT_TRUE(L) << L.Error;
  EXPECT_FALSE(L.degraded());
}

} // namespace
