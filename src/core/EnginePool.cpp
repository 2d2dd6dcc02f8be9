//===- core/EnginePool.cpp ------------------------------------------------===//

#include "core/EnginePool.h"

#include "core/PgmpApi.h"

#include <chrono>
#include <thread>

using namespace pgmp;

EnginePool::EnginePool(size_t Jobs, const EngineOptions &Opts)
    : EnginePool(Jobs, Opts, FaultPolicy()) {}

EnginePool::EnginePool(size_t Jobs, const EngineOptions &Opts,
                       const FaultPolicy &Policy)
    : Opts(Opts), Policy(Policy) {
  if (Jobs == 0)
    Jobs = 1;
  Workers.reserve(Jobs);
  for (size_t I = 0; I < Jobs; ++I)
    Workers.push_back(std::make_unique<Engine>(this->Opts));
}

EnginePool::~EnginePool() = default;

std::unique_ptr<Engine> EnginePool::freshWorker() {
  auto W = std::make_unique<Engine>(Opts);
  for (const std::string &Path : PreRegistered) {
    FileId Id;
    (void)W->context().SrcMgr.addFile(Path, Id);
  }
  if (!LoadedProfilePath.empty())
    (void)W->loadProfile(LoadedProfilePath);
  return W;
}

EnginePool::PoolResult EnginePool::run(const WorkerTask &Task) {
  PoolResult R;
  size_t N = Workers.size();
  R.PerWorker.resize(N);
  R.Outcomes.resize(N);

  std::vector<size_t> Pending(N);
  for (size_t I = 0; I < N; ++I)
    Pending[I] = I;

  for (unsigned Attempt = 0;; ++Attempt) {
    std::vector<std::thread> Threads;
    Threads.reserve(Pending.size());
    for (size_t I : Pending)
      Threads.emplace_back([this, &Task, &R, I] {
        // Each thread touches only its own worker and its own result
        // slot; evalString already converts SchemeErrors (including
        // GuardTrips, recording EvalResult::Tripped), so the catches here
        // contain trips and errors escaping the task body itself — a
        // worker failure must never take down the pool.
        EvalResult &Res = R.PerWorker[I];
        try {
          Res = Task(*Workers[I], I);
        } catch (const GuardTrip &T) {
          Res = EvalResult{};
          Res.Error = T.render();
          Res.Tripped = T.kind();
        } catch (const SchemeError &E) {
          Res = EvalResult{};
          Res.Error = E.render();
        } catch (const std::exception &E) {
          Res = EvalResult{};
          Res.Error = E.what();
        } catch (...) {
          Res = EvalResult{};
          Res.Error = "unknown exception";
        }
      });
    // The join is load-bearing: it is the happens-before edge that makes
    // aggregating the workers' counter pages race-free (and that makes
    // replacing failed engines below safe).
    for (std::thread &T : Threads)
      T.join();

    std::vector<size_t> Failed;
    for (size_t I : Pending) {
      TaskOutcome &O = R.Outcomes[I];
      ++O.Attempts;
      O.Ok = R.PerWorker[I].Ok;
      O.Tripped = R.PerWorker[I].Tripped;
      O.Error = R.PerWorker[I].Error;
      if (!O.Ok)
        Failed.push_back(I);
    }
    if (Failed.empty())
      break;

    if (Attempt >= Policy.MaxRetries) {
      // Out of retries. Unless the policy opts in to partial data, zero
      // the failed workers' counters now: an all-zero data set is skipped
      // by addDataset, so the subsequent merge sees exactly the surviving
      // tasks' data sets in worker-index order — byte-identical to a
      // sequential run of the same surviving set.
      if (!Policy.MergePartialCounters)
        for (size_t I : Failed)
          Workers[I]->context().Counters.reset();
      break;
    }

    // Retry on fresh workers: the failed engine's heap, globals, and
    // partial counters are discarded wholesale — fault isolation by
    // replacement, not by attempted in-place repair.
    for (size_t I : Failed)
      Workers[I] = freshWorker();
    R.TotalRetries += static_cast<unsigned>(Failed.size());
    Workers[0]->context().Stats.bump(Stat::TaskRetries, Failed.size());
    if (Policy.BackoffBaseMs)
      std::this_thread::sleep_for(std::chrono::milliseconds(
          Policy.BackoffBaseMs << (Attempt < 6 ? Attempt : 6)));
    Pending = std::move(Failed);
  }

  for (size_t I = 0; I < N; ++I)
    if (!R.Outcomes[I].Ok) {
      ++R.NumFailed;
      if (R.Ok) {
        R.Ok = false;
        R.Error = "worker " + std::to_string(I) + ": " + R.Outcomes[I].Error;
      }
    }
  return R;
}

EnginePool::PoolResult
EnginePool::runFiles(const std::vector<std::string> &Files) {
  return run([&Files](Engine &E, size_t) {
    EvalResult Last;
    Last.Ok = true; // an empty workload is vacuously fine
    for (const std::string &F : Files) {
      Last = E.evalFile(F);
      if (!Last)
        break;
    }
    return Last;
  });
}

ProfileOpResult EnginePool::loadProfileAll(const std::string &Path) {
  ProfileOpResult R;
  for (std::unique_ptr<Engine> &W : Workers) {
    R = W->loadProfile(Path);
    if (!R)
      return R;
  }
  LoadedProfilePath = Path; // replay into fresh replacement workers
  return R;
}

void EnginePool::preRegisterFile(const std::string &Path) {
  for (std::unique_ptr<Engine> &W : Workers) {
    FileId Id;
    (void)W->context().SrcMgr.addFile(Path, Id); // missing files error later
  }
  PreRegistered.push_back(Path); // replay into fresh replacement workers
}

void EnginePool::mergeCountersInto(ProfileDatabase &Db,
                                   SourceObjectTable &Sources) {
  constexpr PointFileId Unmapped = ~PointFileId(0);
  std::vector<PointFileId> FileMap;
  for (std::unique_ptr<Engine> &W : Workers) {
    ProfileDatabase::CounterRows Rows = W->context().Counters.snapshot();
    // Worker points live in the worker's own interning table; translate
    // to the target table so the merged database speaks its identities.
    // Each worker file id is translated once, on its first point.
    FileMap.assign(W->context().Sources.numFiles(), Unmapped);
    for (auto &[Src, Count] : Rows) {
      PointFileId &To = FileMap[Src->FileId];
      if (To == Unmapped)
        To = Sources.internFile(Src->File);
      Src = Sources.intern(To, Src->BeginOffset, Src->EndOffset, Src->Line,
                           Src->Column, Src->Generated);
    }
    Db.addDataset(Rows); // all-zero data sets are ignored, as always
  }
}

std::array<AllocSiteStats, NumAllocSites> EnginePool::mergedSiteStats() const {
  std::array<AllocSiteStats, NumAllocSites> Merged{};
  for (const std::unique_ptr<Engine> &W : Workers) {
    const auto &Sites =
        const_cast<Engine &>(*W).context().TheHeap.siteStats();
    for (size_t I = 0; I < NumAllocSites; ++I)
      Merged[I].merge(Sites[I]);
  }
  return Merged;
}

ProfileOpResult EnginePool::storeMergedProfile(const std::string &Path) {
  Context &C0 = Workers[0]->context();
  C0.Stats.bump(Stat::ProfileStores);
  // Same protocol as Engine::storeProfile: serialize a merged snapshot
  // first, commit the merge and reset counters only once the file is
  // safely on disk — a failed store must not destroy the counter data it
  // failed to persist.
  ProfileDatabase Merged = C0.ProfileDb;
  uint64_t Before = Merged.numDatasets();
  {
    ScopedPhase Timer(C0.Stats, &C0.Trace, Phase::CounterFold);
    mergeCountersInto(Merged, C0.Sources);
  }
  if (ProfileOpResult P = pgmpapi::writeProfileFile(C0, Merged, Path); !P)
    return P;
  uint64_t DatasetsFolded = Merged.numDatasets() - Before;
  for (std::unique_ptr<Engine> &W : Workers) {
    Context &C = W->context();
    C.Stats.bump(Stat::CounterIncrements, C.Counters.totalIncrements());
    C.Counters.reset();
  }
  C0.Stats.bump(Stat::DatasetMerges, DatasetsFolded);
  C0.ProfileDb = Merged;
  ProfileOpResult R;
  R.DatasetsMerged = DatasetsFolded;
  R.PointsLoaded = Merged.numPoints();
  return R;
}
