//===- core/EnginePool.h - Parallel workload driver -----------*- C++ -*-===//
///
/// \file
/// Runs one instrumented Scheme workload across N worker engines, one OS
/// thread each, and merges their counters into a single profile that is
/// *bit-identical* to running the same data sets sequentially.
///
/// ## Model
///
/// An Engine (heap, symbol table, expander state) is one thread's
/// session; sharing one across threads is not safe and never will be
/// cheap. The pool therefore scales the paper's workflow the way a
/// production profiler farm does: N isolated workers each run the
/// workload (one data set per worker), and the coordinator folds the
/// resulting counter pages into one ProfileDatabase.
///
/// ## Determinism
///
/// Figure 3's merge (weight = count / max-count per data set; data sets
/// combine by summed weights / dataset count) uses floating-point
/// addition, which is not associative — so the fold order is the
/// contract. The pool always folds worker data sets in worker-index
/// order, on the coordinating thread, after joining every worker. The
/// result is bit-identical to a sequential engine producing the same data
/// sets in the same order; `pgmpi run --jobs 8` and a loop of eight
/// sequential runs write byte-identical profile files.
///
/// Worker counters reference worker-local interned profile points; the
/// merge re-interns each point into the coordinator's table, so the
/// merged database speaks the coordinator's point identities.
///
/// ## Fault isolation
///
/// A worker failure (Scheme error, guard trip, or foreign exception) is
/// contained to that worker: the pool replaces the dead engine with a
/// fresh one — replaying pre-registered files and any loaded profile —
/// and retries the task up to FaultPolicy::MaxRetries times with
/// exponential backoff. A task that still fails is reported per-task in
/// PoolResult::Outcomes; its partial counters are discarded (default) or
/// kept (MergePartialCounters) before the merge, so the merged profile of
/// the surviving tasks is byte-identical to a sequential run of the same
/// surviving set.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_CORE_ENGINEPOOL_H
#define PGMP_CORE_ENGINEPOOL_H

#include "core/Engine.h"
#include "core/EngineOptions.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pgmp {

class EnginePool {
public:
  /// How the pool responds to a worker failing its task.
  struct FaultPolicy {
    /// Re-runs of a failed task on a fresh worker before giving up
    /// (0 = fail fast, the pre-isolation behavior).
    unsigned MaxRetries = 2;
    /// Backoff before retry attempt k sleeps BackoffBaseMs << min(k, 6)
    /// milliseconds (0 = no backoff; useful in tests).
    unsigned BackoffBaseMs = 1;
    /// Keep a finally-failed task's partial counters in the merge instead
    /// of discarding them. Off by default: a half-run workload would skew
    /// weights, and discarding keeps the merged profile byte-identical to
    /// a sequential run of the surviving tasks.
    bool MergePartialCounters = false;
  };

  /// Per-task outcome across all attempts of one pool run.
  struct TaskOutcome {
    bool Ok = false;
    unsigned Attempts = 0;            ///< total runs, including retries
    GuardKind Tripped = GuardKind::None; ///< set when a guard aborted it
    std::string Error;                ///< final error (when !Ok)
  };

  /// Builds \p Jobs workers (at least one), each configured with \p Opts.
  /// Workers are constructed sequentially on the calling thread; worker 0
  /// doubles as the coordinator whose point table, source manager, and
  /// profile database receive the merged results.
  explicit EnginePool(size_t Jobs, const EngineOptions &Opts = {});
  EnginePool(size_t Jobs, const EngineOptions &Opts,
             const FaultPolicy &Policy);
  ~EnginePool();
  EnginePool(const EnginePool &) = delete;
  EnginePool &operator=(const EnginePool &) = delete;

  size_t size() const { return Workers.size(); }
  Engine &engine(size_t I) { return *Workers[I]; }

  /// One worker's task: evaluate whatever constitutes the workload on
  /// \p E (worker index \p I), returning the last EvalResult.
  using WorkerTask = std::function<EvalResult(Engine &E, size_t I)>;

  struct PoolResult {
    bool Ok = true;                    ///< every task eventually succeeded
    std::vector<EvalResult> PerWorker; ///< final attempt's result, in order
    std::vector<TaskOutcome> Outcomes; ///< per-task verdicts, in order
    std::string Error;  ///< first failure, labeled with its worker index
    unsigned TotalRetries = 0; ///< fresh-worker re-runs across all tasks
    size_t NumFailed = 0;      ///< tasks still failed after all retries
    explicit operator bool() const { return Ok; }
  };

  /// Runs \p Task on every worker concurrently (one thread per worker)
  /// and joins them all before returning — the quiescent point the
  /// counter-aggregation contract requires. Failed tasks are retried on
  /// fresh workers per the FaultPolicy; see "Fault isolation" above.
  PoolResult run(const WorkerTask &Task);

  /// Convenience: every worker evaluates \p Files in order (the same
  /// workload per worker — N workers produce N data sets).
  PoolResult runFiles(const std::vector<std::string> &Files);

  /// Loads a stored profile into every worker (sequentially — profile
  /// loads are I/O-bound and order must be deterministic), so parallel
  /// optimizing builds all see the same weights. Returns the first
  /// non-ok result, or the last result when all succeed.
  ProfileOpResult loadProfileAll(const std::string &Path);

  /// Folds every worker's live counters into \p Db — one data set per
  /// worker holding any counts, in worker-index order — re-interning the
  /// points into \p Sources. Does not reset the counters; call only at a
  /// quiescent point (run() returning is one).
  void mergeCountersInto(ProfileDatabase &Db, SourceObjectTable &Sources);

  /// Index-wise sum of every worker's allocation-site profile, folded in
  /// worker order. Sites are a closed enum, so the merge is deterministic
  /// by construction — the same guarantee the counter merge gives — and a
  /// quiescent point (run() returned) is required, like
  /// mergeCountersInto.
  std::array<AllocSiteStats, NumAllocSites> mergedSiteStats() const;

  /// The pool equivalent of Engine::storeProfile: merges all workers'
  /// counters on top of the coordinator's database, stores atomically,
  /// and on success commits the merge and resets every worker's counters
  /// (on failure counters are preserved, like storeProfile). DatasetsMerged
  /// reports how many workers contributed a non-empty data set.
  ProfileOpResult storeMergedProfile(const std::string &Path);

  /// Registers \p Path's contents in every worker's source manager, so a
  /// subsequent loadProfileAll checks staleness against the code about to
  /// be compiled (mirrors pgmpi's pre-registration).
  void preRegisterFile(const std::string &Path);

  /// Retired: always null, read by pgmpbench; the next benchmark change
  /// drops bus() and RetiredBus.
  struct RetiredBus {
    uint64_t epochsPublished() const { return 0; }
  };
  RetiredBus *bus() { return nullptr; }

private:
  /// Builds a replacement engine with the pool's options, replaying
  /// pre-registered files and any profile loaded through loadProfileAll,
  /// so a retried task sees the same session state the original did.
  std::unique_ptr<Engine> freshWorker();

  std::vector<std::unique_ptr<Engine>> Workers;
  EngineOptions Opts;
  FaultPolicy Policy;
  std::vector<std::string> PreRegistered; ///< replayed into fresh workers
  std::string LoadedProfilePath;          ///< ditto, when non-empty
};

} // namespace pgmp

#endif // PGMP_CORE_ENGINEPOOL_H
