//===- profile/ProfileDatabase.h - Profile weights ------------*- C++ -*-===//
///
/// \file
/// The paper's (current-profile-information): a map from profile points
/// to *profile weights* (Section 3.2). A weight is count / max-count
/// within one data set, in [0,1]; multiple data sets merge by averaging
/// the weights (Figure 3). The database therefore stores, per point, the
/// running weight sum plus the number of data sets merged so far.
///
/// Reads go through ProfileSnapshot (snapshot()), an immutable shareable
/// view that is safe to query from any thread. The database keeps its
/// state in the very data a snapshot shares, copy-on-write: snapshot() is
/// O(1) and copies nothing, and the first mutation after a snapshot (or
/// after copying the database, which shares the state the same way)
/// clones the state. snapshot() may be called from several threads at
/// once, but not during a mutation; mutations (addDataset / mergeEntry /
/// merge / clear) run one at a time, which is how the engine uses it
/// (EnginePool merges worker data sets from the coordinating thread, in
/// worker order, so the Figure-3 weighted-average merge stays
/// bit-identical to a sequential run).
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_PROFILE_PROFILEDATABASE_H
#define PGMP_PROFILE_PROFILEDATABASE_H

#include "profile/CounterStore.h"
#include "profile/ProfileSnapshot.h"
#include "profile/SourceObject.h"

#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace pgmp {

class ShardedCounterStore;

/// Accumulated profile information across one or more data sets.
class ProfileDatabase {
public:
  /// One run's counters, already aggregated: (point, count) rows. The
  /// common currency between CounterStore, ShardedCounterStore, and the
  /// EnginePool merge (which re-interns rows into the target engine's
  /// point table before folding).
  using CounterRows = std::vector<std::pair<const SourceObject *, uint64_t>>;

  ProfileDatabase();
  ProfileDatabase(const ProfileDatabase &Other);
  ProfileDatabase &operator=(const ProfileDatabase &Other);

  /// Folds one run's (point, count) rows into the database as a new data
  /// set. Weights are counts normalized by the run's hottest point; a
  /// data set whose counters are all zero is ignored.
  void addDataset(const CounterRows &Rows);

  /// Convenience overloads folding a live counter store's snapshot.
  void addDataset(const CounterStore &Counters);
  void addDataset(const ShardedCounterStore &Counters);

  /// An immutable view of the current state; see ProfileSnapshot. Shares
  /// the database's own state: calls between mutations, and entries(),
  /// see one map.
  ProfileSnapshot snapshot() const;

  /// Weight of \p Src averaged over all data sets. Points never seen get
  /// weight 0 when any data is loaded; nullopt when the database is empty.
  /// (Equivalent to snapshot().weightOpt(Src) without the copy.)
  std::optional<double> weight(const SourceObject *Src) const;

  /// True once at least one data set is present.
  bool hasData() const { return Data->NumDatasets > 0; }

  uint64_t numDatasets() const { return Data->NumDatasets; }
  size_t numPoints() const { return Data->Entries.size(); }
  void clear();

  /// Per-point persisted state (see ProfileSnapshot.h; the alias keeps
  /// the long-standing ProfileDatabase::Entry spelling working).
  using Entry = ProfileEntry;

  /// Direct merge used by load-profile: folds previously stored state in,
  /// preserving associativity of merges. Returns true when \p Src had no
  /// entry before (how the loader detects a duplicate point record).
  bool mergeEntry(const SourceObject *Src, const Entry &E);
  /// Folds all of \p Other (data sets and entries) into this database;
  /// an empty database adopts Other's entries without re-inserting them.
  void merge(ProfileDatabase &&Other);
  void mergeDatasetCount(uint64_t N) { writable().NumDatasets += N; }

  const std::unordered_map<const SourceObject *, Entry> &entries() const {
    return Data->Entries;
  }

private:
  /// Hands out Data, marking it shared (snapshot() and copies).
  std::shared_ptr<ProfileSnapshotData> share() const;
  /// Data, ready to be written: cloned first when it was handed out.
  ProfileSnapshotData &writable();

  std::shared_ptr<ProfileSnapshotData> Data; ///< never null
  /// Data was handed out since the last clone: the next write clones it.
  mutable bool Shared = false;
  /// Guards Data and Shared between snapshot() calls and the clone.
  mutable std::mutex SnapMu;
};

} // namespace pgmp

#endif // PGMP_PROFILE_PROFILEDATABASE_H
