//===- profile/ProfileSnapshot.h - Unified profile queries ----*- C++ -*-===//
///
/// \file
/// The one profile read path. Historically profile data was queried three
/// ways (a collapsing query, an optional-returning query, and an
/// offset-based weight lookup) with subtly different semantics; those
/// shims are gone. A ProfileSnapshot is the one immutable view:
///
///   ProfileSnapshot S = E.snapshot();          // or Ctx.ProfileDb.snapshot()
///   S.weight(pt);     // [0,1]; 0.0 when unknown or no data (profile-query)
///   S.weightOpt(pt);  // nullopt when no data / unknown point (profile-query*)
///   S.count(pt);      // raw total hit count; 0 when unknown
///
/// A snapshot is a point-in-time view: queries against it are stable even
/// while the underlying database keeps merging data sets, and — because
/// the backing data is shared and never written while a snapshot holds it
/// — snapshots are cheap to copy, safe to hand to other threads, and O(1)
/// to take (the database's own state is the backing data, copy-on-write).
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_PROFILE_PROFILESNAPSHOT_H
#define PGMP_PROFILE_PROFILESNAPSHOT_H

#include "profile/SourceObject.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

namespace pgmp {

/// Per-point persisted profile state: the running sum of per-dataset
/// weights (Figure 3's merge state) plus the raw hit total.
struct ProfileEntry {
  double WeightSum = 0; ///< sum of per-dataset weights
  uint64_t TotalCount = 0;
};

/// The backing data of a snapshot, and the database's own state: a
/// ProfileDatabase writes it only while no snapshot shares it.
struct ProfileSnapshotData {
  std::unordered_map<const SourceObject *, ProfileEntry> Entries;
  uint64_t NumDatasets = 0;
};

/// An immutable, shareable view of profile data at one point in time.
/// Default-constructed snapshots behave like an empty database.
class ProfileSnapshot {
public:
  ProfileSnapshot() = default;
  explicit ProfileSnapshot(std::shared_ptr<const ProfileSnapshotData> Data)
      : Data(std::move(Data)) {}

  /// Weight of \p Pt averaged over all data sets, collapsing "no profile
  /// data" and "point never seen" to 0.0 — the profile-query semantics,
  /// where meta-programs treat unknown as cold.
  double weight(const SourceObject *Pt) const {
    return weightOpt(Pt).value_or(0.0);
  }

  /// Weight of \p Pt, or nullopt when no profile data is loaded or \p Pt
  /// is null — the profile-query* semantics. A present 0.0 means "data is
  /// loaded and this point was never hit".
  std::optional<double> weightOpt(const SourceObject *Pt) const {
    if (!Data || Data->NumDatasets == 0 || !Pt)
      return std::nullopt;
    auto It = Data->Entries.find(Pt);
    if (It == Data->Entries.end())
      return 0.0;
    return It->second.WeightSum / static_cast<double>(Data->NumDatasets);
  }

  /// Raw total hit count of \p Pt across all data sets; 0 when unknown.
  uint64_t count(const SourceObject *Pt) const {
    if (!Data || !Pt)
      return 0;
    auto It = Data->Entries.find(Pt);
    return It == Data->Entries.end() ? 0 : It->second.TotalCount;
  }

  /// True once at least one data set is present.
  bool hasData() const { return Data && Data->NumDatasets > 0; }

  uint64_t datasets() const { return Data ? Data->NumDatasets : 0; }
  size_t points() const { return Data ? Data->Entries.size() : 0; }

  /// Raw per-point state, for reports and serialization-adjacent code.
  /// Empty map when the snapshot has no data.
  const std::unordered_map<const SourceObject *, ProfileEntry> &
  entries() const {
    static const std::unordered_map<const SourceObject *, ProfileEntry> Empty;
    return Data ? Data->Entries : Empty;
  }

private:
  std::shared_ptr<const ProfileSnapshotData> Data;
};

} // namespace pgmp

#endif // PGMP_PROFILE_PROFILESNAPSHOT_H
