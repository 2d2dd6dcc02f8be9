//===- profile/ProfileDatabase.cpp ----------------------------------------===//

#include "profile/ProfileDatabase.h"

#include "profile/ShardedCounterStore.h"

using namespace pgmp;

ProfileDatabase::ProfileDatabase(const ProfileDatabase &Other)
    : Entries(Other.Entries), NumDatasets(Other.NumDatasets) {}

ProfileDatabase &ProfileDatabase::operator=(const ProfileDatabase &Other) {
  if (this == &Other)
    return *this;
  Entries = Other.Entries;
  NumDatasets = Other.NumDatasets;
  ++Version; // the old snapshot cache no longer reflects this state
  return *this;
}

void ProfileDatabase::addDataset(const CounterRows &Rows) {
  uint64_t Max = 0;
  for (const auto &[Src, Count] : Rows)
    Max = std::max(Max, Count);
  if (Max == 0)
    return;
  for (const auto &[Src, Count] : Rows) {
    Entry &E = Entries[Src];
    E.WeightSum += static_cast<double>(Count) / static_cast<double>(Max);
    E.TotalCount += Count;
  }
  ++NumDatasets;
  ++Version;
}

void ProfileDatabase::addDataset(const CounterStore &Counters) {
  addDataset(Counters.snapshot());
}

void ProfileDatabase::addDataset(const ShardedCounterStore &Counters) {
  addDataset(Counters.snapshot());
}

ProfileSnapshot ProfileDatabase::snapshot() const {
  std::lock_guard<std::mutex> Lock(SnapMu);
  if (!Cache || CacheVersion != Version) {
    auto Data = std::make_shared<ProfileSnapshotData>();
    Data->Entries = Entries;
    Data->NumDatasets = NumDatasets;
    Cache = std::move(Data);
    CacheVersion = Version;
  }
  return ProfileSnapshot(Cache);
}

std::optional<double> ProfileDatabase::weight(const SourceObject *Src) const {
  if (NumDatasets == 0)
    return std::nullopt;
  auto It = Entries.find(Src);
  if (It == Entries.end())
    return 0.0;
  return It->second.WeightSum / static_cast<double>(NumDatasets);
}

void ProfileDatabase::clear() {
  Entries.clear();
  NumDatasets = 0;
  ++Version;
}

bool ProfileDatabase::mergeEntry(const SourceObject *Src, const Entry &E) {
  auto [It, Inserted] = Entries.try_emplace(Src);
  It->second.WeightSum += E.WeightSum;
  It->second.TotalCount += E.TotalCount;
  ++Version;
  return Inserted;
}

void ProfileDatabase::merge(ProfileDatabase &&Other) {
  NumDatasets += Other.NumDatasets;
  if (Entries.empty())
    Entries = std::move(Other.Entries);
  else
    for (const auto &[Src, E] : Other.Entries)
      mergeEntry(Src, E);
  ++Version;
}
