//===- profile/ProfileDatabase.cpp ----------------------------------------===//

#include "profile/ProfileDatabase.h"

#include "profile/ShardedCounterStore.h"

using namespace pgmp;

ProfileDatabase::ProfileDatabase()
    : Data(std::make_shared<ProfileSnapshotData>()) {}

ProfileDatabase::ProfileDatabase(const ProfileDatabase &Other)
    : Data(Other.share()), Shared(true) {}

ProfileDatabase &ProfileDatabase::operator=(const ProfileDatabase &Other) {
  if (this == &Other)
    return *this;
  std::shared_ptr<ProfileSnapshotData> D = Other.share();
  std::lock_guard<std::mutex> Lock(SnapMu);
  Data = std::move(D);
  Shared = true;
  return *this;
}

std::shared_ptr<ProfileSnapshotData> ProfileDatabase::share() const {
  std::lock_guard<std::mutex> Lock(SnapMu);
  Shared = true;
  return Data;
}

ProfileSnapshotData &ProfileDatabase::writable() {
  if (Shared) {
    auto Clone = std::make_shared<ProfileSnapshotData>(*Data);
    std::lock_guard<std::mutex> Lock(SnapMu);
    Data = std::move(Clone);
    Shared = false;
  }
  return *Data;
}

void ProfileDatabase::addDataset(const CounterRows &Rows) {
  uint64_t Max = 0;
  for (const auto &[Src, Count] : Rows)
    Max = std::max(Max, Count);
  if (Max == 0)
    return;
  ProfileSnapshotData &D = writable();
  for (const auto &[Src, Count] : Rows) {
    Entry &E = D.Entries[Src];
    E.WeightSum += static_cast<double>(Count) / static_cast<double>(Max);
    E.TotalCount += Count;
  }
  ++D.NumDatasets;
}

void ProfileDatabase::addDataset(const CounterStore &Counters) {
  addDataset(Counters.snapshot());
}

void ProfileDatabase::addDataset(const ShardedCounterStore &Counters) {
  addDataset(Counters.snapshot());
}

ProfileSnapshot ProfileDatabase::snapshot() const {
  return ProfileSnapshot(share());
}

std::optional<double> ProfileDatabase::weight(const SourceObject *Src) const {
  if (Data->NumDatasets == 0)
    return std::nullopt;
  auto It = Data->Entries.find(Src);
  if (It == Data->Entries.end())
    return 0.0;
  return It->second.WeightSum / static_cast<double>(Data->NumDatasets);
}

void ProfileDatabase::clear() {
  auto Empty = std::make_shared<ProfileSnapshotData>();
  std::lock_guard<std::mutex> Lock(SnapMu);
  Data = std::move(Empty);
  Shared = false;
}

bool ProfileDatabase::mergeEntry(const SourceObject *Src, const Entry &E) {
  auto [It, Inserted] = writable().Entries.try_emplace(Src);
  It->second.WeightSum += E.WeightSum;
  It->second.TotalCount += E.TotalCount;
  return Inserted;
}

void ProfileDatabase::merge(ProfileDatabase &&Other) {
  ProfileSnapshotData &D = writable();
  D.NumDatasets += Other.numDatasets();
  if (D.Entries.empty())
    D.Entries = std::move(Other.writable().Entries);
  else
    for (const auto &[Src, E] : Other.entries())
      mergeEntry(Src, E);
}
