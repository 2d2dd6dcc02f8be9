//===- bench/BenchProfileOps.cpp - Section 4.4: API costs; Figure 3 -------===//
//
// The paper claims: "loading profile information is linear in the number
// of profile points, and querying the weight of a particular profile
// point is amortized constant-time." We regenerate both curves, plus the
// data-set merge of Figure 3 at scale.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "profile/ProfileDatabase.h"
#include "profile/ProfileIO.h"

using namespace pgmp;
using namespace pgmp::bench;

namespace {

/// Builds a serialized profile with N points, spread round-robin over
/// \p Files files: "big.scm" for one, else realistic absolute paths, too
/// long for a string's small buffer (so a loader that copies the file
/// name per point shows it).
std::string makeProfileText(int N, SourceObjectTable &SOT, int Files = 1) {
  std::vector<std::string> Names;
  for (int F = 0; F < Files; ++F)
    Names.push_back(Files == 1 ? std::string("big.scm")
                               : "/home/build/project/src/module-" +
                                     std::to_string(F) + ".scm");
  ProfileDatabase Db;
  CounterStore CS;
  Rng R(3);
  for (int I = 0; I < N; ++I) {
    const SourceObject *P =
        SOT.intern(Names[static_cast<size_t>(I % Files)],
                   static_cast<uint32_t>(I * 10),
                   static_cast<uint32_t>(I * 10 + 5), 1, 1);
    *CS.counterFor(P) = R.below(100000) + 1;
  }
  Db.addDataset(CS);
  return serializeProfile(Db);
}

/// Times parseProfile of an N-point profile over \p Files files.
void loadProfileBench(benchmark::State &State, int Files) {
  int N = static_cast<int>(State.range(0));
  SourceObjectTable SourceSOT;
  std::string Text = makeProfileText(N, SourceSOT, Files);
  for (auto _ : State) {
    SourceObjectTable SOT;
    ProfileDatabase Db;
    std::string Err;
    bool Ok = parseProfile(Text, SOT, Db, Err);
    benchmark::DoNotOptimize(Ok);
    require(Ok, Err);
  }
  State.SetItemsProcessed(State.iterations() * N);
}

/// load-profile: expect roughly linear scaling in N (check the ns/point
/// column stays flat).
void BM_LoadProfile(benchmark::State &State) { loadProfileBench(State, 1); }

/// The same over 16 files with long absolute paths, as real profiles
/// have: the per-point cost must not grow with the file-name length.
void BM_LoadProfileLongPaths(benchmark::State &State) {
  loadProfileBench(State, 16);
}

/// profile-query: expect flat time regardless of database size.
void BM_ProfileQuery(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  SourceObjectTable SOT;
  ProfileDatabase Db;
  std::string Text = makeProfileText(N, SOT);
  std::string Err;
  require(parseProfile(Text, SOT, Db, Err), Err);

  std::vector<const SourceObject *> Points;
  Rng R(9);
  for (int I = 0; I < 512; ++I) {
    int P = static_cast<int>(R.below(static_cast<uint64_t>(N)));
    Points.push_back(SOT.intern("big.scm", static_cast<uint32_t>(P * 10),
                                static_cast<uint32_t>(P * 10 + 5), 1, 1));
  }
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Db.weight(Points[I++ & 511]));
  }
}

/// Figure 3 merging at scale: folding a data set into a database.
void BM_MergeDataset(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  SourceObjectTable SOT;
  CounterStore CS;
  Rng R(17);
  for (int I = 0; I < N; ++I) {
    const SourceObject *P =
        SOT.intern("big.scm", static_cast<uint32_t>(I * 10),
                   static_cast<uint32_t>(I * 10 + 5), 1, 1);
    *CS.counterFor(P) = R.below(100000) + 1;
  }
  for (auto _ : State) {
    ProfileDatabase Db;
    Db.addDataset(CS);
    Db.addDataset(CS);
    benchmark::DoNotOptimize(Db.numPoints());
  }
  State.SetItemsProcessed(State.iterations() * N * 2);
}

/// store-profile serialization cost.
void BM_SerializeProfile(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  SourceObjectTable SOT;
  ProfileDatabase Db;
  std::string Text = makeProfileText(N, SOT);
  std::string Err;
  require(parseProfile(Text, SOT, Db, Err), Err);
  for (auto _ : State)
    benchmark::DoNotOptimize(serializeProfile(Db));
  State.SetItemsProcessed(State.iterations() * N);
}

} // namespace

BENCHMARK(BM_LoadProfile)->RangeMultiplier(10)->Range(100, 1000000);
BENCHMARK(BM_LoadProfileLongPaths)->RangeMultiplier(10)->Range(100, 1000000);
BENCHMARK(BM_ProfileQuery)->RangeMultiplier(10)->Range(100, 1000000);
BENCHMARK(BM_MergeDataset)->RangeMultiplier(10)->Range(100, 100000);
BENCHMARK(BM_SerializeProfile)->RangeMultiplier(10)->Range(100, 100000);

BENCHMARK_MAIN();
