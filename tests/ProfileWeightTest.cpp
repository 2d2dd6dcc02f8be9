//===- tests/ProfileWeightTest.cpp - Weights, merging, serialization ------===//
//
// Reproduces Figure 3 of the paper exactly: weights are counts divided by
// the hottest point of the same data set, and data sets merge by
// averaging weights.
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileDatabase.h"
#include "profile/ProfileIO.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace pgmp;

namespace {

struct WeightFixture : ::testing::Test {
  SourceObjectTable SOT;
  ProfileDatabase Db;
  CounterStore Counters;

  const SourceObject *point(const char *File, uint32_t Begin) {
    return SOT.intern(File, Begin, Begin + 1, 1, 1);
  }

  void recordRun(std::vector<std::pair<const SourceObject *, uint64_t>> Run) {
    Counters.clear();
    for (auto &[Src, N] : Run)
      *Counters.counterFor(Src) = N;
    Db.addDataset(Counters);
  }
};

TEST_F(WeightFixture, EmptyDatabaseHasNoData) {
  EXPECT_FALSE(Db.hasData());
  EXPECT_FALSE(Db.weight(point("f", 0)).has_value());
}

TEST_F(WeightFixture, Figure3FirstDataset) {
  // (flag email 'important) runs 5 times; (flag email 'spam) 10 times.
  const SourceObject *Important = point("classify.scm", 10);
  const SourceObject *Spam = point("classify.scm", 20);
  recordRun({{Important, 5}, {Spam, 10}});

  EXPECT_TRUE(Db.hasData());
  EXPECT_DOUBLE_EQ(*Db.weight(Important), 5.0 / 10.0);
  EXPECT_DOUBLE_EQ(*Db.weight(Spam), 10.0 / 10.0);
}

TEST_F(WeightFixture, Figure3MergedDatasets) {
  // First data set: important 5, spam 10. Second: important 100, spam 10.
  const SourceObject *Important = point("classify.scm", 10);
  const SourceObject *Spam = point("classify.scm", 20);
  recordRun({{Important, 5}, {Spam, 10}});
  recordRun({{Important, 100}, {Spam, 10}});

  EXPECT_EQ(Db.numDatasets(), 2u);
  // (0.5 + 100/100) / 2  and  (1 + 10/100) / 2  — exactly Figure 3.
  EXPECT_DOUBLE_EQ(*Db.weight(Important), (0.5 + 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(*Db.weight(Spam), (1.0 + 0.1) / 2.0);
}

TEST_F(WeightFixture, PointMissingFromOneDatasetCountsAsZero) {
  const SourceObject *A = point("f", 0);
  const SourceObject *B = point("f", 5);
  recordRun({{A, 10}});
  recordRun({{A, 10}, {B, 10}});
  EXPECT_DOUBLE_EQ(*Db.weight(A), 1.0);
  EXPECT_DOUBLE_EQ(*Db.weight(B), 0.5);
  // Unknown points have weight 0 once any data exists.
  EXPECT_DOUBLE_EQ(*Db.weight(point("f", 99)), 0.0);
}

TEST_F(WeightFixture, AllZeroDatasetIgnored) {
  const SourceObject *A = point("f", 0);
  recordRun({{A, 0}});
  EXPECT_FALSE(Db.hasData());
  EXPECT_EQ(Db.numDatasets(), 0u);
}

TEST_F(WeightFixture, WeightsAlwaysInUnitInterval) {
  const SourceObject *A = point("f", 0);
  const SourceObject *B = point("f", 5);
  const SourceObject *C = point("f", 9);
  recordRun({{A, 7}, {B, 3}, {C, 1}});
  recordRun({{A, 1}, {B, 1000}});
  for (const SourceObject *P : {A, B, C}) {
    double W = *Db.weight(P);
    EXPECT_GE(W, 0.0);
    EXPECT_LE(W, 1.0);
  }
}

TEST_F(WeightFixture, SerializationRoundTrip) {
  const SourceObject *A = point("lib.scm", 3);
  const SourceObject *B = point("lib.scm", 14);
  recordRun({{A, 5}, {B, 10}});
  recordRun({{A, 100}, {B, 10}});

  std::string Text = serializeProfile(Db);
  ProfileDatabase Db2;
  SourceObjectTable SOT2;
  std::string Err;
  ASSERT_TRUE(parseProfile(Text, SOT2, Db2, Err)) << Err;

  EXPECT_EQ(Db2.numDatasets(), 2u);
  const SourceObject *A2 = SOT2.intern("lib.scm", 3, 4, 1, 1);
  const SourceObject *B2 = SOT2.intern("lib.scm", 14, 15, 1, 1);
  EXPECT_DOUBLE_EQ(*Db2.weight(A2), *Db.weight(A));
  EXPECT_DOUBLE_EQ(*Db2.weight(B2), *Db.weight(B));
}

TEST_F(WeightFixture, SerializationIsDeterministic) {
  const SourceObject *A = point("z.scm", 1);
  const SourceObject *B = point("a.scm", 2);
  recordRun({{A, 1}, {B, 2}});
  EXPECT_EQ(serializeProfile(Db), serializeProfile(Db));
  // Sorted by file then offsets.
  std::string Text = serializeProfile(Db);
  EXPECT_LT(Text.find("a.scm"), Text.find("z.scm"));
}

TEST_F(WeightFixture, LoadMergesAssociatively) {
  // store(d1) then load+merge d2 == both datasets recorded directly.
  const SourceObject *A = point("f", 0);
  const SourceObject *B = point("f", 5);

  ProfileDatabase D1;
  CounterStore C1;
  *C1.counterFor(A) = 5;
  *C1.counterFor(B) = 10;
  D1.addDataset(C1);
  std::string T1 = serializeProfile(D1);

  ProfileDatabase D2;
  CounterStore C2;
  *C2.counterFor(A) = 100;
  *C2.counterFor(B) = 10;
  D2.addDataset(C2);
  std::string T2 = serializeProfile(D2);

  ProfileDatabase Merged;
  std::string Err;
  ASSERT_TRUE(parseProfile(T1, SOT, Merged, Err)) << Err;
  ASSERT_TRUE(parseProfile(T2, SOT, Merged, Err)) << Err;

  recordRun({{A, 5}, {B, 10}});
  recordRun({{A, 100}, {B, 10}});
  EXPECT_DOUBLE_EQ(*Merged.weight(A), *Db.weight(A));
  EXPECT_DOUBLE_EQ(*Merged.weight(B), *Db.weight(B));
}

TEST_F(WeightFixture, ParseRejectsGarbage) {
  ProfileDatabase D;
  std::string Err;
  EXPECT_FALSE(parseProfile("not a profile", SOT, D, Err));
  EXPECT_FALSE(parseProfile("pgmp-profile\t1\npoint\tonly\tthree", SOT, D,
                            Err));
  EXPECT_FALSE(parseProfile("pgmp-profile\t1\nmystery\trecord\n", SOT, D,
                            Err));
  // Missing datasets record.
  EXPECT_FALSE(parseProfile("pgmp-profile\t1\n", SOT, D, Err));
}

TEST_F(WeightFixture, CounterStoreBasics) {
  CounterStore CS;
  const SourceObject *A = point("f", 0);
  uint64_t *Slot = CS.counterFor(A);
  EXPECT_EQ(CS.counterFor(A), Slot) << "stable pointer per point";
  *Slot = 41;
  ++*Slot;
  EXPECT_EQ(CS.count(A), 42u);
  EXPECT_EQ(CS.maxCount(), 42u);
  CS.reset();
  EXPECT_EQ(CS.count(A), 0u);
  EXPECT_EQ(CS.size(), 1u);
  CS.clear();
  EXPECT_EQ(CS.size(), 0u);
}

TEST_F(WeightFixture, GeneratedPointsDeterministic) {
  SourceObjectTable T1, T2;
  const SourceObject *A1 = T1.makeGeneratedPoint("base.scm");
  const SourceObject *B1 = T1.makeGeneratedPoint("base.scm");
  const SourceObject *A2 = T2.makeGeneratedPoint("base.scm");
  const SourceObject *B2 = T2.makeGeneratedPoint("base.scm");
  auto Identity = [](const SourceObject *P) {
    return std::tuple(std::string(P->File), P->BeginOffset, P->EndOffset);
  };
  EXPECT_EQ(Identity(A1), Identity(A2));
  EXPECT_EQ(Identity(B1), Identity(B2));
  EXPECT_NE(Identity(A1), Identity(B1));
  EXPECT_TRUE(A1->Generated);
  // Per-base sequences are independent.
  const SourceObject *C1 = T1.makeGeneratedPoint("other.scm");
  EXPECT_EQ(C1->File, "other.scm%pgmp0");
}

} // namespace
