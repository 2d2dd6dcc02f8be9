//===- tests/ProfileSnapshotTest.cpp - The unified read path --------------===//
//
// ProfileSnapshot is the one profile read surface (replacing the three
// historical paths: profileQuery, profileQueryOpt, Engine::weightOf) and
// EngineOptions the one configuration surface (replacing the Engine::set*
// pile). These tests pin their semantics:
//   - weight() collapses no-data and never-hit to 0.0 (profile-query);
//   - weightOpt() distinguishes them (profile-query*);
//   - snapshots are immutable point-in-time views that share the
//     database's own state until its next mutation;
//   - EngineOptions reproduce the old construct-then-set behavior
//     exactly, including the never-instrumented prelude.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "profile/ProfileIO.h"
#include "reader/Reader.h"
#include "support/Checksum.h"

#include <algorithm>
#include <optional>

using namespace pgmp;
using namespace pgmp::testutil;

namespace {

//===----------------------------------------------------------------------===//
// ProfileSnapshot semantics
//===----------------------------------------------------------------------===//

TEST(ProfileSnapshot, EmptyDatabaseHasNoData) {
  Engine E;
  ProfileSnapshot S = E.snapshot();
  EXPECT_FALSE(S.hasData());
  EXPECT_EQ(S.datasets(), 0u);
  EXPECT_EQ(S.points(), 0u);
  const SourceObject *P = E.profilePoint("x.scm", 0, 3);
  EXPECT_EQ(S.weight(P), 0.0) << "no data collapses to cold";
  EXPECT_FALSE(S.weightOpt(P).has_value()) << "no data is distinguishable";
  EXPECT_EQ(S.count(P), 0u);
  EXPECT_FALSE(S.weightOpt(nullptr).has_value());
  EXPECT_EQ(S.weight(nullptr), 0.0);
}

TEST(ProfileSnapshot, ColdPointDistinguishedFromNoData) {
  Engine E(withInstrumentation());
  evalOk(E, "(define (f) 1) (f)");
  E.foldCountersIntoProfile();
  ProfileSnapshot S = E.snapshot();
  EXPECT_TRUE(S.hasData());
  EXPECT_EQ(S.datasets(), 1u);
  const SourceObject *Cold = E.profilePoint("never-ran.scm", 0, 3);
  std::optional<double> W = S.weightOpt(Cold);
  ASSERT_TRUE(W.has_value()) << "data is loaded: cold is 0.0, not nullopt";
  EXPECT_EQ(*W, 0.0);
  EXPECT_EQ(S.weight(Cold), 0.0);
  EXPECT_EQ(S.count(Cold), 0u);
}

TEST(ProfileSnapshot, WeightsAndCountsOfHotPoints) {
  Engine E(withInstrumentation());
  //         0123456789012345678
  evalOk(E, "(define (f) (+ 1 2)) (f) (f) (f)");
  E.foldCountersIntoProfile();
  ProfileSnapshot S = E.snapshot();
  const SourceObject *Body = E.profilePoint("<eval>", 12, 19);
  EXPECT_GT(S.weight(Body), 0.0);
  EXPECT_LE(S.weight(Body), 1.0);
  EXPECT_EQ(S.count(Body), 3u) << "(f) ran three times";
}

TEST(ProfileSnapshot, IsAnImmutablePointInTimeView) {
  Engine E(withInstrumentation());
  evalOk(E, "(define (f) 1) (f)");
  E.foldCountersIntoProfile();
  ProfileSnapshot Before = E.snapshot();
  uint64_t Datasets = Before.datasets();
  size_t Points = Before.points();
  ASSERT_GT(Points, 0u);

  E.clearProfile();
  EXPECT_FALSE(E.snapshot().hasData()) << "the database moved on";
  EXPECT_EQ(Before.datasets(), Datasets) << "the old view did not";
  EXPECT_EQ(Before.points(), Points);
}

TEST(ProfileSnapshot, BackingDataSharedBetweenMutations) {
  Engine E(withInstrumentation());
  evalOk(E, "(define (f) 1) (f)");
  E.foldCountersIntoProfile();
  ProfileSnapshot A = E.snapshot();
  ProfileSnapshot B = E.snapshot();
  EXPECT_EQ(&A.entries(), &B.entries())
      << "snapshots between mutations share one backing copy";
  evalOk(E, "(f)");
  E.foldCountersIntoProfile();
  ProfileSnapshot C = E.snapshot();
  EXPECT_NE(&A.entries(), &C.entries()) << "a mutation rebuilds the cache";
}

TEST(ProfileSnapshot, FirstQueryAfterLoadSharesTheDatabase) {
  // Taking a snapshot copies nothing: the first query after a load reads
  // the very map the loader filled.
  std::string Path = tempPath("shared.profile");
  {
    Engine W(withInstrumentation());
    evalOk(W, "(define (f) 1) (f)");
    ASSERT_TRUE(W.storeProfile(Path));
  }
  Engine E;
  ASSERT_TRUE(E.loadProfile(Path));
  const ProfileDatabase &Db = E.context().ProfileDb;
  ASSERT_GT(Db.numPoints(), 0u);
  EXPECT_EQ(&Db.entries(), &Db.snapshot().entries());
  ProfileSnapshot S = E.snapshot();
  EXPECT_EQ(&S.entries(), &Db.entries());
  // A write while S holds the state clones it; S keeps the old view.
  size_t Points = S.points();
  E.clearProfile();
  EXPECT_EQ(S.points(), Points);
  EXPECT_EQ(Db.numPoints(), 0u);
}

TEST(ProfileSnapshot, SchemeQueriesAgreeWithSnapshot) {
  // The Scheme primitives read through the same snapshot surface; the
  // three query forms must stay mutually consistent.
  Engine E(withInstrumentation());
  evalOk(E, "(define pp (make-profile-point \"q.scm\"))"
            "(define-syntax (probe stx)"
            "  (syntax-case stx ()"
            "    [(_ e) (annotate-expr #'e pp)]))"
            "(define (f x) (probe (* x 2)))"
            "(f 1) (f 2)");
  E.foldCountersIntoProfile();
  EXPECT_EQ(evalOk(E, "(profile-query-count pp)"), "2");
  EXPECT_EQ(evalOk(E, "(= (profile-query pp) (profile-query* pp))"), "#t");
}

//===----------------------------------------------------------------------===//
// EngineOptions
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Point identity
//===----------------------------------------------------------------------===//

TEST(PointIdentity, EngineProfilePointAgreesWithReaderAndProfile) {
  Engine E;
  Context &C = E.context();
  std::vector<Value> Forms =
      readString(C.TheHeap, C.Symbols, C.Sources, "(+ 1 2)", "p.scm");
  ASSERT_EQ(Forms.size(), 1u);
  const SourceObject *Read = syntaxSource(Forms[0]);
  EXPECT_EQ(E.profilePoint("p.scm", 0, 7), Read);
  EXPECT_NE(E.profilePoint("q.scm", 0, 7), Read);

  std::string Text = "pgmp-profile\t2\ndatasets\t1\n"
                     "point\tp.scm\t0\t7\t1\t1\t-\t1\t3\n";
  Text += "crc\t" + hex32(crc32(Text)) + "\n";
  std::string Err;
  ASSERT_TRUE(parseProfile(Text, C.Sources, C.ProfileDb, Err)) << Err;
  EXPECT_EQ(E.snapshot().count(Read), 3u);
  EXPECT_EQ(E.snapshot().count(E.profilePoint("p.scm", 0, 7)), 3u);
}

/// A v2 profile with \p Records (each ending in a newline) and a footer.
std::string v2Text(const std::vector<std::string> &Records) {
  std::string Out = "pgmp-profile\t2\ndatasets\t3\n";
  for (const std::string &R : Records)
    Out += R;
  Out += "crc\t" + hex32(crc32(Out)) + "\n";
  return Out;
}

std::vector<std::string> sortedRecords() {
  // In serialized order: by file name, then offsets.
  return {"point\t/home/user/project/alpha.scm\t0\t9\t1\t1\t-\t1\t9\n",
          "point\t/home/user/project/alpha.scm\t3\t5\t1\t4\t-\t0.5\t4\n",
          "point\t/home/user/project/alpha.scm%pgmp0\t0\t1\t1\t1\tg\t2\t6\n",
          "point\t/home/user/project/beta.scm\t0\t9\t1\t1\t-\t"
          "0.33333333333333331\t1\n",
          "point\t/home/user/project/beta.scm\t3\t5\t1\t4\t-\t0\t0\n",
          "point\tgamma.scm\t3\t5\t2\t1\t-\t1.25\t8\n"};
}

TEST(PointIdentity, ShuffledRecordsLoadTheSameDatabase) {
  std::string Sorted = v2Text(sortedRecords());
  std::vector<std::string> Shuffled = sortedRecords();
  // Interleave the files so no two neighbours share one.
  std::swap(Shuffled[1], Shuffled[3]);
  std::swap(Shuffled[2], Shuffled[5]);
  std::reverse(Shuffled.begin(), Shuffled.end());

  SourceObjectTable T1, T2;
  ProfileDatabase D1, D2;
  std::string Err;
  ASSERT_TRUE(parseProfile(Sorted, T1, D1, Err)) << Err;
  ASSERT_TRUE(parseProfile(v2Text(Shuffled), T2, D2, Err)) << Err;
  EXPECT_EQ(D2.numPoints(), 6u);
  EXPECT_EQ(serializeProfile(D1), Sorted);
  EXPECT_EQ(serializeProfile(D2), Sorted);
  // Equal offsets in different files stayed distinct points.
  EXPECT_NE(T2.intern("/home/user/project/alpha.scm", 3, 5, 1, 1),
            T2.intern("/home/user/project/beta.scm", 3, 5, 1, 1));
}

TEST(PointIdentity, DuplicateAfterAFileSwitchIsRejected) {
  std::vector<std::string> Records = sortedRecords();
  Records.push_back(Records[1]); // alpha again, after gamma
  SourceObjectTable T;
  ProfileDatabase Db;
  ProfileLoadReport Report;
  std::string Err;
  EXPECT_FALSE(parseProfile(v2Text(Records), T, Db, Err, nullptr, &Report));
  EXPECT_EQ(Err, "duplicate point record on line 9");
  EXPECT_EQ(Report.Status, ProfileLoadStatus::Malformed);
  EXPECT_EQ(Db.numPoints(), 0u) << "a rejected profile merges nothing";
}

TEST(EngineOptions, DefaultsReproducePlainEngine) {
  Engine A;
  Engine B{EngineOptions{}};
  EXPECT_EQ(A.instrumentation(), B.instrumentation());
  EXPECT_EQ(A.strictProfile(), B.strictProfile());
  EXPECT_EQ(A.statsEnabled(), B.statsEnabled());
  EXPECT_EQ(evalOk(A, "(+ 1 2)"), evalOk(B, "(+ 1 2)"));
}

TEST(EngineOptions, PreludeIsNeverInstrumented) {
  Engine E(withInstrumentation());
  EXPECT_TRUE(E.instrumentation());
  EXPECT_EQ(E.context().Counters.size(), 0u)
      << "options apply after the prelude: no prelude counters";
  evalOk(E, "(+ 1 2)");
  EXPECT_GT(E.context().Counters.size(), 0u) << "user code is instrumented";
}

TEST(EngineOptions, OptionsMatchTheOldSetterProtocol) {
  EngineOptions Opts;
  Opts.StrictProfile = true;
  Opts.StatsEnabled = true;
  Engine E(Opts);
  EXPECT_TRUE(E.strictProfile());
  EXPECT_TRUE(E.statsEnabled());
  EXPECT_FALSE(E.instrumentation());
}

} // namespace
