//===- tests/ScopeTest.cpp - Scope sets and binding resolution ------------===//

#include "syntax/Heap.h"
#include "syntax/SymbolTable.h"
#include "syntax/Syntax.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

using namespace pgmp;

namespace {

/// The set holding \p Ids, added in the order given.
ScopeSet setOf(ScopeSetTable &T, std::initializer_list<ScopeId> Ids) {
  ScopeSet S;
  for (ScopeId Id : Ids)
    S = T.withScope(S, Id);
  return S;
}

TEST(ScopeSet, AddFlipContains) {
  ScopeSetTable T;
  ScopeSet S;
  EXPECT_EQ(S.size(), 0u);
  ScopeSet S1 = T.withScope(S, 5);
  EXPECT_TRUE(S1.contains(5));
  EXPECT_FALSE(S.contains(5)) << "withScope must not mutate";
  ScopeSet S2 = T.withScope(S1, 5);
  EXPECT_EQ(S2.size(), 1u);
  ScopeSet S3 = T.flipped(S1, 5);
  EXPECT_FALSE(S3.contains(5));
  ScopeSet S4 = T.flipped(S3, 5);
  EXPECT_TRUE(S4.contains(5));
}

TEST(ScopeSet, SubsetRules) {
  ScopeSetTable T;
  ScopeSet Empty;
  ScopeSet A = setOf(T, {1, 3});
  ScopeSet B = T.withScope(A, 7);
  EXPECT_TRUE(Empty.isSubsetOf(A));
  EXPECT_TRUE(A.isSubsetOf(B));
  EXPECT_FALSE(B.isSubsetOf(A));
  EXPECT_TRUE(A.isSubsetOf(A));
  ScopeSet C = T.withScope(Empty, 2);
  EXPECT_FALSE(C.isSubsetOf(A));
  EXPECT_FALSE(A.isSubsetOf(Empty));
  EXPECT_FALSE(setOf(T, {1, 4}).isSubsetOf(B)) << "same size, not a subset";
}

TEST(ScopeSet, OrderInsensitiveEquality) {
  ScopeSetTable T;
  ScopeSet A = setOf(T, {9, 2, 5});
  ScopeSet B = setOf(T, {2, 5, 9});
  EXPECT_TRUE(A == B);
}

TEST(ScopeSet, EqualContentsInternToOnePointer) {
  ScopeSetTable T;
  ScopeSet A = setOf(T, {2, 5, 9});
  // The same contents built in other orders, and by a flip, are the same
  // interned set.
  for (ScopeSet B : {setOf(T, {9, 2, 5}), setOf(T, {5, 9, 2}),
                     setOf(T, {9, 5, 2}), T.flipped(setOf(T, {2, 9}), 5)}) {
    EXPECT_TRUE(A == B);
    EXPECT_EQ(B.describe(), "{2,5,9}");
  }
  // One set per distinct contents: the 7 non-empty subsets of {2,5,9}.
  EXPECT_EQ(T.numSets(), 7u);
  EXPECT_FALSE(A == setOf(T, {2, 5}));
  EXPECT_FALSE(A == ScopeSet());
}

TEST(ScopeSet, FlipTwiceReturnsTheOriginal) {
  ScopeSetTable T;
  for (ScopeSet S : {ScopeSet(), setOf(T, {1}), setOf(T, {1, 4, 8})})
    for (ScopeId Id : {1u, 4u, 6u, 9u}) {
      EXPECT_TRUE(T.flipped(T.flipped(S, Id), Id) == S)
          << S.describe() << " flipping " << Id;
      EXPECT_NE(T.flipped(S, Id).contains(Id), S.contains(Id));
    }
  // Flipping a set's only scope gives back the empty set itself.
  EXPECT_TRUE(T.flipped(setOf(T, {3}), 3) == ScopeSet());
}

TEST(ScopeSet, WithScopeIsIdempotent) {
  ScopeSetTable T;
  ScopeSet A = setOf(T, {2, 7});
  ScopeSet B = T.withScope(A, 4);
  EXPECT_TRUE(T.withScope(B, 4) == B);
  EXPECT_TRUE(T.withScope(A, 7) == A) << "adding a member changes nothing";
  EXPECT_EQ(B.describe(), "{2,4,7}");
}

TEST(ScopeSet, DescribeListsIdsInOrder) {
  ScopeSetTable T;
  EXPECT_EQ(ScopeSet().describe(), "{}");
  EXPECT_EQ(setOf(T, {30, 4, 100, 7}).describe(), "{4,7,30,100}");
}

TEST(ScopeSet, MatchesAReferenceSetAcrossManyOperations) {
  // Many distinct sets and scopes, so the memo's slots collide and are
  // overwritten, and some sets outgrow the stack buffer used to build
  // them: every result must still equal the plain sorted-set answer.
  ScopeSetTable T;
  std::vector<std::pair<ScopeSet, std::set<ScopeId>>> Pool = {{ScopeSet(), {}}};
  uint64_t X = 0x9E3779B97F4A7C15ull;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  for (int Step = 0; Step < 20000; ++Step) {
    auto [S, Ref] = Pool[Next() % Pool.size()];
    auto Id = static_cast<ScopeId>(Next() % 48);
    bool Flip = Next() % 2;
    ScopeSet Out = Flip ? T.flipped(S, Id) : T.withScope(S, Id);
    if (Flip && Ref.count(Id))
      Ref.erase(Id);
    else
      Ref.insert(Id);
    ASSERT_EQ(Out.size(), Ref.size());
    for (ScopeId R : Ref)
      ASSERT_TRUE(Out.contains(R));
    if (Pool.size() < 4096)
      Pool.emplace_back(Out, Ref);
  }
  // Each distinct content has exactly one set.
  std::map<std::set<ScopeId>, ScopeSet> ByContent;
  for (const auto &[S, Ref] : Pool) {
    auto [It, New] = ByContent.emplace(Ref, S);
    EXPECT_TRUE(It->second == S);
  }
}

struct BindingFixture : ::testing::Test {
  Heap H;
  SymbolTable ST;
  ScopeSetTable Sets;
  BindingTable BT;

  Syntax *makeId(const char *Name, ScopeSet Scopes) {
    return makeSyntax(H, ST.internValue(Name), Scopes, nullptr).asSyntax();
  }
  ScopeSet with(ScopeSet S, ScopeId Id) { return Sets.withScope(S, Id); }
};

TEST_F(BindingFixture, ResolveFindsLargestSubset) {
  Symbol *X = ST.intern("x");
  ScopeSet Outer = with(ScopeSet(), 1);
  ScopeSet Inner = with(Outer, 2);
  BT.add(X, Outer, 100);
  BT.add(X, Inner, 200);

  // A reference with both scopes sees the inner binding.
  auto R = BT.resolve(X, with(Inner, 3));
  EXPECT_EQ(R.Label, 200u);
  EXPECT_FALSE(R.Ambiguous);

  // A reference with only the outer scope sees the outer binding.
  R = BT.resolve(X, Outer);
  EXPECT_EQ(R.Label, 100u);

  // A reference with no scopes sees nothing.
  R = BT.resolve(X, ScopeSet());
  EXPECT_EQ(R.Label, 0u);
}

TEST_F(BindingFixture, AmbiguityDetected) {
  Symbol *X = ST.intern("x");
  BT.add(X, with(ScopeSet(), 1), 100);
  BT.add(X, with(ScopeSet(), 2), 200);
  auto R = BT.resolve(X, with(with(ScopeSet(), 1), 2));
  EXPECT_TRUE(R.Ambiguous);
}

TEST_F(BindingFixture, DifferentSymbolsDoNotCollide) {
  BT.add(ST.intern("x"), ScopeSet(), 1);
  auto R = BT.resolve(ST.intern("y"), with(ScopeSet(), 1));
  EXPECT_EQ(R.Label, 0u);
}

TEST_F(BindingFixture, FreeIdentifierEqual) {
  Symbol *X = ST.intern("x");
  ScopeSet S1 = with(ScopeSet(), 1);
  BT.add(X, S1, 42);
  Syntax *A = makeId("x", S1);
  Syntax *B = makeId("x", with(S1, 9));
  Syntax *C = makeId("x", ScopeSet());
  // A and B resolve to the same binding.
  EXPECT_TRUE(freeIdentifierEqual(BT, A, B));
  // C is unbound; A is bound: not equal.
  EXPECT_FALSE(freeIdentifierEqual(BT, A, C));
  // Two unbound identifiers of the same name are free-identifier=?.
  Syntax *D = makeId("zz", ScopeSet());
  Syntax *E = makeId("zz", with(ScopeSet(), 3));
  EXPECT_TRUE(freeIdentifierEqual(BT, D, E));
}

TEST_F(BindingFixture, BoundIdentifierEqual) {
  ScopeSet S1 = with(ScopeSet(), 1);
  Syntax *A = makeId("x", S1);
  Syntax *B = makeId("x", S1);
  Syntax *C = makeId("x", with(S1, 2));
  Syntax *D = makeId("y", S1);
  EXPECT_TRUE(boundIdentifierEqual(A, B));
  EXPECT_FALSE(boundIdentifierEqual(A, C));
  EXPECT_FALSE(boundIdentifierEqual(A, D));
}

TEST_F(BindingFixture, AdjustScopeRebuildsTree) {
  Value List =
      H.list({makeSyntax(H, ST.internValue("a"), ScopeSet(), nullptr),
              makeSyntax(H, ST.internValue("b"), ScopeSet(), nullptr)});
  Value Wrapped = makeSyntax(H, List, ScopeSet(), nullptr);
  Value Adjusted = adjustScope(H, Sets, Wrapped, 7, ScopeOp::Add);

  // Original untouched.
  EXPECT_FALSE(Wrapped.asSyntax()->Scopes.contains(7));
  EXPECT_TRUE(Adjusted.asSyntax()->Scopes.contains(7));
  Value Inner = syntaxE(Adjusted);
  EXPECT_TRUE(Inner.asPair()->Car.asSyntax()->Scopes.contains(7));

  // Flip removes it again everywhere.
  Value Back = adjustScope(H, Sets, Adjusted, 7, ScopeOp::Flip);
  EXPECT_FALSE(Back.asSyntax()->Scopes.contains(7));
  EXPECT_FALSE(syntaxE(Back).asPair()->Car.asSyntax()->Scopes.contains(7));
}

TEST_F(BindingFixture, SyntaxToDatumStripsAll) {
  Value Id = makeSyntax(H, ST.internValue("a"), with(ScopeSet(), 1),
                        nullptr);
  Value List = makeSyntax(H, H.cons(Id, Value::nil()), ScopeSet(), nullptr);
  Value D = syntaxToDatum(H, List);
  EXPECT_TRUE(D.isPair());
  EXPECT_TRUE(D.asPair()->Car.isSymbol());
}

TEST_F(BindingFixture, DatumToSyntaxCopiesContextScopes) {
  ScopeSet Ctx = with(ScopeSet(), 4);
  Syntax *CtxId = makeId("ctx", Ctx);
  Value D = H.list({ST.internValue("p"), Value::fixnum(1)});
  Value S = datumToSyntax(H, *CtxId, D);
  ASSERT_TRUE(S.isSyntax());
  EXPECT_TRUE(S.asSyntax()->Scopes.contains(4));
  Value Head = syntaxE(S).asPair()->Car;
  ASSERT_TRUE(Head.isSyntax());
  EXPECT_TRUE(Head.asSyntax()->Scopes.contains(4));
  // Already-syntax parts are left alone.
  Value Mixed = H.cons(S, Value::nil());
  Value S2 = datumToSyntax(H, *CtxId, Mixed);
  EXPECT_EQ(syntaxE(S2).asPair()->Car.asSyntax(), S.asSyntax());
}

} // namespace
