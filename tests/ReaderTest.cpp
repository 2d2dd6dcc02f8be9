//===- tests/ReaderTest.cpp - Reader/lexer unit & property tests ----------===//

#include "profile/ProfileIO.h"
#include "profile/SourceObject.h"
#include "reader/Reader.h"
#include "support/Checksum.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"
#include "syntax/Writer.h"

#include <gtest/gtest.h>

using namespace pgmp;

namespace {

struct ReaderFixture : ::testing::Test {
  Heap H;
  SymbolTable ST;
  SourceObjectTable SOT;

  Value readOne(const std::string &Text) {
    Reader R(H, ST, SOT, Text, "test.scm");
    auto V = R.readOne();
    EXPECT_TRUE(V.has_value()) << "no datum in: " << Text;
    return *V;
  }

  std::string readAsDatum(const std::string &Text) {
    WriteOptions Opts;
    Opts.SyntaxAsDatum = true;
    return writeValue(readOne(Text), Opts);
  }

  std::string readError(const std::string &Text) {
    try {
      Reader R(H, ST, SOT, Text, "test.scm");
      R.readAll();
    } catch (const SchemeError &E) {
      return E.render();
    }
    ADD_FAILURE() << "expected a reader error for: " << Text;
    return "";
  }
};

TEST_F(ReaderFixture, ReaderAndProfilePointsAreOnePointer) {
  // The point the reader attaches and the same (file, begin, end) loaded
  // from a stored profile are one interned object.
  Value V = readOne("  (foo bar)");
  const SourceObject *Read = V.asSyntax()->Src;
  std::string Text = "pgmp-profile\t2\ndatasets\t1\n"
                     "point\ttest.scm\t2\t11\t9\t9\t-\t1\t4\n";
  Text += "crc\t" + hex32(crc32(Text)) + "\n";
  ProfileDatabase Db;
  std::string Err;
  ASSERT_TRUE(parseProfile(Text, SOT, Db, Err)) << Err;
  ASSERT_EQ(Db.numPoints(), 1u);
  EXPECT_EQ(Db.entries().begin()->first, Read);
  EXPECT_EQ(Db.weight(Read), 1.0);
  // First intern wins: the profile's line and column do not overwrite
  // the reader's.
  EXPECT_EQ(Read->Line, 1u);
  EXPECT_EQ(Read->Column, 3u);
}

TEST_F(ReaderFixture, EqualOffsetsInTwoFilesAreDistinctPoints) {
  Reader A(H, ST, SOT, "(x y)", "a.scm");
  Reader B(H, ST, SOT, "(x y)", "b.scm");
  const SourceObject *PA = A.readOne()->asSyntax()->Src;
  const SourceObject *PB = B.readOne()->asSyntax()->Src;
  EXPECT_NE(PA, PB);
  EXPECT_EQ(PA->BeginOffset, PB->BeginOffset);
  EXPECT_EQ(PA->EndOffset, PB->EndOffset);
  EXPECT_EQ(PA->File, "a.scm");
  EXPECT_EQ(PB->File, "b.scm");
  EXPECT_NE(PA->FileId, PB->FileId);
  // Re-reading a file finds its existing points.
  Reader A2(H, ST, SOT, "(x y)", "a.scm");
  EXPECT_EQ(A2.readOne()->asSyntax()->Src, PA);
  EXPECT_EQ(SOT.intern("a.scm", 0, 5, 1, 1), PA);
}

TEST_F(ReaderFixture, Atoms) {
  EXPECT_EQ(readAsDatum("42"), "42");
  EXPECT_EQ(readAsDatum("-17"), "-17");
  EXPECT_EQ(readAsDatum("2.5"), "2.5");
  EXPECT_EQ(readAsDatum("-1e3"), "-1e+03"); // shortest round-trip form
  EXPECT_EQ(readAsDatum(".5"), "0.5");
  EXPECT_EQ(readAsDatum("#t"), "#t");
  EXPECT_EQ(readAsDatum("#f"), "#f");
  EXPECT_EQ(readAsDatum("hello"), "hello");
  EXPECT_EQ(readAsDatum("set!"), "set!");
  EXPECT_EQ(readAsDatum("..."), "...");
  EXPECT_EQ(readAsDatum("\"hi\\n\""), "\"hi\\n\"");
  EXPECT_EQ(readAsDatum("#\\a"), "#\\a");
  EXPECT_EQ(readAsDatum("#\\space"), "#\\space");
  EXPECT_EQ(readAsDatum("#\\newline"), "#\\newline");
  EXPECT_EQ(readAsDatum("#\\("), "#\\(");
}

TEST_F(ReaderFixture, SymbolsVsNumbers) {
  EXPECT_EQ(readAsDatum("+"), "+");
  EXPECT_EQ(readAsDatum("-"), "-");
  EXPECT_EQ(readAsDatum("1+"), "1+");
  EXPECT_EQ(readAsDatum("a.b"), "a.b");
}

TEST_F(ReaderFixture, ListsAndNesting) {
  EXPECT_EQ(readAsDatum("(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(readAsDatum("()"), "()");
  EXPECT_EQ(readAsDatum("(a (b (c)) d)"), "(a (b (c)) d)");
  EXPECT_EQ(readAsDatum("[a b]"), "(a b)");
  EXPECT_EQ(readAsDatum("(1 . 2)"), "(1 . 2)");
  EXPECT_EQ(readAsDatum("(1 2 . 3)"), "(1 2 . 3)");
  EXPECT_EQ(readAsDatum("#(1 2 3)"), "#(1 2 3)");
}

TEST_F(ReaderFixture, Abbreviations) {
  EXPECT_EQ(readAsDatum("'x"), "'x");
  EXPECT_EQ(readAsDatum("`x"), "`x");
  EXPECT_EQ(readAsDatum(",x"), ",x");
  EXPECT_EQ(readAsDatum(",@x"), ",@x");
  EXPECT_EQ(readAsDatum("#'x"), "(syntax x)");
  EXPECT_EQ(readAsDatum("#`x"), "(quasisyntax x)");
  EXPECT_EQ(readAsDatum("#,x"), "(unsyntax x)");
  EXPECT_EQ(readAsDatum("#,@x"), "(unsyntax-splicing x)");
}

TEST_F(ReaderFixture, Comments) {
  EXPECT_EQ(readAsDatum("; hi\n42"), "42");
  EXPECT_EQ(readAsDatum("#| block #| nested |# |# 7"), "7");
  EXPECT_EQ(readAsDatum("#;(skipped datum) 9"), "9");
  EXPECT_EQ(readAsDatum("(1 #;2 3)"), "(1 3)");
}

TEST_F(ReaderFixture, SourceObjectsAttached) {
  Value V = readOne("  (foo bar)");
  ASSERT_TRUE(V.isSyntax());
  const SourceObject *Src = V.asSyntax()->Src;
  ASSERT_NE(Src, nullptr);
  EXPECT_EQ(Src->File, "test.scm");
  EXPECT_EQ(Src->BeginOffset, 2u);
  EXPECT_EQ(Src->EndOffset, 11u);
  EXPECT_EQ(Src->Line, 1u);
  EXPECT_EQ(Src->Column, 3u);

  // Elements carry their own, narrower source objects.
  Value Inner = syntaxE(V);
  ASSERT_TRUE(Inner.isPair());
  const SourceObject *FooSrc = Inner.asPair()->Car.asSyntax()->Src;
  EXPECT_EQ(FooSrc->BeginOffset, 3u);
  EXPECT_EQ(FooSrc->EndOffset, 6u);
}

TEST_F(ReaderFixture, DistinctOccurrencesDistinctPoints) {
  // Two occurrences of the same symbol get different profile points
  // (Section 3.1: "flag and email appear multiple times, but each
  // occurrence is associated with a different profile point").
  Value V = readOne("(f x x)");
  auto Elems = listToVector(syntaxE(V));
  ASSERT_EQ(Elems.size(), 3u);
  EXPECT_NE(Elems[1].asSyntax()->Src, Elems[2].asSyntax()->Src);
}

TEST_F(ReaderFixture, LineColumnTracking) {
  Reader R(H, ST, SOT, "a\n  b", "test.scm");
  auto A = R.readOne();
  auto B = R.readOne();
  ASSERT_TRUE(A && B);
  EXPECT_EQ((*A).asSyntax()->Src->Line, 1u);
  EXPECT_EQ((*B).asSyntax()->Src->Line, 2u);
  EXPECT_EQ((*B).asSyntax()->Src->Column, 3u);
}

TEST_F(ReaderFixture, Errors) {
  EXPECT_NE(readError("(1 2"), "");
  EXPECT_NE(readError(")"), "");
  EXPECT_NE(readError("(1 . )"), "");
  EXPECT_NE(readError("(. 2)"), "");
  EXPECT_NE(readError("(1 . 2 3)"), "");
  EXPECT_NE(readError("\"unterminated"), "");
  EXPECT_NE(readError("#\\nosuchchar"), "");
  EXPECT_NE(readError("#q"), "");
  EXPECT_NE(readError("#(1 . 2)"), "");
  EXPECT_NE(readError("#|"), "");
  EXPECT_NE(readError("'"), "");
  EXPECT_NE(readError("#true"), "");
}

TEST_F(ReaderFixture, ErrorsCarryLocation) {
  std::string E = readError("(a\n  b\n  \"oops");
  EXPECT_NE(E.find("test.scm:3"), std::string::npos) << E;
}

//===----------------------------------------------------------------------===//
// Property test: write(read(write(datum))) is stable for random datums.
//===----------------------------------------------------------------------===//

class RoundTrip : public ReaderFixture,
                  public ::testing::WithParamInterface<int> {};

std::string randomDatumText(Rng &R, int Depth) {
  switch (Depth <= 0 ? R.below(5) : R.below(7)) {
  case 0:
    return std::to_string(static_cast<int64_t>(R.below(2000)) - 1000);
  case 1:
    return R.chance(0.5) ? "#t" : "#f";
  case 2: {
    const char *Syms[] = {"foo", "bar-baz", "set!", "x", "list->vector",
                          "+", "a1"};
    return Syms[R.below(7)];
  }
  case 3:
    return "\"s" + std::to_string(R.below(100)) + "\"";
  case 4: {
    const char *Chars[] = {"#\\a", "#\\space", "#\\0", "#\\newline"};
    return Chars[R.below(4)];
  }
  case 5: {
    size_t N = R.below(4);
    std::string Out = "(";
    for (size_t I = 0; I < N; ++I) {
      if (I)
        Out += " ";
      Out += randomDatumText(R, Depth - 1);
    }
    Out += ")";
    return Out;
  }
  default: {
    size_t N = R.below(3);
    std::string Out = "#(";
    for (size_t I = 0; I < N; ++I) {
      if (I)
        Out += " ";
      Out += randomDatumText(R, Depth - 1);
    }
    Out += ")";
    return Out;
  }
  }
}

TEST_P(RoundTrip, WriteReadWriteIsStable) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  for (int I = 0; I < 40; ++I) {
    std::string Text = randomDatumText(R, 4);
    std::string Once = readAsDatum(Text);
    std::string Twice = readAsDatum(Once);
    EXPECT_EQ(Once, Twice) << "original: " << Text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip, ::testing::Range(0, 8));

} // namespace
