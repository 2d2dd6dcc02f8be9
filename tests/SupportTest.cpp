//===- tests/SupportTest.cpp - support/ unit tests ------------------------===//

#include "profile/ProfileIO.h"
#include "support/Checksum.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"
#include "support/SourceManager.h"
#include "support/Text.h"

#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace pgmp;

namespace {

TEST(Text, FormatFlonumRoundTrips) {
  for (double D : {0.0, 1.0, 0.5, -2.25, 3.141592653589793, 1e100, 1e-7,
                   123456789.123456789}) {
    std::string S = formatFlonum(D);
    EXPECT_EQ(std::stod(S), D) << S;
  }
}

TEST(Text, FormatFlonumAlwaysLooksFloaty) {
  EXPECT_EQ(formatFlonum(1.0), "1.0");
  EXPECT_EQ(formatFlonum(-3.0), "-3.0");
  EXPECT_NE(formatFlonum(1e30).find_first_of(".e"), std::string::npos);
}

TEST(Text, EscapeStringLiteral) {
  EXPECT_EQ(escapeStringLiteral("ab"), "\"ab\"");
  EXPECT_EQ(escapeStringLiteral("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(escapeStringLiteral("a\nb\\"), "\"a\\nb\\\\\"");
}

TEST(Text, SplitChar) {
  auto P = splitChar("a\tb\t\tc", '\t');
  ASSERT_EQ(P.size(), 4u);
  EXPECT_EQ(P[0], "a");
  EXPECT_EQ(P[1], "b");
  EXPECT_EQ(P[2], "");
  EXPECT_EQ(P[3], "c");
  EXPECT_EQ(splitChar("", ',').size(), 1u);
}

TEST(Text, ParseInt64) {
  int64_t V;
  EXPECT_TRUE(parseInt64("42", V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(parseInt64("-7", V));
  EXPECT_EQ(V, -7);
  EXPECT_FALSE(parseInt64("", V));
  EXPECT_FALSE(parseInt64("4x", V));
  EXPECT_FALSE(parseInt64("1.5", V));
}

TEST(Text, ParseDouble) {
  double V;
  EXPECT_TRUE(parseDouble("2.5", V));
  EXPECT_EQ(V, 2.5);
  EXPECT_TRUE(parseDouble("-1e3", V));
  EXPECT_EQ(V, -1000.0);
  EXPECT_FALSE(parseDouble("abc", V));
  EXPECT_FALSE(parseDouble("1.5x", V));
}

/// The old, allocating parseInt64: the reference for which spellings are
/// accepted and what they read as.
bool referenceInt64(std::string_view S, int64_t &Out) {
  if (S.empty())
    return false;
  std::string Buf(S);
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Buf.c_str(), &End, 10);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return false;
  Out = static_cast<int64_t>(V);
  return true;
}

/// The old, allocating parseDouble (same role as referenceInt64).
bool referenceDouble(std::string_view S, double &Out) {
  if (S.empty())
    return false;
  std::string Buf(S);
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Buf.c_str(), &End);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return false;
  Out = V;
  return true;
}

std::vector<std::string> numberSpellings() {
  std::vector<std::string> Out = {
      "0", "42", "-7", "+5", "-0", "007", " 12", "\t3", "12 ", "", "-", "+",
      "4x", "1.5", "1.5x", "abc", ".5", "5.", "-.5", "+.5", "00.5", "1e",
      "1e+", "1e+5", "1E5", "-1e3", "0.0", "-0.0", "0e999", "0.000e-999",
      "123456789012345678", "-123456789012345678", "1234567890123456789",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "99999999999999999999", "1e400", "-1e400",
      "1e-400", "1e-320", "4.9e-324", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "1.7976931348623157e308",
      "1.7976931348623159e308", "0.66666666666666663",
      "0.33333333333333331", "nan", "NaN", "-nan", "nan(0x1)", "inf",
      "-inf", "+inf", "infinity", "0x1p3", "0x10", "0X1.8p1", "-0x1p-3",
      "0x", "1_000", std::string("12\0", 3)};
  // Spellings longer than the stack buffer, valid and not.
  Out.push_back(std::string(70, '1'));
  Out.push_back("0." + std::string(80, '0') + "1");
  Out.push_back("-" + std::string(100, '0') + "42");
  Out.push_back(std::string(90, '7') + "x");
  Out.push_back("1." + std::string(200, '5') + "e-2");
  return Out;
}

TEST(Text, ParseNumbersAcceptExactlyWhatStrtollAndStrtodAccept) {
  for (const std::string &S : numberSpellings()) {
    int64_t Got = 0, Want = 0;
    bool GotOk = parseInt64(S, Got), WantOk = referenceInt64(S, Want);
    EXPECT_EQ(GotOk, WantOk) << "parseInt64 '" << S << "'";
    if (GotOk && WantOk) {
      EXPECT_EQ(Got, Want) << "parseInt64 '" << S << "'";
    }

    double DGot = 0, DWant = 0;
    GotOk = parseDouble(S, DGot);
    WantOk = referenceDouble(S, DWant);
    EXPECT_EQ(GotOk, WantOk) << "parseDouble '" << S << "'";
    if (GotOk && WantOk) {
      if (std::isnan(DWant))
        EXPECT_TRUE(std::isnan(DGot)) << "parseDouble '" << S << "'";
      else
        EXPECT_EQ(std::memcmp(&DGot, &DWant, sizeof(double)), 0)
            << "parseDouble '" << S << "': " << DGot << " vs " << DWant;
    }
  }
}

TEST(Text, ParseDoubleRoundTripsStoredWeights) {
  // Every weight serializeProfile can write ("%.17g") reads back exactly.
  Rng R(7);
  char Buf[64];
  for (int I = 0; I < 5000; ++I) {
    double W = R.unit() * (I % 7 == 0 ? 1e-5 : 4.0);
    std::snprintf(Buf, sizeof(Buf), "%.17g", W);
    double Back = -1;
    ASSERT_TRUE(parseDouble(Buf, Back)) << Buf;
    EXPECT_EQ(Back, W) << Buf;
  }
}

//===----------------------------------------------------------------------===//
// Checksum
//===----------------------------------------------------------------------===//

/// The bytewise CRC-32 the profile footer was first written with.
uint32_t referenceCrc32(std::string_view Data) {
  uint32_t C = 0xFFFFFFFFu;
  for (unsigned char Byte : Data) {
    C ^= Byte;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

TEST(Checksum, Crc32KnownAnswer) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
}

TEST(Checksum, Crc32MatchesBytewiseAtEveryLengthAndOffset) {
  std::string Buf;
  Rng R(11);
  for (int I = 0; I < 64 + 8; ++I)
    Buf += static_cast<char>(R.below(256));
  for (size_t Offset = 0; Offset < 8; ++Offset)
    for (size_t Len = 0; Len <= 64; ++Len) {
      std::string_view Slice = std::string_view(Buf).substr(Offset, Len);
      EXPECT_EQ(crc32(Slice), referenceCrc32(Slice))
          << "offset " << Offset << " length " << Len;
    }
}

TEST(Checksum, ProfileStoredWithTheBytewiseCrcStillLoads) {
  // A v2 profile whose footer was computed by the bytewise crc32 before
  // the slice-by-8 one replaced it; it must load, and store back byte
  // for byte.
  const std::string Stored =
      "pgmp-profile\t2\n"
      "datasets\t2\n"
      "point\t/srv/app/src/module-one.scm\t0\t35\t1\t1\t-\t"
      "0.66666666666666663\t2\n"
      "point\t/srv/app/src/module-one.scm\t14\t34\t1\t15\t-\t1.5\t3\n"
      "point\t/srv/app/src/module-one.scm%pgmp0\t0\t1\t1\t1\tg\t2\t7\n"
      "point\tlib/two.scm\t19\t20\t1\t20\t-\t0.33333333333333331\t1\n"
      "crc\t7ea4e9dc\n";
  SourceObjectTable Sources;
  ProfileDatabase Db;
  ProfileLoadReport Report;
  std::string Err;
  ASSERT_TRUE(parseProfile(Stored, Sources, Db, Err, nullptr, &Report))
      << Err;
  EXPECT_TRUE(Report.ChecksumChecked);
  EXPECT_EQ(Report.NumPoints, 4u);
  EXPECT_EQ(Db.numDatasets(), 2u);
  const SourceObject *Gen =
      Sources.intern("/srv/app/src/module-one.scm%pgmp0", 0, 1, 1, 1);
  EXPECT_TRUE(Gen->Generated);
  EXPECT_EQ(Db.weight(Gen), 1.0);
  EXPECT_EQ(serializeProfile(Db), Stored);
}

TEST(SourceManager, RegisterAndDescribe) {
  SourceManager SM;
  FileId Id = SM.addBuffer("a.scm", "(+ 1 2)");
  EXPECT_EQ(SM.bufferName(Id), "a.scm");
  EXPECT_EQ(SM.bufferText(Id), "(+ 1 2)");
  EXPECT_EQ(SM.describe(Id, SourcePos{0, 3, 7}), "a.scm:3:7");
}

TEST(SourceManager, ReRegisterRefreshesContents) {
  SourceManager SM;
  FileId A = SM.addBuffer("x", "one");
  FileId B = SM.addBuffer("x", "two");
  EXPECT_EQ(A, B);
  EXPECT_EQ(SM.bufferText(A), "two");
  EXPECT_EQ(SM.numBuffers(), 1u);
}

TEST(Diagnostics, CountsAndRender) {
  DiagnosticSink Sink;
  Sink.report(DiagKind::Warning, "f:1:2", "watch out");
  Sink.report(DiagKind::Error, "", "boom");
  EXPECT_EQ(Sink.warningCount(), 1u);
  EXPECT_EQ(Sink.errorCount(), 1u);
  EXPECT_EQ(Sink.all()[0].render(), "f:1:2: warning: watch out");
  EXPECT_EQ(Sink.all()[1].render(), "error: boom");
  Sink.clear();
  EXPECT_EQ(Sink.all().size(), 0u);
  EXPECT_EQ(Sink.errorCount(), 0u);
}

TEST(Diagnostics, SchemeErrorRender) {
  SchemeError E("bad thing", "f:3:4");
  EXPECT_EQ(E.render(), "f:3:4: error: bad thing");
  SchemeError E2("bad thing");
  EXPECT_EQ(E2.render(), "error: bad thing");
}

TEST(Rng, DeterministicForSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  Rng A2(42);
  for (int I = 0; I < 100; ++I)
    Differs |= A2.next() != C.next();
  EXPECT_TRUE(Differs);
}

TEST(Rng, UnitInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    if (R.chance(0.3))
      ++Hits;
  EXPECT_NEAR(Hits / 10000.0, 0.3, 0.03);
}

} // namespace
