//===- support/Text.cpp ---------------------------------------------------===//

#include "support/Text.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pgmp;

std::string pgmp::formatFlonum(double X) {
  char Buf[64];
  // %.17g always round-trips; try shorter forms first for readability.
  for (int Prec = 1; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, X);
    if (std::strtod(Buf, nullptr) == X)
      break;
  }
  std::string S(Buf);
  if (S.find_first_of(".eEni") == std::string::npos)
    S += ".0";
  return S;
}

std::string pgmp::escapeStringLiteral(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out += C;
    }
  }
  Out += '"';
  return Out;
}

std::vector<std::string_view> pgmp::splitChar(std::string_view S, char Sep) {
  std::vector<std::string_view> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Parts.push_back(S.substr(Start));
      return Parts;
    }
    Parts.push_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

namespace {

/// Calls \p Parse with a NUL-terminated copy of \p S and its end: on the
/// stack when it fits, so the short spellings the lexer and the profile
/// loader parse allocate nothing.
template <typename Fn> bool withCString(std::string_view S, Fn Parse) {
  char Stack[64];
  if (S.size() < sizeof(Stack)) {
    std::memcpy(Stack, S.data(), S.size());
    Stack[S.size()] = '\0';
    return Parse(Stack, Stack + S.size());
  }
  std::string Heap(S);
  return Parse(Heap.c_str(), Heap.c_str() + Heap.size());
}

/// True if the mantissa of a decimal spelling (everything before its
/// exponent) has no nonzero digit, so the value is exactly zero.
bool zeroMantissa(std::string_view S) {
  for (char C : S) {
    if (C == 'e' || C == 'E')
      return true;
    if (C >= '1' && C <= '9')
      return false;
  }
  return true;
}

} // namespace

bool pgmp::parseInt64(std::string_view S, int64_t &Out) {
  if (S.empty())
    return false;
  // Fast path: an optional '-' and at most 18 digits cannot overflow.
  // Everything else (signs, whitespace, long or malformed spellings) is
  // left to strtoll, so the accepted strings are exactly strtoll's.
  size_t I = S[0] == '-' ? 1 : 0;
  if (S.size() > I && S.size() - I <= 18) {
    int64_t V = 0;
    for (; I < S.size(); ++I) {
      unsigned D = static_cast<unsigned char>(S[I]) - '0';
      if (D > 9)
        break;
      V = V * 10 + D;
    }
    if (I == S.size()) {
      Out = S[0] == '-' ? -V : V;
      return true;
    }
  }
  return withCString(S, [&](const char *Begin, const char *End) {
    errno = 0;
    char *Stop = nullptr;
    long long V = std::strtoll(Begin, &Stop, 10);
    if (errno != 0 || Stop != End)
      return false;
    Out = static_cast<int64_t>(V);
    return true;
  });
}

bool pgmp::parseDouble(std::string_view S, double &Out) {
  if (S.empty())
    return false;
  // Fast path: a plain decimal spelling that from_chars reads whole into
  // a normal value, or into zero from an all-zero mantissa, is one that
  // strtod reads to the same correctly rounded value without ERANGE.
  // Anything else (a '+', whitespace, hex, inf/nan, overflow, underflow
  // and subnormals) goes to strtod, so the accepted strings and their
  // values are exactly strtod's.
  double V = 0;
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  if (Ec == std::errc() && Ptr == S.data() + S.size() &&
      (std::isnormal(V) || (V == 0 && zeroMantissa(S)))) {
    Out = V;
    return true;
  }
  return withCString(S, [&](const char *Begin, const char *End) {
    errno = 0;
    char *Stop = nullptr;
    double D = std::strtod(Begin, &Stop);
    if (errno != 0 || Stop != End)
      return false;
    Out = D;
    return true;
  });
}
