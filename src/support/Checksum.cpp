//===- support/Checksum.cpp -----------------------------------------------===//

#include "support/Checksum.h"

#include <array>
#include <cstdio>

using namespace pgmp;

namespace {

/// Slice-by-8 tables: Tables[0] is the classic bytewise table, and
/// Tables[K][B] is the CRC of byte B followed by K zero bytes, so eight
/// lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() {
  CrcTables Tables{};
  for (uint32_t I = 0; I < 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    Tables[0][I] = C;
  }
  for (uint32_t I = 0; I < 256; ++I)
    for (int K = 1; K < 8; ++K)
      Tables[K][I] =
          (Tables[K - 1][I] >> 8) ^ Tables[0][Tables[K - 1][I] & 0xFF];
  return Tables;
}

constexpr CrcTables Crc = makeCrcTables();

/// Little-endian 32-bit load, independent of the host's byte order.
uint32_t loadLE32(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

} // namespace

uint32_t pgmp::crc32(std::string_view Data) {
  const auto *P = reinterpret_cast<const unsigned char *>(Data.data());
  size_t N = Data.size();
  uint32_t C = 0xFFFFFFFFu;
  for (; N >= 8; P += 8, N -= 8) {
    uint32_t Lo = loadLE32(P) ^ C;
    uint32_t Hi = loadLE32(P + 4);
    C = Crc[7][Lo & 0xFF] ^ Crc[6][(Lo >> 8) & 0xFF] ^
        Crc[5][(Lo >> 16) & 0xFF] ^ Crc[4][Lo >> 24] ^ Crc[3][Hi & 0xFF] ^
        Crc[2][(Hi >> 8) & 0xFF] ^ Crc[1][(Hi >> 16) & 0xFF] ^
        Crc[0][Hi >> 24];
  }
  for (; N > 0; ++P, --N)
    C = Crc[0][(C ^ *P) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

uint64_t pgmp::fnv1a64(std::string_view Data) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char Byte : Data) {
    H ^= Byte;
    H *= 1099511628211ull;
  }
  return H;
}

std::string pgmp::hex32(uint32_t V) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%08x", V);
  return Buf;
}

std::string pgmp::hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool pgmp::parseHex32(std::string_view S, uint32_t &Out) {
  if (S.empty() || S.size() > 8)
    return false;
  uint32_t V = 0;
  for (char C : S) {
    int D = hexDigit(C);
    if (D < 0)
      return false;
    V = (V << 4) | static_cast<uint32_t>(D);
  }
  Out = V;
  return true;
}

bool pgmp::parseHex64(std::string_view S, uint64_t &Out) {
  if (S.empty() || S.size() > 16)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    int D = hexDigit(C);
    if (D < 0)
      return false;
    V = (V << 4) | static_cast<uint64_t>(D);
  }
  Out = V;
  return true;
}
