//===- profile/SourceObject.cpp -------------------------------------------===//

#include "profile/SourceObject.h"

using namespace pgmp;

namespace {

/// Mixes a point's identity triple into a well-spread 64-bit hash
/// (murmur3's finalizer over the packed fields).
uint64_t pointHash(PointFileId File, uint32_t Begin, uint32_t End) {
  uint64_t H = (static_cast<uint64_t>(Begin) << 32 | End) ^
               (static_cast<uint64_t>(File) * 0x9E3779B97F4A7C15ull);
  H ^= H >> 33;
  H *= 0xFF51AFD7ED558CCDull;
  H ^= H >> 33;
  H *= 0xC4CEB9FE1A85EC53ull;
  H ^= H >> 33;
  return H;
}

} // namespace

std::string SourceObject::describe() const {
  std::string Out(File);
  Out += ':';
  Out += std::to_string(Line);
  Out += ':';
  Out += std::to_string(Column);
  return Out;
}

PointFileId SourceObjectTable::internFile(std::string_view File) {
  auto It = FileIds.find(File);
  if (It != FileIds.end())
    return It->second;
  auto Id = static_cast<PointFileId>(FileNames.size());
  FileIds.emplace(FileNames.emplace_back(File), Id);
  return Id;
}

void SourceObjectTable::growSlots() {
  std::vector<const SourceObject *> Old(Slots.empty() ? 1024
                                                      : Slots.size() * 2);
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (const SourceObject *P : Old) {
    if (!P)
      continue;
    size_t I = pointHash(P->FileId, P->BeginOffset, P->EndOffset) & Mask;
    while (Slots[I])
      I = (I + 1) & Mask;
    Slots[I] = P;
  }
}

const SourceObject *SourceObjectTable::intern(PointFileId File, uint32_t Begin,
                                              uint32_t End, uint32_t Line,
                                              uint32_t Column, bool Generated) {
  if ((NumPoints + 1) * 2 > Slots.size())
    growSlots();
  size_t Mask = Slots.size() - 1;
  size_t I = pointHash(File, Begin, End) & Mask;
  for (; Slots[I]; I = (I + 1) & Mask) {
    const SourceObject *P = Slots[I];
    if (P->FileId == File && P->BeginOffset == Begin && P->EndOffset == End)
      return P;
  }
  if (NumPoints % ChunkPoints == 0)
    Chunks.push_back(std::make_unique<SourceObject[]>(ChunkPoints));
  SourceObject &New = Chunks.back()[NumPoints % ChunkPoints];
  New = SourceObject{FileNames[File], File, Begin, End, Line, Column,
                     Generated};
  ++NumPoints;
  Slots[I] = &New;
  return &New;
}

const SourceObject *
SourceObjectTable::makeGeneratedPoint(std::string_view BaseFile) {
  PointFileId Base = internFile(BaseFile);
  if (NextGeneratedSeq.size() <= Base)
    NextGeneratedSeq.resize(Base + 1, 0);
  uint32_t Seq = NextGeneratedSeq[Base]++;
  // Chez-style: suffix the base file name; offsets make the key unique and
  // deterministic, and they keep distinct points distinct even if a caller
  // reuses the same suffixed name.
  std::string File(BaseFile);
  File += "%pgmp";
  File += std::to_string(Seq);
  return intern(File, Seq, Seq + 1, /*Line=*/1, /*Column=*/1,
                /*Generated=*/true);
}
