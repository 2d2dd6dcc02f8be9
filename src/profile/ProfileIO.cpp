//===- profile/ProfileIO.cpp ----------------------------------------------===//

#include "profile/ProfileIO.h"

#include "support/AtomicFile.h"
#include "support/Checksum.h"
#include "support/SourceManager.h"
#include "support/Text.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_set>

using namespace pgmp;

static const char *const MagicV1 = "pgmp-profile\t1";
static const char *const MagicV2 = "pgmp-profile\t2";

std::string pgmp::serializeProfile(const ProfileDatabase &Db,
                                   const SourceManager *SM) {
  std::string Out;
  Out += MagicV2;
  Out += "\n";
  Out += "datasets\t" + std::to_string(Db.numDatasets()) + "\n";

  // Content fingerprints of every profiled file whose text is known, so
  // loading against changed sources is detected as stale. Ephemeral
  // buffers (`<eval>`, `<repl>`, ...) are transient by construction and
  // carry no meaningful identity across sessions, so they are skipped.
  if (SM) {
    std::set<std::string> Files;
    for (const auto &[Src, E] : Db.entries()) {
      (void)E;
      Files.insert(Src->File);
    }
    for (const std::string &File : Files) {
      if (!File.empty() && File.front() == '<')
        continue;
      if (const std::string *Contents = SM->contentsByName(File))
        Out += "source\t" + File + "\t" + hex64(fnv1a64(*Contents)) + "\n";
    }
  }

  // Sort for deterministic output (unordered_map iteration order is not).
  std::vector<std::pair<const SourceObject *, ProfileDatabase::Entry>> Rows(
      Db.entries().begin(), Db.entries().end());
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    if (A.first->File != B.first->File)
      return A.first->File < B.first->File;
    if (A.first->BeginOffset != B.first->BeginOffset)
      return A.first->BeginOffset < B.first->BeginOffset;
    return A.first->EndOffset < B.first->EndOffset;
  });

  // Fields are appended one by one rather than as `"\t" + to_string(...)`
  // temporaries: GCC 12 at -O3 reports a bogus -Wrestrict overlap on the
  // inlined prepend, which breaks -Werror builds.
  char Buf[64];
  auto Field = [&](const auto &N) {
    Out += '\t';
    Out += std::to_string(N);
  };
  for (const auto &[Src, E] : Rows) {
    Out += "point\t";
    Out += Src->File;
    Field(Src->BeginOffset);
    Field(Src->EndOffset);
    Field(Src->Line);
    Field(Src->Column);
    Out += Src->Generated ? "\tg" : "\t-";
    std::snprintf(Buf, sizeof(Buf), "%.17g", E.WeightSum);
    Out += '\t';
    Out += Buf;
    Field(E.TotalCount);
    Out += '\n';
  }

  // Checksum footer over every byte above it; must stay the last record.
  Out += "crc\t" + hex32(crc32(Out)) + "\n";
  return Out;
}

bool pgmp::storeProfileFile(const ProfileDatabase &Db, const std::string &Path,
                            const SourceManager *SM, std::string *ErrorOut) {
  std::string Err;
  if (!writeFileAtomic(Path, serializeProfile(Db, SM), Err)) {
    if (ErrorOut)
      *ErrorOut = Err;
    return false;
  }
  return true;
}

bool pgmp::parseProfile(const std::string &Text, SourceObjectTable &Sources,
                        ProfileDatabase &Db, std::string &ErrorOut,
                        const SourceManager *SM, ProfileLoadReport *Report) {
  ProfileLoadReport Local;
  if (!Report)
    Report = &Local;
  *Report = ProfileLoadReport{};

  auto Fail = [&](ProfileLoadStatus Status, std::string Msg) {
    Report->Status = Status;
    ErrorOut = std::move(Msg);
    return false;
  };

  auto Lines = splitChar(Text, '\n');
  int Version = 0;
  if (!Lines.empty()) {
    if (Lines[0] == MagicV1)
      Version = 1;
    else if (Lines[0] == MagicV2)
      Version = 2;
    else if (Lines[0].starts_with("pgmp-profile\t"))
      return Fail(ProfileLoadStatus::Malformed,
                  "unsupported profile version '" + std::string(Lines[0]) +
                      "'");
  }
  if (Version == 0)
    return Fail(ProfileLoadStatus::Malformed, "bad profile file header");
  Report->Version = Version;

  // Validate the v2 checksum footer before looking at any record, so a
  // bit flip anywhere in the body reports as corruption, not as whatever
  // record-level syntax error it happens to produce.
  size_t CrcLine = 0;
  if (Version == 2) {
    bool HaveCrc = false;
    for (size_t I = Lines.size(); I-- > 1;) {
      if (Lines[I].empty())
        continue;
      auto Fields = splitChar(Lines[I], '\t');
      uint32_t Stored = 0;
      if (Fields[0] != "crc" || Fields.size() != 2 ||
          !parseHex32(Fields[1], Stored))
        return Fail(ProfileLoadStatus::Corrupt,
                    "profile missing checksum footer (file truncated?)");
      size_t Offset = static_cast<size_t>(Lines[I].data() - Text.data());
      if (crc32(std::string_view(Text).substr(0, Offset)) != Stored)
        return Fail(ProfileLoadStatus::Corrupt,
                    "profile checksum mismatch (file corrupt)");
      CrcLine = I;
      HaveCrc = true;
      break;
    }
    if (!HaveCrc)
      return Fail(ProfileLoadStatus::Corrupt,
                  "profile missing checksum footer (file truncated?)");
    Report->ChecksumChecked = true;
  }

  // All-or-nothing: parse into a scratch database, merge only on success.
  ProfileDatabase Parsed;
  bool SawDatasets = false;
  std::unordered_set<const SourceObject *> SeenPoints;
  std::unordered_set<std::string> SeenSourceFiles;

  for (size_t I = 1; I < Lines.size(); ++I) {
    std::string_view Line = Lines[I];
    if (Line.empty() || (Version == 2 && I == CrcLine))
      continue;
    auto Fields = splitChar(Line, '\t');
    std::string LineNo = std::to_string(I + 1);

    if (Fields[0] == "datasets") {
      int64_t N;
      if (Fields.size() != 2 || !parseInt64(Fields[1], N) || N < 0)
        return Fail(ProfileLoadStatus::Malformed,
                    "bad datasets line " + LineNo);
      if (SawDatasets)
        return Fail(ProfileLoadStatus::Malformed,
                    "duplicate datasets record on line " + LineNo);
      Parsed.mergeDatasetCount(static_cast<uint64_t>(N));
      SawDatasets = true;
      continue;
    }

    if (Fields[0] == "point") {
      int64_t Begin, End, PtLine, Col, Count;
      double WeightSum;
      if (Fields.size() != 9 || !parseInt64(Fields[2], Begin) ||
          !parseInt64(Fields[3], End) || !parseInt64(Fields[4], PtLine) ||
          !parseInt64(Fields[5], Col) || !parseDouble(Fields[7], WeightSum) ||
          !parseInt64(Fields[8], Count))
        return Fail(ProfileLoadStatus::Malformed, "bad point line " + LineNo);
      if (Begin < 0 || End < 0 || PtLine < 0 || Col < 0 ||
          Begin > UINT32_MAX || End > UINT32_MAX || PtLine > UINT32_MAX ||
          Col > UINT32_MAX)
        return Fail(ProfileLoadStatus::Malformed,
                    "point with out-of-range source location on line " +
                        LineNo);
      if (Begin > End)
        return Fail(ProfileLoadStatus::Malformed,
                    "point with begin > end source range on line " + LineNo);
      if (!(WeightSum >= 0) || std::isinf(WeightSum))
        return Fail(ProfileLoadStatus::Malformed,
                    "point with invalid weight '" + std::string(Fields[7]) +
                        "' on line " + LineNo);
      if (Count < 0)
        return Fail(ProfileLoadStatus::Malformed,
                    "point with negative count on line " + LineNo);
      const SourceObject *Src = Sources.intern(
          std::string(Fields[1]), static_cast<uint32_t>(Begin),
          static_cast<uint32_t>(End), static_cast<uint32_t>(PtLine),
          static_cast<uint32_t>(Col), Fields[6] == "g");
      if (Version >= 2 && !SeenPoints.insert(Src).second)
        return Fail(ProfileLoadStatus::Malformed,
                    "duplicate point record on line " + LineNo);
      Parsed.mergeEntry(Src, ProfileDatabase::Entry{
                                 WeightSum, static_cast<uint64_t>(Count)});
      continue;
    }

    if (Fields[0] == "source" && Version >= 2) {
      uint64_t Fp;
      if (Fields.size() != 3 || Fields[1].empty() ||
          !parseHex64(Fields[2], Fp))
        return Fail(ProfileLoadStatus::Malformed,
                    "bad source record on line " + LineNo);
      std::string File(Fields[1]);
      if (!SeenSourceFiles.insert(File).second)
        return Fail(ProfileLoadStatus::Malformed,
                    "duplicate source record on line " + LineNo);
      Report->Fingerprints.emplace_back(File, Fp);
      if (SM) {
        if (const std::string *Contents = SM->contentsByName(File))
          if (fnv1a64(*Contents) != Fp)
            Report->StaleFiles.push_back(File);
      }
      continue;
    }

    if (Fields[0] == "crc" && Version >= 2)
      return Fail(ProfileLoadStatus::Malformed,
                  "misplaced checksum footer on line " + LineNo);

    return Fail(ProfileLoadStatus::Malformed,
                "unknown record '" + std::string(Fields[0]) + "' on line " +
                    LineNo);
  }

  if (!SawDatasets)
    return Fail(ProfileLoadStatus::Malformed,
                "profile file missing datasets record");

  if (!Report->StaleFiles.empty()) {
    std::string Msg = "stale profile: source changed since it was stored:";
    for (const std::string &File : Report->StaleFiles)
      Msg += " " + File;
    return Fail(ProfileLoadStatus::Stale, Msg);
  }

  if (Version == 1)
    Report->Warnings.push_back(
        "legacy v1 profile format: no checksum or source fingerprints");

  Report->NumPoints = Parsed.numPoints();
  Report->NumDatasets = Parsed.numDatasets();
  Db.mergeDatasetCount(Parsed.numDatasets());
  for (const auto &[Src, E] : Parsed.entries())
    Db.mergeEntry(Src, E);
  return true;
}

bool pgmp::loadProfileFile(const std::string &Path, SourceObjectTable &Sources,
                           ProfileDatabase &Db, std::string &ErrorOut,
                           const SourceManager *SM,
                           ProfileLoadReport *Report) {
  std::string Text, Err;
  FileReadStatus Status = readFileAll(Path, Text, Err);
  if (Status != FileReadStatus::Ok) {
    if (Report)
      Report->Status = Status == FileReadStatus::CannotOpen
                           ? ProfileLoadStatus::CannotOpen
                           : ProfileLoadStatus::ReadError;
    ErrorOut = Status == FileReadStatus::CannotOpen
                   ? "cannot open profile file: " + Path
                   : "error reading profile file: " + Path;
    return false;
  }
  return parseProfile(Text, Sources, Db, ErrorOut, SM, Report);
}
