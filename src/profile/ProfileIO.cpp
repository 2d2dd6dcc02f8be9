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
    std::set<std::string_view> Files;
    for (const auto &[Src, E] : Db.entries()) {
      (void)E;
      Files.insert(Src->File);
    }
    for (std::string_view File : Files) {
      if (!File.empty() && File.front() == '<')
        continue;
      const std::string *Contents = SM->contentsByName(std::string(File));
      if (Contents) {
        Out += "source\t";
        Out += File;
        Out += '\t';
        Out += hex64(fnv1a64(*Contents));
        Out += '\n';
      }
    }
  }

  // Sort for deterministic output (unordered_map iteration order is not).
  // Files order by name, never by id: ids follow interning order, which
  // differs between sessions, and the file must not.
  std::vector<std::pair<const SourceObject *, ProfileDatabase::Entry>> Rows(
      Db.entries().begin(), Db.entries().end());
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    if (A.first->FileId != B.first->FileId)
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

namespace {

/// One record's tab-separated fields, as views into the profile text.
/// Records have at most 9 fields; a longer line keeps its first 9 and
/// reports MaxFields + 1, a count no record kind accepts.
struct RecordFields {
  static constexpr size_t MaxFields = 9;
  std::string_view F[MaxFields];
  size_t N = 0;

  explicit RecordFields(std::string_view Line) {
    while (true) {
      size_t Tab = Line.find('\t');
      if (N == MaxFields) {
        N = MaxFields + 1;
        return;
      }
      F[N++] = Line.substr(0, Tab);
      if (Tab == std::string_view::npos)
        return;
      Line.remove_prefix(Tab + 1);
    }
  }
};

} // namespace

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

  std::string_view All(Text);
  size_t HeaderEnd = std::min(All.find('\n'), All.size());
  std::string_view Header = All.substr(0, HeaderEnd);
  int Version = 0;
  if (Header == MagicV1)
    Version = 1;
  else if (Header == MagicV2)
    Version = 2;
  else if (Header.starts_with("pgmp-profile\t"))
    return Fail(ProfileLoadStatus::Malformed,
                "unsupported profile version '" + std::string(Header) + "'");
  if (Version == 0)
    return Fail(ProfileLoadStatus::Malformed, "bad profile file header");
  Report->Version = Version;

  // Validate the v2 checksum footer before looking at any record, so a
  // bit flip anywhere in the body reports as corruption, not as whatever
  // record-level syntax error it happens to produce. The footer is the
  // last non-empty line after the header.
  size_t CrcStart = std::string_view::npos;
  if (Version == 2) {
    size_t End = All.size();
    while (End > HeaderEnd + 1 && All[End - 1] == '\n')
      --End;
    if (End <= HeaderEnd + 1)
      return Fail(ProfileLoadStatus::Corrupt,
                  "profile missing checksum footer (file truncated?)");
    CrcStart = All.rfind('\n', End - 1) + 1;
    std::string_view Footer = All.substr(CrcStart, End - CrcStart);
    uint32_t Stored = 0;
    if (!Footer.starts_with("crc\t") || !parseHex32(Footer.substr(4), Stored))
      return Fail(ProfileLoadStatus::Corrupt,
                  "profile missing checksum footer (file truncated?)");
    if (crc32(All.substr(0, CrcStart)) != Stored)
      return Fail(ProfileLoadStatus::Corrupt,
                  "profile checksum mismatch (file corrupt)");
    Report->ChecksumChecked = true;
  }

  // One pass over the records, all-or-nothing: parse into a scratch
  // database and merge only on success. Line numbers are rendered only
  // for error messages.
  ProfileDatabase Parsed;
  bool SawDatasets = false;
  std::unordered_set<std::string_view> SeenSourceFiles;
  // Stored records are grouped by file, so one cached file id serves
  // every point after the first of each file.
  std::string_view PrevFile;
  PointFileId PrevFileId = 0;
  bool HavePrevFile = false;

  size_t LineIndex = 0;
  for (size_t Pos = HeaderEnd; Pos < All.size();) {
    size_t Start = Pos + 1;
    size_t Stop = std::min(All.find('\n', Start), All.size());
    Pos = Stop;
    ++LineIndex;
    if (Start >= Stop || Start == CrcStart)
      continue;
    std::string_view Line = All.substr(Start, Stop - Start);
    RecordFields Fields(Line);
    const std::string_view *F = Fields.F;
    auto LineNo = [&] { return std::to_string(LineIndex + 1); };

    if (F[0] == "datasets") {
      int64_t N;
      if (Fields.N != 2 || !parseInt64(F[1], N) || N < 0)
        return Fail(ProfileLoadStatus::Malformed,
                    "bad datasets line " + LineNo());
      if (SawDatasets)
        return Fail(ProfileLoadStatus::Malformed,
                    "duplicate datasets record on line " + LineNo());
      Parsed.mergeDatasetCount(static_cast<uint64_t>(N));
      SawDatasets = true;
      continue;
    }

    if (F[0] == "point") {
      int64_t Begin, End, PtLine, Col, Count;
      double WeightSum;
      if (Fields.N != 9 || !parseInt64(F[2], Begin) ||
          !parseInt64(F[3], End) || !parseInt64(F[4], PtLine) ||
          !parseInt64(F[5], Col) || !parseDouble(F[7], WeightSum) ||
          !parseInt64(F[8], Count))
        return Fail(ProfileLoadStatus::Malformed,
                    "bad point line " + LineNo());
      if (Begin < 0 || End < 0 || PtLine < 0 || Col < 0 ||
          Begin > UINT32_MAX || End > UINT32_MAX || PtLine > UINT32_MAX ||
          Col > UINT32_MAX)
        return Fail(ProfileLoadStatus::Malformed,
                    "point with out-of-range source location on line " +
                        LineNo());
      if (Begin > End)
        return Fail(ProfileLoadStatus::Malformed,
                    "point with begin > end source range on line " +
                        LineNo());
      if (!(WeightSum >= 0) || std::isinf(WeightSum))
        return Fail(ProfileLoadStatus::Malformed,
                    "point with invalid weight '" + std::string(F[7]) +
                        "' on line " + LineNo());
      if (Count < 0)
        return Fail(ProfileLoadStatus::Malformed,
                    "point with negative count on line " + LineNo());
      if (!HavePrevFile || F[1] != PrevFile) {
        PrevFileId = Sources.internFile(F[1]);
        PrevFile = F[1];
        HavePrevFile = true;
      }
      const SourceObject *Src = Sources.intern(
          PrevFileId, static_cast<uint32_t>(Begin), static_cast<uint32_t>(End),
          static_cast<uint32_t>(PtLine), static_cast<uint32_t>(Col),
          F[6] == "g");
      bool New = Parsed.mergeEntry(
          Src, ProfileDatabase::Entry{WeightSum, static_cast<uint64_t>(Count)});
      if (!New && Version >= 2)
        return Fail(ProfileLoadStatus::Malformed,
                    "duplicate point record on line " + LineNo());
      continue;
    }

    if (F[0] == "source" && Version >= 2) {
      uint64_t Fp;
      if (Fields.N != 3 || F[1].empty() || !parseHex64(F[2], Fp))
        return Fail(ProfileLoadStatus::Malformed,
                    "bad source record on line " + LineNo());
      if (!SeenSourceFiles.insert(F[1]).second)
        return Fail(ProfileLoadStatus::Malformed,
                    "duplicate source record on line " + LineNo());
      std::string File(F[1]);
      if (SM) {
        if (const std::string *Contents = SM->contentsByName(File))
          if (fnv1a64(*Contents) != Fp)
            Report->StaleFiles.push_back(File);
      }
      Report->Fingerprints.emplace_back(std::move(File), Fp);
      continue;
    }

    if (F[0] == "crc" && Version >= 2)
      return Fail(ProfileLoadStatus::Malformed,
                  "misplaced checksum footer on line " + LineNo());

    return Fail(ProfileLoadStatus::Malformed,
                "unknown record '" + std::string(F[0]) + "' on line " +
                    LineNo());
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
  Db.merge(std::move(Parsed));
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
