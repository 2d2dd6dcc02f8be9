//===- profile/ProfileReport.cpp ------------------------------------------===//

#include "profile/ProfileReport.h"

#include "support/AtomicFile.h"
#include "support/SourceManager.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace pgmp;

namespace {

/// Looks up profiled source text: SourceManager buffers first, then (when
/// allowed) the file on disk, cached per file so a report over one big
/// buffer reads it once.
class ExcerptSource {
public:
  ExcerptSource(const SourceManager *SM, bool ReadDisk)
      : SM(SM), ReadDisk(ReadDisk) {}

  /// Text of \p File, or nullptr when unavailable.
  const std::string *textOf(const std::string &File) {
    if (SM)
      if (const std::string *Contents = SM->contentsByName(File))
        return Contents;
    if (!ReadDisk || File.empty() || File.front() == '<')
      return nullptr;
    auto It = DiskCache.find(File);
    if (It == DiskCache.end()) {
      std::string Contents, Err;
      if (readFileAll(File, Contents, Err) != FileReadStatus::Ok)
        Contents.clear(); // cache the miss as empty
      It = DiskCache.emplace(File, std::move(Contents)).first;
    }
    return It->second.empty() ? nullptr : &It->second;
  }

private:
  const SourceManager *SM;
  bool ReadDisk;
  std::unordered_map<std::string, std::string> DiskCache;
};

/// Collapses whitespace runs to single spaces and truncates to \p Width.
std::string flattenExcerpt(std::string_view Text, size_t Width) {
  std::string Out;
  bool PendingSpace = false;
  for (char C : Text) {
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r') {
      PendingSpace = !Out.empty();
      continue;
    }
    if (PendingSpace) {
      Out += ' ';
      PendingSpace = false;
    }
    Out += C;
    if (Out.size() > Width)
      break;
  }
  if (Out.size() > Width) {
    Out.resize(Width > 3 ? Width - 3 : 0);
    Out += "...";
  }
  return Out;
}

/// Orders equally hot points by file name, then by the decimal spellings
/// of their offsets (the report's long-standing tie order).
std::string tieKey(const SourceObject *Src) {
  std::string Key(Src->File);
  Key += '\x01';
  Key += std::to_string(Src->BeginOffset);
  Key += '\x01';
  Key += std::to_string(Src->EndOffset);
  return Key;
}

} // namespace

std::vector<ProfileHotRow> pgmp::profileHotRows(const ProfileSnapshot &S) {
  std::vector<ProfileHotRow> Rows;
  Rows.reserve(S.points());
  for (const auto &[Src, E] : S.entries())
    Rows.push_back({Src, S.weight(Src), E.TotalCount});
  std::sort(Rows.begin(), Rows.end(),
            [](const ProfileHotRow &A, const ProfileHotRow &B) {
              if (A.Weight != B.Weight)
                return A.Weight > B.Weight;
              if (A.Count != B.Count)
                return A.Count > B.Count;
              return tieKey(A.Src) < tieKey(B.Src); // deterministic ties
            });
  return Rows;
}

std::string pgmp::renderProfileReport(const ProfileDatabase &Db,
                                      const ProfileLoadReport &Meta,
                                      const std::string &Name,
                                      const ProfileReportOptions &Opts,
                                      const SourceManager *SM) {
  // Sorted once here; every consumer of the table shares this ordering.
  std::vector<ProfileHotRow> Rows = profileHotRows(Db.snapshot());
  size_t Shown = std::min(Opts.TopN, Rows.size());

  char Buf[64];
  std::string Out = Name + ": v" + std::to_string(Meta.Version) + ", " +
                    std::to_string(Db.numDatasets()) + " dataset(s), " +
                    std::to_string(Db.numPoints()) + " point(s)\n";

  // An empty or all-zero profile is a well-formed report input, not an
  // error: say so plainly instead of rendering a zero-row table (or a
  // table of all-0.0000 rows) that reads like a formatting bug.
  bool HasSamples = false;
  for (const ProfileHotRow &R : Rows)
    if (R.Count > 0 || R.Weight > 0) {
      HasSamples = true;
      break;
    }
  if (!HasSamples) {
    Out += "no samples recorded; nothing to report\n";
    return Out;
  }

  Out += "hot spots (top " + std::to_string(Shown) + " of " +
         std::to_string(Rows.size()) + "):\n";
  if (!Shown)
    return Out;

  // Size the location column to its widest entry so the table stays
  // aligned without a fixed (and eventually wrong) width.
  ExcerptSource Excerpts(SM, Opts.ReadSourcesFromDisk);
  size_t LocWidth = 8; // "location"
  std::vector<std::string> Locs(Shown);
  for (size_t I = 0; I < Shown; ++I) {
    Locs[I] = Rows[I].Src->describe();
    LocWidth = std::max(LocWidth, Locs[I].size());
  }

  std::snprintf(Buf, sizeof(Buf), "%5s  %-7s %12s  ", "rank", "weight",
                "count");
  Out += Buf;
  Out += "location";
  Out += std::string(LocWidth - 8, ' ');
  if (Opts.WithExcerpts)
    Out += "  source";
  Out += "\n";

  for (size_t I = 0; I < Shown; ++I) {
    const ProfileHotRow &R = Rows[I];
    std::snprintf(Buf, sizeof(Buf), "%5zu  %.4f  %12llu  ", I + 1, R.Weight,
                  static_cast<unsigned long long>(R.Count));
    Out += Buf;
    Out += Locs[I];
    Out += std::string(LocWidth - Locs[I].size(), ' ');
    if (Opts.WithExcerpts) {
      Out += "  ";
      if (R.Src->Generated) {
        Out += "<generated>";
      } else if (const std::string *Text =
                     Excerpts.textOf(std::string(R.Src->File))) {
        uint32_t Begin = std::min<uint32_t>(R.Src->BeginOffset,
                                            static_cast<uint32_t>(Text->size()));
        uint32_t End = std::min<uint32_t>(R.Src->EndOffset,
                                          static_cast<uint32_t>(Text->size()));
        Out += flattenExcerpt(
            std::string_view(*Text).substr(Begin, End - Begin),
            Opts.ExcerptWidth);
      } else {
        Out += "<source unavailable>";
      }
    }
    // The table is whitespace-padded; keep lines trim-right clean.
    while (!Out.empty() && Out.back() == ' ')
      Out.pop_back();
    Out += "\n";
  }

  if (Opts.TierHotWeight > 0) {
    // Rows are weight-sorted, so the candidates are a prefix.
    size_t NumHot = 0;
    while (NumHot < Rows.size() && Rows[NumHot].Weight >= Opts.TierHotWeight)
      ++NumHot;
    std::snprintf(Buf, sizeof(Buf), "tier candidates (weight >= %.4f): ",
                  Opts.TierHotWeight);
    Out += Buf;
    Out += std::to_string(NumHot) + " of " + std::to_string(Rows.size()) +
           " point(s)\n";
    for (size_t I = 0; I < NumHot && I < Opts.TopN; ++I) {
      std::snprintf(Buf, sizeof(Buf), "  %.4f  ", Rows[I].Weight);
      Out += Buf;
      Out += Rows[I].Src->describe();
      Out += "\n";
    }
  }
  return Out;
}

bool pgmp::renderProfileReportFile(const std::string &Path, std::string &Out,
                                   std::string &ErrorOut,
                                   const ProfileReportOptions &Opts) {
  std::string Text, Err;
  if (readFileAll(Path, Text, Err) != FileReadStatus::Ok) {
    ErrorOut = "cannot read profile file: " + Path + " (" + Err + ")";
    return false;
  }
  SourceObjectTable Sources;
  ProfileDatabase Db;
  ProfileLoadReport Report;
  // No SourceManager: the report renders whatever the file says, leaving
  // staleness analysis to `pgmpi profile-lint`.
  if (!parseProfile(Text, Sources, Db, ErrorOut, nullptr, &Report))
    return false;
  Out = renderProfileReport(Db, Report, Path, Opts, nullptr);
  return true;
}
