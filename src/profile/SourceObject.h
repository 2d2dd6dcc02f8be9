//===- profile/SourceObject.h - Profile points ----------------*- C++ -*-===//
///
/// \file
/// Source objects are the *profile points* of the paper (Section 3.1):
/// each uniquely identifies one profile counter. Following the Chez Scheme
/// implementation (Section 4.1), a source object is a file name plus
/// starting and ending character positions; the reader attaches one to
/// every syntax object it reads, and meta-programs can manufacture fresh
/// ones deterministically (make-profile-point) by suffixing the file name
/// of a base source object.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_PROFILE_SOURCEOBJECT_H
#define PGMP_PROFILE_SOURCEOBJECT_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pgmp {

/// Dense id of a file name within one SourceObjectTable. Distinct from
/// the SourceManager's FileId: the table also names files it holds no
/// buffer for (profile-only files, make-profile-point's generated names).
using PointFileId = uint32_t;

/// One profile point. Identity is (File, BeginOffset, EndOffset); the
/// table below interns them so pointer equality is identity.
struct SourceObject {
  /// The interning table's copy of the file name; lives as long as it.
  std::string_view File;
  PointFileId FileId = 0;
  uint32_t BeginOffset = 0;
  uint32_t EndOffset = 0;
  uint32_t Line = 1;
  uint32_t Column = 1;
  /// True for points manufactured by make-profile-point.
  bool Generated = false;

  /// Renders "file:line:col" (diagnostics) .
  std::string describe() const;
};

/// Interns source objects so each (file, begin, end) triple has exactly
/// one address for the lifetime of the engine. File names are interned
/// once into dense ids; points are then keyed by (file id, begin, end) in
/// an integer-keyed open-addressing table, so interning a point builds
/// no string (only the first sight of a file name copies it).
class SourceObjectTable {
public:
  SourceObjectTable() = default;
  /// Points refer to the table's file names; copying would dangle them.
  SourceObjectTable(const SourceObjectTable &) = delete;
  SourceObjectTable &operator=(const SourceObjectTable &) = delete;

  /// The dense id of \p File, copying the name the first time only.
  PointFileId internFile(std::string_view File);
  size_t numFiles() const { return FileNames.size(); }

  /// The point (File, Begin, End). Line, Column and Generated are those
  /// of the first intern of the triple.
  const SourceObject *intern(PointFileId File, uint32_t Begin, uint32_t End,
                             uint32_t Line, uint32_t Column,
                             bool Generated = false);
  const SourceObject *intern(std::string_view File, uint32_t Begin,
                             uint32_t End, uint32_t Line, uint32_t Column,
                             bool Generated = false) {
    return intern(internFile(File), Begin, End, Line, Column, Generated);
  }

  /// make-profile-point: a fresh point derived from \p BaseFile. The
  /// sequence number is per base file and increments deterministically, so
  /// a deterministic expansion produces the same points across the
  /// profiled run and the optimizing run (paper, Figure 4).
  const SourceObject *makeGeneratedPoint(std::string_view BaseFile);

  uint64_t numPoints() const { return NumPoints; }

private:
  static constexpr size_t ChunkPoints = 512;

  void growSlots();

  /// File names by id (a deque keeps each string, and so every view of
  /// it, in place), and the reverse map keyed by views of those strings.
  std::deque<std::string> FileNames;
  std::unordered_map<std::string_view, PointFileId> FileIds;
  /// make-profile-point's next sequence number, by base file id.
  std::vector<uint32_t> NextGeneratedSeq;

  /// Points live in fixed-size chunks so their addresses never move.
  std::vector<std::unique_ptr<SourceObject[]>> Chunks;
  uint64_t NumPoints = 0;
  /// Open-addressing index over the points (linear probing, power-of-two
  /// size, at most half full); null marks an empty slot.
  std::vector<const SourceObject *> Slots;
};

} // namespace pgmp

#endif // PGMP_PROFILE_SOURCEOBJECT_H
