//===- reader/Reader.h - S-expression reader ------------------*- C++ -*-===//
///
/// \file
/// Reads text into syntax objects. Every syntax object carries the source
/// object covering its text, exactly like the Chez Scheme reader (paper,
/// Section 4.1) — this is what makes every source expression a potential
/// profile point.
///
/// Shape invariant: a compound syntax object's inner datum is a spine of
/// plain pairs whose elements are syntax objects; an improper tail is a
/// (non-pair) syntax object.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_READER_READER_H
#define PGMP_READER_READER_H

#include "profile/SourceObject.h"
#include "reader/Lexer.h"
#include "syntax/Syntax.h"

#include <optional>
#include <vector>

namespace pgmp {

/// Reads one buffer's worth of top-level datums.
class Reader {
public:
  Reader(Heap &H, SymbolTable &Symbols, SourceObjectTable &Sources,
         std::string_view Text, std::string FileName);

  /// Reads the next top-level datum, or nullopt at end of input. Raises
  /// SchemeError on malformed input.
  std::optional<Value> readOne();

  /// Reads all top-level datums.
  std::vector<Value> readAll();

  /// Maximum datum nesting the reader will recurse into before raising a
  /// GuardTrip(Depth). readDatum recursion tracks input nesting 1:1, so
  /// without this cap a few hundred KiB of "((((((..." overflows the C++
  /// stack before any Scheme-level limit can see it. 2000 is far beyond
  /// real code and comfortably inside sanitizer-inflated stack frames.
  static constexpr uint32_t MaxNestingDepth = 2000;

private:
  Value readDatum(const Token &T);
  Value readDatumInner(const Token &T);
  /// Cold outlined raise for the nesting cap (never returns).
  Value tripNestingDepth(const Token &T);
  Value readListTail(const SourcePos &OpenPos);
  Value readVector(const SourcePos &OpenPos);
  Value readAbbreviation(const Token &T, const char *HeadName);
  Value wrapAtom(const Token &T, Value Datum);
  const SourceObject *sourceFor(const SourceRange &R);
  Token nextMeaningful();
  [[noreturn]] void fail(const std::string &Msg, const SourcePos &At);

  Heap &H;
  SymbolTable &Symbols;
  SourceObjectTable &Sources;
  Lexer Lex;
  std::string FileName;
  PointFileId FileId; ///< FileName in Sources, resolved once
  uint32_t Depth = 0; ///< current readDatum recursion depth
};

/// Convenience: read every datum in \p Text as file \p FileName.
std::vector<Value> readString(Heap &H, SymbolTable &Symbols,
                              SourceObjectTable &Sources,
                              std::string_view Text, std::string FileName);

} // namespace pgmp

#endif // PGMP_READER_READER_H
