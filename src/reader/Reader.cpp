//===- reader/Reader.cpp --------------------------------------------------===//

#include "reader/Reader.h"

#include "support/Diagnostics.h"
#include "support/ExecGuard.h"

using namespace pgmp;

Reader::Reader(Heap &H, SymbolTable &Symbols, SourceObjectTable &Sources,
               std::string_view Text, std::string FileName)
    : H(H), Symbols(Symbols), Sources(Sources), Lex(Text, FileName),
      FileName(std::move(FileName)),
      FileId(Sources.internFile(this->FileName)) {}

void Reader::fail(const std::string &Msg, const SourcePos &At) {
  raiseError(Msg, FileName + ":" + std::to_string(At.Line) + ":" +
                      std::to_string(At.Column));
}

const SourceObject *Reader::sourceFor(const SourceRange &R) {
  return Sources.intern(FileId, R.Begin.Offset, R.End.Offset, R.Begin.Line,
                        R.Begin.Column);
}

Token Reader::nextMeaningful() {
  while (true) {
    Token T = Lex.next();
    if (T.Kind != TokenKind::DatumComment)
      return T;
    // #; — skip the next datum entirely.
    Token Skipped = Lex.next();
    if (Skipped.Kind == TokenKind::Eof)
      fail("end of input after #;", T.Range.Begin);
    readDatum(Skipped);
  }
}

std::optional<Value> Reader::readOne() {
  // Everything a datum read allocates (pairs, syntax wrappers, strings)
  // is attributed to the reader's allocation site.
  AllocSiteScope Site(H, AllocSite::ReaderDatum);
  Token T = nextMeaningful();
  if (T.Kind == TokenKind::Eof)
    return std::nullopt;
  return readDatum(T);
}

std::vector<Value> Reader::readAll() {
  std::vector<Value> Out;
  while (auto V = readOne())
    Out.push_back(*V);
  return Out;
}

Value Reader::wrapAtom(const Token &T, Value Datum) {
  return makeSyntax(H, Datum, ScopeSet(), sourceFor(T.Range));
}

Value Reader::readAbbreviation(const Token &T, const char *HeadName) {
  Token Next = nextMeaningful();
  if (Next.Kind == TokenKind::Eof)
    fail(std::string("end of input after ") + HeadName, T.Range.Begin);
  Value Inner = readDatum(Next);
  Value Head = makeSyntax(H, Symbols.internValue(HeadName), ScopeSet(),
                          sourceFor(T.Range));
  SourcePos EndPos = Next.Range.End;
  if (const SourceObject *S = syntaxSource(Inner))
    EndPos.Offset = S->EndOffset; // cover the whole abbreviated datum
  SourceRange Whole{T.Range.Begin, EndPos};
  Value List = H.cons(Head, H.cons(Inner, Value::nil()));
  return makeSyntax(H, List, ScopeSet(), sourceFor(Whole));
}

Value Reader::readListTail(const SourcePos &OpenPos) {
  std::vector<Value> Elems;
  Value Tail = Value::nil();
  SourcePos EndPos = OpenPos;
  while (true) {
    Token T = nextMeaningful();
    if (T.Kind == TokenKind::Eof)
      fail("unterminated list", OpenPos);
    if (T.Kind == TokenKind::RParen) {
      EndPos = T.Range.End;
      break;
    }
    if (T.Kind == TokenKind::Dot) {
      if (Elems.empty())
        fail("dot at start of list", T.Range.Begin);
      Token After = nextMeaningful();
      if (After.Kind == TokenKind::Eof || After.Kind == TokenKind::RParen)
        fail("expected datum after dot", T.Range.Begin);
      Tail = readDatum(After);
      Token Close = nextMeaningful();
      if (Close.Kind != TokenKind::RParen)
        fail("expected ) after dotted tail", Close.Range.Begin);
      EndPos = Close.Range.End;
      break;
    }
    Elems.push_back(readDatum(T));
  }
  Value Spine = Tail;
  for (size_t I = Elems.size(); I > 0; --I)
    Spine = H.cons(Elems[I - 1], Spine);
  return makeSyntax(H, Spine, ScopeSet(),
                    sourceFor(SourceRange{OpenPos, EndPos}));
}

Value Reader::readVector(const SourcePos &OpenPos) {
  std::vector<Value> Elems;
  while (true) {
    Token T = nextMeaningful();
    if (T.Kind == TokenKind::Eof)
      fail("unterminated vector", OpenPos);
    if (T.Kind == TokenKind::RParen) {
      return makeSyntax(H, H.vector(std::move(Elems)), ScopeSet(),
                        sourceFor(SourceRange{OpenPos, T.Range.End}));
    }
    if (T.Kind == TokenKind::Dot)
      fail("dot inside vector", T.Range.Begin);
    Elems.push_back(readDatum(T));
  }
}

Value Reader::tripNestingDepth(const Token &T) {
  --Depth;
  raiseGuardTrip(GuardKind::Depth,
                 "datum nesting exceeds reader limit of " +
                     std::to_string(MaxNestingDepth),
                 FileName + ":" + std::to_string(T.Range.Begin.Line) + ":" +
                     std::to_string(T.Range.Begin.Column));
}

Value Reader::readDatum(const Token &T) {
  // Recursion here tracks input nesting 1:1, so adversarial input like
  // 100k open parens would overflow the C++ stack long before finishing.
  // Trip a catchable depth guard instead (message-building outlined off
  // the hot wrapper); RAII keeps the counter correct across the error
  // unwinds of nested datums (#; skipping, dotted tails).
  if (++Depth > MaxNestingDepth)
    return tripNestingDepth(T);
  struct DepthGuard {
    uint32_t &D;
    ~DepthGuard() { --D; }
  } Guard{Depth};
  return readDatumInner(T);
}

Value Reader::readDatumInner(const Token &T) {
  switch (T.Kind) {
  case TokenKind::LParen:
    return readListTail(T.Range.Begin);
  case TokenKind::VecOpen:
    return readVector(T.Range.Begin);
  case TokenKind::RParen:
    fail("unexpected )", T.Range.Begin);
  case TokenKind::Dot:
    fail("unexpected .", T.Range.Begin);
  case TokenKind::Quote:
    return readAbbreviation(T, "quote");
  case TokenKind::Quasiquote:
    return readAbbreviation(T, "quasiquote");
  case TokenKind::Unquote:
    return readAbbreviation(T, "unquote");
  case TokenKind::UnquoteSplicing:
    return readAbbreviation(T, "unquote-splicing");
  case TokenKind::SyntaxQuote:
    return readAbbreviation(T, "syntax");
  case TokenKind::Quasisyntax:
    return readAbbreviation(T, "quasisyntax");
  case TokenKind::Unsyntax:
    return readAbbreviation(T, "unsyntax");
  case TokenKind::UnsyntaxSplicing:
    return readAbbreviation(T, "unsyntax-splicing");
  case TokenKind::Boolean:
    return wrapAtom(T, Value::boolean(T.BoolValue));
  case TokenKind::Fixnum:
    return wrapAtom(T, Value::fixnum(T.IntValue));
  case TokenKind::Flonum:
    return wrapAtom(T, Value::flonum(T.FloatValue));
  case TokenKind::Character:
    return wrapAtom(T, Value::charval(T.CharValue));
  case TokenKind::String:
    return wrapAtom(T, H.string(T.Text));
  case TokenKind::Symbol:
    return wrapAtom(T, Symbols.internValue(T.Text));
  case TokenKind::DatumComment:
  case TokenKind::Eof:
    break;
  }
  fail("unexpected end of input", T.Range.Begin);
}

std::vector<Value> pgmp::readString(Heap &H, SymbolTable &Symbols,
                                    SourceObjectTable &Sources,
                                    std::string_view Text,
                                    std::string FileName) {
  Reader R(H, Symbols, Sources, Text, std::move(FileName));
  return R.readAll();
}
