//===- reader/Lexer.cpp ---------------------------------------------------===//

#include "reader/Lexer.h"

#include "support/Diagnostics.h"
#include "support/Text.h"

#include <cassert>
#include <cctype>

using namespace pgmp;

bool pgmp::isSymbolChar(char C) {
  if (std::isalnum(static_cast<unsigned char>(C)))
    return true;
  switch (C) {
  case '!':
  case '$':
  case '%':
  case '&':
  case '*':
  case '/':
  case ':':
  case '<':
  case '=':
  case '>':
  case '?':
  case '^':
  case '_':
  case '~':
  case '+':
  case '-':
  case '.':
  case '@':
    return true;
  default:
    return false;
  }
}

Lexer::Lexer(std::string_view Text, std::string FileName)
    : Text(Text), FileName(std::move(FileName)) {}

char Lexer::peek(size_t Ahead) const {
  return Pos + Ahead < Text.size() ? Text[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  char C = Text[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

SourcePos Lexer::here() const {
  return SourcePos{static_cast<uint32_t>(Pos), Line, Column};
}

void Lexer::fail(const std::string &Msg, const SourcePos &At) {
  raiseError(Msg, FileName + ":" + std::to_string(At.Line) + ":" +
                      std::to_string(At.Column));
}

void Lexer::skipWhitespaceAndComments() {
  while (!atEnd()) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == ';') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '#' && peek(1) == '|') {
      SourcePos Start = here();
      advance();
      advance();
      unsigned Depth = 1;
      while (Depth > 0) {
        if (atEnd())
          fail("unterminated block comment", Start);
        if (peek() == '#' && peek(1) == '|') {
          advance();
          advance();
          ++Depth;
        } else if (peek() == '|' && peek(1) == '#') {
          advance();
          advance();
          --Depth;
        } else {
          advance();
        }
      }
      continue;
    }
    return;
  }
}

Token Lexer::lexString(SourcePos Start) {
  std::string Out;
  while (true) {
    if (atEnd())
      fail("unterminated string literal", Start);
    char C = advance();
    if (C == '"')
      break;
    if (C != '\\') {
      Out += C;
      continue;
    }
    if (atEnd())
      fail("unterminated string escape", Start);
    char E = advance();
    switch (E) {
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    case 'r':
      Out += '\r';
      break;
    case '\\':
      Out += '\\';
      break;
    case '"':
      Out += '"';
      break;
    default:
      fail(std::string("unknown string escape \\") + E, Start);
    }
  }
  Token T;
  T.Kind = TokenKind::String;
  T.Range = {Start, here()};
  T.Text = std::move(Out);
  return T;
}

Token Lexer::lexCharacter(SourcePos Start) {
  if (atEnd())
    fail("unterminated character literal", Start);
  // Read one char, then any following symbol chars for named characters.
  std::string Name;
  Name += advance();
  while (!atEnd() && Name.size() < 16 &&
         std::isalpha(static_cast<unsigned char>(peek())) &&
         std::isalpha(static_cast<unsigned char>(Name[0])))
    Name += advance();

  Token T;
  T.Kind = TokenKind::Character;
  T.Range = {Start, here()};
  if (Name.size() == 1) {
    T.CharValue = static_cast<unsigned char>(Name[0]);
    return T;
  }
  if (Name == "space")
    T.CharValue = ' ';
  else if (Name == "newline" || Name == "linefeed")
    T.CharValue = '\n';
  else if (Name == "tab")
    T.CharValue = '\t';
  else if (Name == "return")
    T.CharValue = '\r';
  else if (Name == "nul" || Name == "null")
    T.CharValue = 0;
  else
    fail("unknown character name #\\" + Name, Start);
  return T;
}

Token Lexer::lexAtom(SourcePos Start) {
  // Atoms never contain a newline, so the scan only advances the column;
  // the spelling stays a view of the text until a symbol needs a copy.
  size_t Begin = Pos;
  while (!atEnd() && isSymbolChar(peek()))
    ++Pos;
  Column += static_cast<uint32_t>(Pos - Begin);
  std::string_view Spelling = Text.substr(Begin, Pos - Begin);
  assert(!Spelling.empty() && "lexAtom called on non-atom");

  Token T;
  T.Range = {Start, here()};

  if (Spelling == ".") {
    T.Kind = TokenKind::Dot;
    return T;
  }
  int64_t IV;
  if (parseInt64(Spelling, IV)) {
    T.Kind = TokenKind::Fixnum;
    T.IntValue = IV;
    return T;
  }
  double DV;
  // Only treat as a number when it starts like one: avoids classifying
  // symbols such as `1+` oddly while accepting 1.5, -2e3, .5.
  char C0 = Spelling[0];
  bool NumberLike = std::isdigit(static_cast<unsigned char>(C0)) ||
                    ((C0 == '+' || C0 == '-' || C0 == '.') &&
                     Spelling.size() > 1 &&
                     (std::isdigit(static_cast<unsigned char>(Spelling[1])) ||
                      Spelling[1] == '.'));
  if (NumberLike && parseDouble(Spelling, DV)) {
    T.Kind = TokenKind::Flonum;
    T.FloatValue = DV;
    return T;
  }
  T.Kind = TokenKind::Symbol;
  T.Text = Spelling;
  return T;
}

Token Lexer::next() {
  skipWhitespaceAndComments();
  SourcePos Start = here();
  Token T;
  T.Range = {Start, Start};
  if (atEnd())
    return T;

  char C = peek();
  switch (C) {
  case '(':
  case '[':
    advance();
    T.Kind = TokenKind::LParen;
    T.Range.End = here();
    return T;
  case ')':
  case ']':
    advance();
    T.Kind = TokenKind::RParen;
    T.Range.End = here();
    return T;
  case '\'':
    advance();
    T.Kind = TokenKind::Quote;
    T.Range.End = here();
    return T;
  case '`':
    advance();
    T.Kind = TokenKind::Quasiquote;
    T.Range.End = here();
    return T;
  case ',':
    advance();
    if (peek() == '@') {
      advance();
      T.Kind = TokenKind::UnquoteSplicing;
    } else {
      T.Kind = TokenKind::Unquote;
    }
    T.Range.End = here();
    return T;
  case '"':
    advance();
    return lexString(Start);
  case '#': {
    advance();
    char D = peek();
    switch (D) {
    case '(':
      advance();
      T.Kind = TokenKind::VecOpen;
      T.Range.End = here();
      return T;
    case '\'':
      advance();
      T.Kind = TokenKind::SyntaxQuote;
      T.Range.End = here();
      return T;
    case '`':
      advance();
      T.Kind = TokenKind::Quasisyntax;
      T.Range.End = here();
      return T;
    case ',':
      advance();
      if (peek() == '@') {
        advance();
        T.Kind = TokenKind::UnsyntaxSplicing;
      } else {
        T.Kind = TokenKind::Unsyntax;
      }
      T.Range.End = here();
      return T;
    case ';':
      advance();
      T.Kind = TokenKind::DatumComment;
      T.Range.End = here();
      return T;
    case 't':
    case 'f': {
      advance();
      // Reject #true-ish runs that are not just #t/#f followed by a
      // delimiter.
      if (!atEnd() && isSymbolChar(peek()))
        fail("bad boolean literal", Start);
      T.Kind = TokenKind::Boolean;
      T.BoolValue = D == 't';
      T.Range.End = here();
      return T;
    }
    case '\\':
      advance();
      return lexCharacter(Start);
    default:
      fail(std::string("unknown reader syntax #") + D, Start);
    }
  }
  default:
    if (isSymbolChar(C))
      return lexAtom(Start);
    fail(std::string("stray character '") + C + "'", Start);
  }
}
