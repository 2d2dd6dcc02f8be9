//===- interp/Compiler.cpp ------------------------------------------------===//

#include "interp/Compiler.h"

#include "expander/Matcher.h"
#include "expander/Template.h"
#include "support/Diagnostics.h"
#include "syntax/Writer.h"

#include <unordered_map>

using namespace pgmp;

namespace {

/// Compile-time knowledge about one local slot.
struct VarInfo {
  uint32_t Index = 0;
  bool IsPatternVar = false;
  int EllipsisDepth = 0;
};

/// One compile-time frame; mirrors a runtime EnvObj frame exactly
/// (lambda frames and syntax-case clause frames).
struct CompileFrame {
  std::unordered_map<Symbol *, VarInfo> Vars;
  CompileFrame *Parent = nullptr;
};

struct FoundVar {
  uint32_t Depth;
  VarInfo Info;
};

class CompilerImpl {
public:
  CompilerImpl(Context &Ctx, CodeUnit &Unit) : Ctx(Ctx), Unit(Unit) {
    Quote = Ctx.Symbols.intern("quote");
    If = Ctx.Symbols.intern("if");
    Lambda = Ctx.Symbols.intern("lambda");
    Begin = Ctx.Symbols.intern("begin");
    SetBang = Ctx.Symbols.intern("set!");
    Define = Ctx.Symbols.intern("define");
    SyntaxCaseStar = Ctx.Symbols.intern("syntax-case*");
    SyntaxTemplate = Ctx.Symbols.intern("syntax-template");
    QuasiTemplate = Ctx.Symbols.intern("quasisyntax-template");
    Ellipsis = Ctx.Symbols.intern("...");
    Underscore = Ctx.Symbols.intern("_");
    NoFender = Ctx.Symbols.intern("#%no-fender");
    UnsyntaxMark = Ctx.Symbols.intern("#%unsyntax");
    UnsyntaxSplicingMark = Ctx.Symbols.intern("#%unsyntax-splicing");
  }

  Expr *compile(Value Stx, CompileFrame *Frame, bool Tail);

private:
  [[noreturn]] void fail(const std::string &Msg, const Value &Stx) {
    const SourceObject *Src = syntaxSource(Stx);
    raiseError("compile: " + Msg + " in " + writeToString(Stx),
               Src ? Src->describe() : "");
  }

  /// Attaches source/profile info to a freshly built node.
  Expr *finish(Expr *E, const Value &Stx) {
    const SourceObject *Src = syntaxSource(Stx);
    E->Src = Src;
    Ctx.Stats.bump(Stat::CompiledNodes);
    if (Src && Ctx.InstrumentCompiles) {
      E->Counter = Ctx.Counters.counterFor(Src);
      Ctx.Stats.bump(Stat::InstrumentedNodes);
    }
    return E;
  }

  Expr *constant(Value V, const Value &Stx) {
    if (static_cast<uint8_t>(V.kind()) >=
        static_cast<uint8_t>(ValueKind::Symbol))
      Unit.ConstantPool.push_back(V);
    return finish(Unit.make<ConstExpr>(V), Stx);
  }

  std::optional<FoundVar> lookup(Symbol *S, CompileFrame *Frame) {
    uint32_t Depth = 0;
    for (CompileFrame *F = Frame; F; F = F->Parent, ++Depth) {
      auto It = F->Vars.find(S);
      if (It != F->Vars.end())
        return FoundVar{Depth, It->second};
    }
    return std::nullopt;
  }

  Expr *compileIdentifier(Value Stx, Symbol *S, CompileFrame *Frame) {
    if (!S->Interned) {
      auto Found = lookup(S, Frame);
      if (!Found)
        fail("reference to unknown renamed variable " + S->Name, Stx);
      if (Found->Info.IsPatternVar)
        fail("pattern variable " + S->Name + " used outside template", Stx);
      return finish(
          Unit.make<LocalRefExpr>(Found->Depth, Found->Info.Index, S), Stx);
    }
    return finish(Unit.make<GlobalRefExpr>(Ctx.globalCell(S), S), Stx);
  }

  /// Splits a core form list into elements + improper tail. The tail
  /// keeps its syntax wrapper; a wrapped () is normalized to plain nil.
  static void spine(Value Stx, std::vector<Value> &Elems, Value &TailOut) {
    Value Cur = syntaxE(Stx);
    while (true) {
      if (Cur.isPair()) {
        Elems.push_back(Cur.asPair()->Car);
        Cur = Cur.asPair()->Cdr;
        continue;
      }
      if (Cur.isSyntax() && syntaxE(Cur).isPair()) {
        Cur = syntaxE(Cur);
        continue;
      }
      break;
    }
    if (Cur.isSyntax() && syntaxE(Cur).isNil())
      Cur = Value::nil();
    TailOut = Cur;
  }

  Symbol *headSymbol(const std::vector<Value> &Elems) {
    if (Elems.empty())
      return nullptr;
    Syntax *Id = asIdentifier(Elems[0]);
    if (!Id)
      return nullptr;
    Symbol *S = Id->identifierSymbol();
    return S->Interned ? S : nullptr;
  }

  Expr *compileLambda(const std::vector<Value> &Elems, Value Stx,
                      CompileFrame *Frame);
  Expr *compileSyntaxCase(const std::vector<Value> &Elems, Value Stx,
                          CompileFrame *Frame, bool Tail);

  //===------------------------------------------------------------------===//
  // Patterns
  //===------------------------------------------------------------------===//

  struct PatternCtx {
    std::unordered_map<Symbol *, VarInfo> Vars;
    uint32_t NextSlot = 0;
    int Depth = 0;
    std::vector<std::vector<uint32_t> *> AccStack;
  };

  Pattern *compilePattern(Value PatStx, PatternCtx &PC) {
    Value In = syntaxE(PatStx);
    switch (In.kind()) {
    case ValueKind::Symbol: {
      Symbol *S = In.asSymbol();
      if (S == Underscore)
        return adopt(std::make_unique<WildcardPattern>());
      if (S == Ellipsis)
        fail("misplaced ellipsis in pattern", PatStx);
      if (S->Interned) {
        if (!PatStx.isSyntax())
          fail("literal pattern lost its identifier syntax", PatStx);
        return adopt(std::make_unique<LiteralPattern>(PatStx));
      }
      // Renamed pattern variable.
      if (PC.Vars.count(S))
        fail("duplicate pattern variable " + S->Name, PatStx);
      uint32_t Slot = PC.NextSlot++;
      PC.Vars.emplace(S, VarInfo{Slot, /*IsPatternVar=*/true, PC.Depth});
      for (auto *Acc : PC.AccStack)
        Acc->push_back(Slot);
      return adopt(std::make_unique<VarPattern>(Slot, S));
    }
    case ValueKind::Nil:
      return adopt(std::make_unique<NullPattern>());
    case ValueKind::Pair:
      return compileListPattern(PatStx, PC);
    case ValueKind::Vector: {
      std::vector<Pattern *> Elems;
      for (const Value &E : In.asVector()->Elems) {
        if (isEllipsisId(E))
          fail("ellipsis in vector pattern is not supported", PatStx);
        Elems.push_back(compilePattern(E, PC));
      }
      return adopt(std::make_unique<VectorPattern>(std::move(Elems)));
    }
    default:
      Unit.ConstantPool.push_back(In);
      return adopt(std::make_unique<DatumPattern>(In));
    }
  }

  bool isEllipsisId(const Value &V) {
    Syntax *Id = asIdentifier(V);
    return Id && Id->identifierSymbol() == Ellipsis;
  }

  Pattern *compileListPattern(Value PatStx, PatternCtx &PC) {
    std::vector<Value> Elems;
    Value TailEnd;
    spine(PatStx, Elems, TailEnd);

    // Find the (single, per level) ellipsis position.
    size_t EllipsisPos = Elems.size();
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (isEllipsisId(Elems[I])) {
        if (I == 0)
          fail("ellipsis with no preceding pattern", PatStx);
        if (EllipsisPos != Elems.size())
          fail("multiple ellipses at one list level", PatStx);
        EllipsisPos = I;
      }
    }

    if (EllipsisPos == Elems.size()) {
      // Plain (possibly dotted) list pattern.
      Pattern *End = TailEnd.isNil()
                         ? adopt(std::make_unique<NullPattern>())
                         : compilePattern(TailEnd, PC);
      Pattern *P = End;
      for (size_t I = Elems.size(); I > 0; --I)
        P = adopt(std::make_unique<ConsPattern>(compilePattern(Elems[I - 1], PC), P));
      // Note: builds Cons nodes right-to-left but compiles sub-patterns
      // right-to-left as well; slot order is still deterministic (it is
      // assigned by NextSlot at var sites), though not left-to-right.
      return P;
    }

    // Elements before the repeated one.
    auto EPOwned = std::make_unique<EllipsisPattern>();
    EllipsisPattern *EP = EPOwned.get();
    Pattern *EPAdopted = adopt(std::move(EPOwned));

    PC.AccStack.push_back(&EP->SubSlots);
    ++PC.Depth;
    EP->Sub = compilePattern(Elems[EllipsisPos - 1], PC);
    --PC.Depth;
    PC.AccStack.pop_back();

    for (size_t I = EllipsisPos + 1; I < Elems.size(); ++I) {
      if (isEllipsisId(Elems[I]))
        fail("multiple ellipses at one list level", PatStx);
      EP->TailElems.push_back(compilePattern(Elems[I], PC));
    }
    EP->End = TailEnd.isNil() ? adopt(std::make_unique<NullPattern>())
                              : compilePattern(TailEnd, PC);

    Pattern *P = EPAdopted;
    for (size_t I = EllipsisPos - 1; I > 0; --I)
      P = adopt(std::make_unique<ConsPattern>(compilePattern(Elems[I - 1], PC), P));
    return P;
  }

  Pattern *adopt(std::unique_ptr<Pattern> P) {
    return Unit.adoptPattern(std::move(P));
  }
  Template *adopt(std::unique_ptr<Template> T) {
    return Unit.adoptTemplate(std::move(T));
  }

  //===------------------------------------------------------------------===//
  // Templates
  //===------------------------------------------------------------------===//

  struct TemplateCtx {
    CompileFrame *Frame = nullptr;
    bool Quasi = false;
    bool Dynamic = false; ///< set when the current subtree needs rebuilding
    std::vector<std::vector<const VarRefTemplate *> *> DriverStack;
  };

  Template *compileTemplate(Value TplStx, TemplateCtx &TC) {
    Value In = syntaxE(TplStx);
    switch (In.kind()) {
    case ValueKind::Symbol: {
      Symbol *S = In.asSymbol();
      if (!S->Interned) {
        auto Found = lookup(S, TC.Frame);
        if (Found && Found->Info.IsPatternVar) {
          TC.Dynamic = true;
          auto VR = std::make_unique<VarRefTemplate>(
              Found->Depth, Found->Info.Index, S, Found->Info.EllipsisDepth);
          const VarRefTemplate *Raw = VR.get();
          if (Raw->EllipsisDepth >= 1)
            for (auto *Acc : TC.DriverStack)
              Acc->push_back(Raw);
          return adopt(std::move(VR));
        }
      }
      return adopt(std::make_unique<ConstTemplate>(TplStx));
    }
    case ValueKind::Pair: {
      // Quasisyntax escapes.
      if (TC.Quasi) {
        if (Symbol *Mark = listMarker(In)) {
          if (Mark == UnsyntaxMark) {
            TC.Dynamic = true;
            Expr *E = compile(secondOf(In), TC.Frame, /*Tail=*/false);
            return adopt(std::make_unique<UnsyntaxTemplate>(E));
          }
          if (Mark == UnsyntaxSplicingMark)
            fail("unsyntax-splicing outside list context", TplStx);
        }
      }
      return compileListTemplate(TplStx, TC);
    }
    case ValueKind::Vector: {
      bool Dyn = false;
      auto VTOwned = std::make_unique<VectorTemplate>();
      VectorTemplate *VT = VTOwned.get();
      VT->OriginalStx = TplStx;
      Template *Adopted = adopt(std::move(VTOwned));
      compileElems(In.asVector()->Elems, Value::nil(), VT->Elems, nullptr, TC,
                   Dyn, TplStx);
      if (!Dyn)
        return adopt(std::make_unique<ConstTemplate>(TplStx));
      TC.Dynamic = true;
      return Adopted;
    }
    default:
      return adopt(std::make_unique<ConstTemplate>(TplStx));
    }
  }

  /// If \p In is a two-element list whose head is an interned marker
  /// symbol, returns it.
  Symbol *listMarker(const Value &In) {
    if (!In.isPair())
      return nullptr;
    Syntax *Id = asIdentifier(In.asPair()->Car);
    if (!Id)
      return nullptr;
    Symbol *S = Id->identifierSymbol();
    if (S == UnsyntaxMark || S == UnsyntaxSplicingMark)
      return S;
    return nullptr;
  }

  Value secondOf(const Value &In) {
    Value Rest = syntaxE(In.asPair()->Cdr);
    if (!Rest.isPair())
      raiseError("malformed unsyntax marker");
    return Rest.asPair()->Car;
  }

  void compileElems(const std::vector<Value> &Elems, Value,
                    std::vector<TemplateElem> &Out, Template **TailOut,
                    TemplateCtx &TC, bool &Dyn, const Value &Whole) {
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (isEllipsisId(Elems[I]))
        fail("misplaced ellipsis in template", Whole);
      TemplateElem Elem;
      // Splicing escape as an element.
      Value ElemIn = syntaxE(Elems[I]);
      if (TC.Quasi && listMarker(ElemIn) == UnsyntaxSplicingMark) {
        Expr *E = compile(secondOf(ElemIn), TC.Frame, /*Tail=*/false);
        Elem.T = adopt(std::make_unique<UnsyntaxTemplate>(E));
        Elem.Splice = true;
        Dyn = true;
        Out.push_back(Elem);
        continue;
      }
      // Ellipsis-repeated element?
      bool Repeated = I + 1 < Elems.size() && isEllipsisId(Elems[I + 1]);
      if (Repeated) {
        TC.DriverStack.push_back(&Elem.Drivers);
        bool SubDyn = false;
        std::swap(TC.Dynamic, SubDyn);
        Elem.T = compileTemplate(Elems[I], TC);
        std::swap(TC.Dynamic, SubDyn);
        Dyn |= SubDyn;
        TC.DriverStack.pop_back();
        Elem.Ellipsis = true;
        if (Elem.Drivers.empty())
          fail("no pattern variable under ellipsis in template", Whole);
        if (I + 2 < Elems.size() && isEllipsisId(Elems[I + 2]))
          fail("multiple consecutive ellipses are not supported", Whole);
        ++I; // skip the ellipsis token
        Dyn = true;
      } else {
        bool SubDyn = false;
        std::swap(TC.Dynamic, SubDyn);
        Elem.T = compileTemplate(Elems[I], TC);
        std::swap(TC.Dynamic, SubDyn);
        Dyn |= SubDyn;
      }
      Out.push_back(Elem);
    }
    (void)TailOut;
  }

  Template *compileListTemplate(Value TplStx, TemplateCtx &TC) {
    std::vector<Value> Elems;
    Value TailEnd;
    spine(TplStx, Elems, TailEnd);

    bool Dyn = false;
    auto LTOwned = std::make_unique<ListTemplate>();
    ListTemplate *LT = LTOwned.get();
    LT->OriginalStx = TplStx;
    Template *Adopted = adopt(std::move(LTOwned));

    compileElems(Elems, Value::nil(), LT->Elems, nullptr, TC, Dyn, TplStx);

    if (!TailEnd.isNil()) {
      bool SubDyn = false;
      std::swap(TC.Dynamic, SubDyn);
      LT->Tail = compileTemplate(TailEnd, TC);
      std::swap(TC.Dynamic, SubDyn);
      Dyn |= SubDyn;
    }
    if (!Dyn)
      return adopt(std::make_unique<ConstTemplate>(TplStx));
    TC.Dynamic = true;
    return Adopted;
  }

  Context &Ctx;
  CodeUnit &Unit;

  Symbol *Quote, *If, *Lambda, *Begin, *SetBang, *Define, *SyntaxCaseStar,
      *SyntaxTemplate, *QuasiTemplate, *Ellipsis, *Underscore, *NoFender,
      *UnsyntaxMark, *UnsyntaxSplicingMark;
};

Expr *CompilerImpl::compileLambda(const std::vector<Value> &Elems, Value Stx,
                                  CompileFrame *Frame) {
  if (Elems.size() < 3)
    fail("lambda needs parameters and a body", Stx);

  auto L = Unit.make<LambdaExpr>();
  CompileFrame LambdaFrame;
  LambdaFrame.Parent = Frame;

  // Parameter list: proper, dotted, or a single rest identifier.
  std::vector<Value> ParamIds;
  Value RestId = Value::nil();
  Value ParamsStx = Elems[1];
  Value ParamsIn = syntaxE(ParamsStx);
  if (ParamsIn.isSymbol()) {
    RestId = ParamsStx;
  } else {
    Value Tail;
    spine(ParamsStx, ParamIds, Tail);
    if (!Tail.isNil()) {
      if (!syntaxE(Tail).isSymbol())
        fail("bad rest parameter", Stx);
      RestId = Tail;
    }
  }

  uint32_t Index = 0;
  auto addParam = [&](Value IdStx) {
    Value In = syntaxE(IdStx);
    if (!In.isSymbol() || In.asSymbol()->Interned)
      fail("lambda parameter is not a renamed identifier", Stx);
    Symbol *S = In.asSymbol();
    if (LambdaFrame.Vars.count(S))
      fail("duplicate parameter " + S->Name, Stx);
    LambdaFrame.Vars.emplace(S, VarInfo{Index++, false, 0});
    return S;
  };
  for (const Value &P : ParamIds)
    L->Params.push_back(addParam(P));
  if (!RestId.isNil()) {
    addParam(RestId);
    L->HasRest = true;
  }

  // Body: implicit begin.
  std::vector<Expr *> Body;
  for (size_t I = 2; I < Elems.size(); ++I)
    Body.push_back(
        compile(Elems[I], &LambdaFrame, /*Tail=*/I + 1 == Elems.size()));
  L->Body = Body.size() == 1 ? Body[0]
                             : finish(Unit.make<BeginExpr>(std::move(Body)),
                                      Elems.back());
  finish(L, Stx);

  // Profile-guided pre-tiering: a lambda whose body was hot in a loaded
  // profile skips the Auto warm-up and compiles to bytecode on its first
  // invocation. Consulted once at compile time — the snapshot is O(1)
  // when the database hasn't changed.
  if (Ctx.Tier.Mode == TierMode::Auto && L->Body->Src) {
    ProfileSnapshot Snap = Ctx.ProfileDb.snapshot();
    if (Snap.hasData() &&
        Snap.weightOpt(L->Body->Src).value_or(0.0) >= Ctx.Tier.HotWeight) {
      L->TierHot = true;
      Ctx.Stats.bump(Stat::TierPremarkedHot);
    }
  }
  Unit.HasLambdas = true;
  return L;
}

Expr *CompilerImpl::compileSyntaxCase(const std::vector<Value> &Elems,
                                      Value Stx, CompileFrame *Frame,
                                      bool Tail) {
  if (Elems.size() < 2)
    fail("syntax-case* needs a scrutinee", Stx);
  Expr *Scrut = compile(Elems[1], Frame, /*Tail=*/false);

  std::vector<SyntaxCaseClause> Clauses;
  for (size_t I = 2; I < Elems.size(); ++I) {
    std::vector<Value> Parts;
    Value TailEnd;
    spine(Elems[I], Parts, TailEnd);
    if (Parts.size() != 3 || !TailEnd.isNil())
      fail("malformed syntax-case* clause", Elems[I]);

    SyntaxCaseClause Clause;
    PatternCtx PC;
    Clause.Pat = compilePattern(Parts[0], PC);
    Clause.NumVars = PC.NextSlot;

    CompileFrame ClauseFrame;
    ClauseFrame.Parent = Frame;
    ClauseFrame.Vars = std::move(PC.Vars);

    Syntax *FenderId = asIdentifier(Parts[1]);
    if (!(FenderId && FenderId->identifierSymbol() == NoFender))
      Clause.Fender = compile(Parts[1], &ClauseFrame, /*Tail=*/false);
    Clause.Body = compile(Parts[2], &ClauseFrame, Tail);
    Clauses.push_back(Clause);
  }
  return finish(Unit.make<SyntaxCaseExpr>(Scrut, std::move(Clauses)), Stx);
}

Expr *CompilerImpl::compile(Value Stx, CompileFrame *Frame, bool Tail) {
  Value In = syntaxE(Stx);
  switch (In.kind()) {
  case ValueKind::Symbol:
    return compileIdentifier(Stx, In.asSymbol(), Frame);
  case ValueKind::Pair:
    break; // handled below
  case ValueKind::Nil:
    fail("empty application ()", Stx);
  default:
    // Self-evaluating atom; vector literals still carry wrapped elements,
    // so strip recursively.
    return constant(In.isVector() ? syntaxToDatum(Ctx.TheHeap, In) : In,
                    Stx);
  }

  std::vector<Value> Elems;
  Value TailEnd;
  spine(Stx, Elems, TailEnd);
  if (!TailEnd.isNil())
    fail("dotted list in expression position", Stx);

  Symbol *Head = headSymbol(Elems);
  if (Head == Quote) {
    if (Elems.size() != 2)
      fail("quote needs exactly one datum", Stx);
    return constant(syntaxToDatum(Ctx.TheHeap, Elems[1]), Stx);
  }
  if (Head == If) {
    if (Elems.size() != 3 && Elems.size() != 4)
      fail("if needs 2 or 3 parts", Stx);
    Expr *Test = compile(Elems[1], Frame, false);
    Expr *Then = compile(Elems[2], Frame, Tail);
    Expr *Else = Elems.size() == 4
                     ? compile(Elems[3], Frame, Tail)
                     : finish(Unit.make<ConstExpr>(Value::undefined()), Stx);
    return finish(Unit.make<IfExpr>(Test, Then, Else), Stx);
  }
  if (Head == Lambda)
    return compileLambda(Elems, Stx, Frame);
  if (Head == Begin) {
    if (Elems.size() == 1)
      return constant(Value::undefined(), Stx);
    std::vector<Expr *> Body;
    for (size_t I = 1; I < Elems.size(); ++I)
      Body.push_back(compile(Elems[I], Frame, Tail && I + 1 == Elems.size()));
    if (Body.size() == 1)
      return Body[0];
    return finish(Unit.make<BeginExpr>(std::move(Body)), Stx);
  }
  if (Head == SetBang) {
    if (Elems.size() != 3)
      fail("set! needs a variable and a value", Stx);
    Value IdIn = syntaxE(Elems[1]);
    if (!IdIn.isSymbol())
      fail("set! target is not an identifier", Stx);
    Symbol *S = IdIn.asSymbol();
    Expr *Val = compile(Elems[2], Frame, false);
    if (!S->Interned) {
      auto Found = lookup(S, Frame);
      if (!Found || Found->Info.IsPatternVar)
        fail("set! of unknown variable " + S->Name, Stx);
      return finish(
          Unit.make<SetLocalExpr>(Found->Depth, Found->Info.Index, Val, S),
          Stx);
    }
    return finish(Unit.make<SetGlobalExpr>(Ctx.globalCell(S), Val, S), Stx);
  }
  if (Head == Define) {
    if (Elems.size() != 3)
      fail("define needs a name and a value", Stx);
    Value IdIn = syntaxE(Elems[1]);
    if (!IdIn.isSymbol() || !IdIn.asSymbol()->Interned)
      fail("core define expects a global name", Stx);
    Symbol *S = IdIn.asSymbol();
    Expr *Val = compile(Elems[2], Frame, false);
    if (Val->K == ExprKind::Lambda)
      static_cast<LambdaExpr *>(Val)->Name = S->Name;
    return finish(Unit.make<DefineGlobalExpr>(Ctx.globalCell(S), Val, S),
                  Stx);
  }
  if (Head == SyntaxCaseStar)
    return compileSyntaxCase(Elems, Stx, Frame, Tail);
  if (Head == SyntaxTemplate || Head == QuasiTemplate) {
    if (Elems.size() != 2)
      fail("syntax template form needs one template", Stx);
    TemplateCtx TC;
    TC.Frame = Frame;
    TC.Quasi = Head == QuasiTemplate;
    Template *Tpl = compileTemplate(Elems[1], TC);
    return finish(Unit.make<TemplateExpr>(Tpl), Stx);
  }

  // Application.
  Expr *Fn = compile(Elems[0], Frame, false);
  std::vector<Expr *> Args;
  for (size_t I = 1; I < Elems.size(); ++I)
    Args.push_back(compile(Elems[I], Frame, false));
  return finish(Unit.make<CallExpr>(Fn, std::move(Args), Tail), Stx);
}

} // namespace

std::unique_ptr<CodeUnit> pgmp::compileCore(Context &Ctx, Value CoreStx) {
  Ctx.Stats.bump(Stat::CompiledUnits);
  // Constants materialized at compile time (quoted data stripped of its
  // syntax wrappers) are attributed to the compiler's site.
  AllocSiteScope Site(Ctx.TheHeap, AllocSite::CompilerConst);
  auto Unit = std::make_unique<CodeUnit>();
  CompilerImpl C(Ctx, *Unit);
  Unit->Root = C.compile(CoreStx, /*Frame=*/nullptr, /*Tail=*/false);
  return Unit;
}
