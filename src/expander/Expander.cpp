//===- expander/Expander.cpp ----------------------------------------------===//

#include "expander/Expander.h"

#include "interp/Compiler.h"
#include "interp/Eval.h"
#include "support/Diagnostics.h"
#include "support/ExecGuard.h"
#include "syntax/Writer.h"

#include <unordered_map>
#include <unordered_set>

using namespace pgmp;

namespace {

/// Core and derived forms the expander knows natively.
enum class Form : uint8_t {
  None,
  Quote,
  If,
  Lambda,
  Begin,
  SetBang,
  Define,
  DefineSyntax,
  Let,
  LetStar,
  Letrec,
  LetrecStar,
  Cond,
  When,
  Unless,
  And,
  Or,
  Quasiquote,
  SyntaxCase,
  SyntaxForm,
  Quasisyntax,
  WithSyntax,
  SyntaxRules,
  Do,
  LetSyntax,
};

struct ResolveResult {
  enum class Kind : uint8_t { Unbound, Ambiguous, Bound } K;
  BindingLabel Label = 0;
  const ExpBinding *B = nullptr;
};

} // namespace

class Expander::Impl {
public:
  explicit Impl(Context &Ctx) : Ctx(Ctx) {
    auto AddForm = [&](const char *Name, Form F) {
      Forms.emplace(Ctx.Symbols.intern(Name), F);
    };
    AddForm("quote", Form::Quote);
    AddForm("if", Form::If);
    AddForm("lambda", Form::Lambda);
    AddForm("begin", Form::Begin);
    AddForm("set!", Form::SetBang);
    AddForm("define", Form::Define);
    AddForm("define-syntax", Form::DefineSyntax);
    AddForm("let", Form::Let);
    AddForm("let*", Form::LetStar);
    AddForm("letrec", Form::Letrec);
    AddForm("letrec*", Form::LetrecStar);
    AddForm("cond", Form::Cond);
    AddForm("when", Form::When);
    AddForm("unless", Form::Unless);
    AddForm("and", Form::And);
    AddForm("or", Form::Or);
    AddForm("quasiquote", Form::Quasiquote);
    AddForm("syntax-case", Form::SyntaxCase);
    AddForm("syntax", Form::SyntaxForm);
    AddForm("quasisyntax", Form::Quasisyntax);
    AddForm("with-syntax", Form::WithSyntax);
    AddForm("syntax-rules", Form::SyntaxRules);
    AddForm("do", Form::Do);
    AddForm("let-syntax", Form::LetSyntax);
    AddForm("letrec-syntax", Form::LetSyntax);

    SymQuote = Ctx.Symbols.intern("quote");
    SymIf = Ctx.Symbols.intern("if");
    SymLambda = Ctx.Symbols.intern("lambda");
    SymBegin = Ctx.Symbols.intern("begin");
    SymSet = Ctx.Symbols.intern("set!");
    SymDefine = Ctx.Symbols.intern("define");
    SymSyntaxCaseStar = Ctx.Symbols.intern("syntax-case*");
    SymSyntaxTemplate = Ctx.Symbols.intern("syntax-template");
    SymQuasiTemplate = Ctx.Symbols.intern("quasisyntax-template");
    SymNoFender = Ctx.Symbols.intern("#%no-fender");
    SymUnsyntaxMark = Ctx.Symbols.intern("#%unsyntax");
    SymUnsyntaxSplicingMark = Ctx.Symbols.intern("#%unsyntax-splicing");
    SymEllipsis = Ctx.Symbols.intern("...");
    SymUnderscore = Ctx.Symbols.intern("_");
    SymElse = Ctx.Symbols.intern("else");
    SymArrow = Ctx.Symbols.intern("=>");
    SymUnquote = Ctx.Symbols.intern("unquote");
    SymUnquoteSplicing = Ctx.Symbols.intern("unquote-splicing");
    SymUnsyntax = Ctx.Symbols.intern("unsyntax");
    SymUnsyntaxSplicing = Ctx.Symbols.intern("unsyntax-splicing");
    SymVoid = Ctx.Symbols.intern("void");
    SymLetrecStar = Ctx.Symbols.intern("letrec*");
    SymLet = Ctx.Symbols.intern("let");
    SymCons = Ctx.Symbols.intern("cons");
    SymAppend = Ctx.Symbols.intern("append");
    SymList = Ctx.Symbols.intern("list");
  }

  Context &Ctx;
  std::unordered_map<Symbol *, Form> Forms;
  Symbol *SymQuote, *SymIf, *SymLambda, *SymBegin, *SymSet, *SymDefine,
      *SymSyntaxCaseStar, *SymSyntaxTemplate, *SymQuasiTemplate, *SymNoFender,
      *SymUnsyntaxMark, *SymUnsyntaxSplicingMark, *SymEllipsis, *SymUnderscore,
      *SymElse, *SymArrow, *SymUnquote, *SymUnquoteSplicing, *SymUnsyntax,
      *SymUnsyntaxSplicing, *SymVoid, *SymLetrecStar, *SymLet, *SymCons,
      *SymAppend, *SymList;

  //===------------------------------------------------------------------===//
  // Small syntax constructors
  //===------------------------------------------------------------------===//

  [[noreturn]] void fail(const std::string &Msg, const Value &Stx) {
    const SourceObject *Src = syntaxSource(Stx);
    raiseError("expand: " + Msg + " in " +
                   writeValue(Stx, [] {
                     WriteOptions O;
                     O.SyntaxAsDatum = true;
                     return O;
                   }()),
               Src ? Src->describe() : "");
  }

  /// Synthetic identifier with empty scopes: resolves to a core form or a
  /// global, and can never be captured by user bindings.
  Value makeId(Symbol *S, const SourceObject *Src) {
    return makeSyntax(Ctx.TheHeap, Value::object(ValueKind::Symbol, S),
                      ScopeSet(), Src);
  }

  /// Adds \p S to every scope set in \p Stx (a rebuilt copy).
  Value addScope(const Value &Stx, ScopeId S) {
    return adjustScope(Ctx.TheHeap, Ctx.ScopeSets, Stx, S, ScopeOp::Add);
  }
  /// Flips \p S in every scope set in \p Stx (a rebuilt copy).
  Value flipScope(const Value &Stx, ScopeId S) {
    return adjustScope(Ctx.TheHeap, Ctx.ScopeSets, Stx, S, ScopeOp::Flip);
  }

  /// Wraps a plain element spine as a syntax list.
  Value listStx(const std::vector<Value> &Elems, const SourceObject *Src,
                Value Tail = Value::nil()) {
    Value Spine = Tail;
    for (size_t I = Elems.size(); I > 0; --I)
      Spine = Ctx.TheHeap.cons(Elems[I - 1], Spine);
    return makeSyntax(Ctx.TheHeap, Spine, ScopeSet(), Src);
  }

  /// Splits a (possibly syntax-wrapped) list into elements + tail. The
  /// tail keeps its syntax wrapper (scopes matter for dotted patterns);
  /// a wrapped () is normalized to plain nil.
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

  ResolveResult resolve(Syntax *Id) {
    ResolveResult R{ResolveResult::Kind::Unbound, 0, nullptr};
    auto Res = Ctx.Bindings.resolve(Id->identifierSymbol(), Id->Scopes);
    if (Res.Ambiguous) {
      R.K = ResolveResult::Kind::Ambiguous;
      return R;
    }
    if (Res.Label == 0)
      return R;
    const ExpBinding *B = Ctx.meaningOf(Res.Label);
    if (!B)
      return R;
    R.K = ResolveResult::Kind::Bound;
    R.Label = Res.Label;
    R.B = B;
    return R;
  }

  /// Is \p V an identifier spelled like \p S that does not resolve to a
  /// user binding? (Used for auxiliary keywords: else, =>, unquote, ...)
  bool isAuxKeyword(const Value &V, Symbol *S) {
    Syntax *Id = asIdentifier(V);
    if (!Id || Id->identifierSymbol() != S)
      return false;
    return resolve(Id).K != ResolveResult::Kind::Bound;
  }

  //===------------------------------------------------------------------===//
  // Expansion driver
  //===------------------------------------------------------------------===//

  /// Maximum syntax nesting expand() will recurse into. Expansion depth
  /// tracks input nesting (each compound form recurses once per layer),
  /// so deeply nested generated code — or a reader-limit bypass via
  /// macro-generated nesting — would overflow the C++ stack. Lower than
  /// the reader's cap because expansion frames are much fatter.
  static constexpr uint32_t MaxExpandDepth = 1000;
  uint32_t ExpandDepth = 0;

  /// Cold outlined raise for the nesting cap (never returns).
  Value tripExpandDepth(Value Stx) {
    --ExpandDepth;
    const SourceObject *Src = syntaxSource(Stx);
    raiseGuardTrip(GuardKind::Depth,
                   "syntax nesting exceeds expander limit of " +
                       std::to_string(MaxExpandDepth),
                   Src ? Src->describe() : "");
  }

  Value expand(Value Stx) {
    if (++ExpandDepth > MaxExpandDepth)
      return tripExpandDepth(Stx);
    struct DepthGuard {
      uint32_t &D;
      ~DepthGuard() { --D; }
    } Guard{ExpandDepth};
    return expandNoDepthCheck(Stx);
  }

  Value expandNoDepthCheck(Value Stx) {
    for (unsigned Fuel = 0; Fuel < 10000; ++Fuel) {
      Value In = syntaxE(Stx);

      if (In.isSymbol()) {
        Syntax *Id = Stx.isSyntax() ? Stx.asSyntax() : nullptr;
        if (!Id)
          fail("bare symbol outside syntax", Stx);
        return expandIdentifier(Id, Stx);
      }
      if (!In.isPair())
        return Stx; // self-evaluating atom (or vector literal)

      Syntax *HeadId = asIdentifier(In.asPair()->Car);
      if (HeadId) {
        ResolveResult R = resolve(HeadId);
        if (R.K == ResolveResult::Kind::Ambiguous)
          fail("ambiguous identifier " + HeadId->identifierSymbol()->Name,
               Stx);
        if (R.K == ResolveResult::Kind::Bound) {
          if (R.B->K == ExpBinding::Kind::Macro) {
            Stx = invokeMacro(Stx, R.B->Transformer);
            continue;
          }
          if (R.B->K == ExpBinding::Kind::PatternVar)
            fail("pattern variable used as expression head", Stx);
          return expandApplication(Stx);
        }
        // Unbound: core/derived form or global call.
        auto FIt = Forms.find(HeadId->identifierSymbol());
        if (FIt != Forms.end())
          return expandForm(FIt->second, Stx);
      }
      return expandApplication(Stx);
    }
    fail("macro expansion did not terminate", Stx);
  }

  Value expandIdentifier(Syntax *Id, const Value &Stx) {
    ResolveResult R = resolve(Id);
    switch (R.K) {
    case ResolveResult::Kind::Ambiguous:
      fail("ambiguous identifier " + Id->identifierSymbol()->Name, Stx);
    case ResolveResult::Kind::Unbound:
      return Stx; // global reference by name
    case ResolveResult::Kind::Bound:
      break;
    }
    switch (R.B->K) {
    case ExpBinding::Kind::Variable:
      return makeId(R.B->Renamed, syntaxSource(Stx));
    case ExpBinding::Kind::Macro:
      fail("macro " + Id->identifierSymbol()->Name +
               " used as an expression",
           Stx);
    case ExpBinding::Kind::PatternVar:
      fail("pattern variable " + Id->identifierSymbol()->Name +
               " used outside a syntax template",
           Stx);
    }
    fail("corrupt binding", Stx);
  }

  Value expandApplication(const Value &Stx) {
    std::vector<Value> Elems;
    Value Tail;
    spine(Stx, Elems, Tail);
    if (!Tail.isNil())
      fail("dotted list in application", Stx);
    if (Elems.empty())
      fail("empty application", Stx);
    std::vector<Value> Out;
    Out.reserve(Elems.size());
    for (const Value &E : Elems)
      Out.push_back(expand(E));
    return listStx(Out, syntaxSource(Stx));
  }

  Value invokeMacro(Value UseStx, Value Transformer) {
    Ctx.Stats.bump(Stat::MacroExpansions);
    ScopeId Intro = Ctx.freshScope();
    Value Input = flipScope(UseStx, Intro);
    Value Args[1] = {Input};
    // Transformers are phase-1 code: they must never tier up to the VM
    // (their bodies may contain syntax-case/template nodes, and tiering
    // them would waste compile time on code that runs a handful of
    // times). The depth guard covers closures the transformer calls too.
    struct PhaseOneGuard {
      Context &Ctx;
      explicit PhaseOneGuard(Context &Ctx) : Ctx(Ctx) { ++Ctx.PhaseOneDepth; }
      ~PhaseOneGuard() { --Ctx.PhaseOneDepth; }
    } Guard(Ctx);
    Value Out = Ctx.apply(Transformer, Args, 1);
    if (!Out.isSyntax() && !Out.isPair())
      raiseError("macro transformer returned a non-syntax value: " +
                 writeToString(Out));
    Value Result = flipScope(Out, Intro);
    // Attribute generated code to the use site when it has no source of
    // its own, so profile points keep pointing at user code.
    if (Result.isSyntax() && !Result.asSyntax()->Src)
      if (const SourceObject *UseSrc = syntaxSource(UseStx))
        Result = makeSyntax(Ctx.TheHeap, Result.asSyntax()->Inner,
                            Result.asSyntax()->Scopes, UseSrc);
    return Result;
  }

  //===------------------------------------------------------------------===//
  // Core and derived forms
  //===------------------------------------------------------------------===//

  Value expandForm(Form F, const Value &Stx) {
    std::vector<Value> Elems;
    Value Tail;
    spine(Stx, Elems, Tail);
    if (!Tail.isNil())
      fail("dotted special form", Stx);
    const SourceObject *Src = syntaxSource(Stx);

    switch (F) {
    case Form::Quote:
      if (Elems.size() != 2)
        fail("quote expects one datum", Stx);
      return listStx({makeId(SymQuote, Src), Elems[1]}, Src);

    case Form::If: {
      if (Elems.size() != 3 && Elems.size() != 4)
        fail("if expects 2 or 3 subforms", Stx);
      std::vector<Value> Out = {makeId(SymIf, Src), expand(Elems[1]),
                                expand(Elems[2])};
      if (Elems.size() == 4)
        Out.push_back(expand(Elems[3]));
      return listStx(Out, Src);
    }

    case Form::Lambda:
      return expandLambda(Elems, Stx);

    case Form::Begin: {
      if (Elems.size() == 1)
        fail("empty begin", Stx);
      std::vector<Value> Out = {makeId(SymBegin, Src)};
      for (size_t I = 1; I < Elems.size(); ++I)
        Out.push_back(expand(Elems[I]));
      return listStx(Out, Src);
    }

    case Form::SetBang: {
      if (Elems.size() != 3)
        fail("set! expects a variable and a value", Stx);
      Syntax *Id = asIdentifier(Elems[1]);
      if (!Id)
        fail("set! target must be an identifier", Stx);
      ResolveResult R = resolve(Id);
      Value Target;
      if (R.K == ResolveResult::Kind::Bound) {
        if (R.B->K != ExpBinding::Kind::Variable)
          fail("set! of a non-variable binding", Stx);
        Target = makeId(R.B->Renamed, Id->Src);
      } else if (R.K == ResolveResult::Kind::Unbound) {
        Target = Elems[1];
      } else {
        fail("ambiguous identifier in set!", Stx);
      }
      return listStx({makeId(SymSet, Src), Target, expand(Elems[2])}, Src);
    }

    case Form::Define:
      return expandDefine(Elems, Stx, /*TopLevel=*/false);

    case Form::DefineSyntax:
      fail("define-syntax is only allowed at top level", Stx);

    case Form::Let:
      return expandLet(Elems, Stx);
    case Form::LetStar:
      return expandLetStar(Elems, Stx);
    case Form::Letrec:
    case Form::LetrecStar:
      return expandLetrec(Elems, Stx);
    case Form::Cond:
      return expandCond(Elems, Stx);
    case Form::When:
    case Form::Unless: {
      if (Elems.size() < 3)
        fail("when/unless expect a test and a body", Stx);
      std::vector<Value> Body(Elems.begin() + 2, Elems.end());
      Value BodyStx = Body.size() == 1
                          ? Body[0]
                          : prependId(SymBegin, Body, Src);
      Value Test = Elems[1];
      if (F == Form::Unless) {
        // (if test (void) body)
        return expand(listStx({makeId(SymIf, Src), Test,
                               listStx({makeId(SymVoid, Src)}, Src), BodyStx},
                              Src));
      }
      return expand(listStx({makeId(SymIf, Src), Test, BodyStx,
                             listStx({makeId(SymVoid, Src)}, Src)},
                            Src));
    }
    case Form::And: {
      if (Elems.size() == 1)
        return listStx({makeId(SymQuote, Src),
                        makeSyntax(Ctx.TheHeap, Value::boolean(true),
                                   ScopeSet(), Src)},
                       Src);
      if (Elems.size() == 2)
        return expand(Elems[1]);
      std::vector<Value> Rest(Elems.begin() + 2, Elems.end());
      Value RestAnd = prependId(Ctx.Symbols.intern("and"), Rest, Src);
      return expand(listStx({makeId(SymIf, Src), Elems[1], RestAnd,
                             makeSyntax(Ctx.TheHeap, Value::boolean(false),
                                        ScopeSet(), Src)},
                            Src));
    }
    case Form::Or: {
      if (Elems.size() == 1)
        return listStx({makeId(SymQuote, Src),
                        makeSyntax(Ctx.TheHeap, Value::boolean(false),
                                   ScopeSet(), Src)},
                       Src);
      if (Elems.size() == 2)
        return expand(Elems[1]);
      // (let ([t e1]) (if t t (or rest...)))
      Value T = makeId(Ctx.Symbols.gensym("or-tmp"), Src);
      std::vector<Value> Rest(Elems.begin() + 2, Elems.end());
      Value RestOr = prependId(Ctx.Symbols.intern("or"), Rest, Src);
      Value Binding = listStx({T, Elems[1]}, Src);
      Value Bindings = listStx({Binding}, Src);
      Value IfStx = listStx({makeId(SymIf, Src), T, T, RestOr}, Src);
      return expand(listStx({makeId(SymLet, Src), Bindings, IfStx}, Src));
    }
    case Form::Quasiquote: {
      if (Elems.size() != 2)
        fail("quasiquote expects one template", Stx);
      return expand(quasiData(Elems[1], Src));
    }
    case Form::SyntaxCase:
      return expandSyntaxCase(Elems, Stx);
    case Form::SyntaxForm: {
      if (Elems.size() != 2)
        fail("syntax expects one template", Stx);
      Value T = substPatternVars(Elems[1], /*Quasi=*/false);
      return listStx({makeId(SymSyntaxTemplate, Src), T}, Src);
    }
    case Form::Quasisyntax: {
      if (Elems.size() != 2)
        fail("quasisyntax expects one template", Stx);
      Value T = substPatternVars(Elems[1], /*Quasi=*/true);
      return listStx({makeId(SymQuasiTemplate, Src), T}, Src);
    }
    case Form::WithSyntax:
      return expandWithSyntax(Elems, Stx);
    case Form::SyntaxRules:
      return expandSyntaxRules(Elems, Stx);
    case Form::Do:
      return expandDo(Elems, Stx);
    case Form::LetSyntax:
      return expandLetSyntax(Elems, Stx);
    case Form::None:
      break;
    }
    fail("unhandled form", Stx);
  }

  Value prependId(Symbol *S, const std::vector<Value> &Rest,
                  const SourceObject *Src) {
    std::vector<Value> Out = {makeId(S, Src)};
    Out.insert(Out.end(), Rest.begin(), Rest.end());
    return listStx(Out, Src);
  }

  //===------------------------------------------------------------------===//
  // lambda / bodies / define
  //===------------------------------------------------------------------===//

  /// Rewrites leading internal defines into a letrec* around the rest.
  Value rewriteBody(const std::vector<Value> &BodyForms, const Value &Stx) {
    const SourceObject *Src = syntaxSource(Stx);
    if (BodyForms.empty())
      fail("empty body", Stx);

    std::vector<Value> Defines;
    size_t FirstExpr = 0;
    for (; FirstExpr < BodyForms.size(); ++FirstExpr) {
      Value In = syntaxE(BodyForms[FirstExpr]);
      if (!In.isPair())
        break;
      Syntax *HeadId = asIdentifier(In.asPair()->Car);
      if (!HeadId || HeadId->identifierSymbol() != SymDefine ||
          resolve(HeadId).K == ResolveResult::Kind::Bound)
        break;
      Defines.push_back(BodyForms[FirstExpr]);
    }
    if (Defines.empty()) {
      if (BodyForms.size() == 1)
        return BodyForms[0];
      return prependId(SymBegin, BodyForms, Src);
    }
    if (FirstExpr == BodyForms.size())
      fail("body consists only of definitions", Stx);

    // (letrec* ([name expr]...) rest...)
    std::vector<Value> Bindings;
    for (const Value &D : Defines) {
      auto [Name, Expr] = splitDefine(D);
      Bindings.push_back(listStx({Name, Expr}, syntaxSource(D)));
    }
    std::vector<Value> Out = {makeId(SymLetrecStar, Src),
                              listStx(Bindings, Src)};
    for (size_t I = FirstExpr; I < BodyForms.size(); ++I)
      Out.push_back(BodyForms[I]);
    return listStx(Out, Src);
  }

  /// (define x e) / (define (f . args) body...) -> {name, expr}.
  std::pair<Value, Value> splitDefine(const Value &Stx) {
    std::vector<Value> Elems;
    Value Tail;
    spine(Stx, Elems, Tail);
    if (!Tail.isNil() || Elems.size() < 2)
      fail("malformed define", Stx);
    const SourceObject *Src = syntaxSource(Stx);

    Value Target = Elems[1];
    Value TargetIn = syntaxE(Target);
    if (TargetIn.isSymbol()) {
      if (Elems.size() == 2)
        return {Target, listStx({makeId(SymVoid, Src)}, Src)};
      if (Elems.size() != 3)
        fail("define expects one value expression", Stx);
      return {Target, Elems[2]};
    }
    if (!TargetIn.isPair())
      fail("bad define target", Stx);

    // Procedure shorthand: (define (f . params) body...)
    Value Name = TargetIn.asPair()->Car;
    if (!asIdentifier(Name))
      fail("bad procedure name in define", Stx);
    Value Params = makeSyntax(Ctx.TheHeap, TargetIn.asPair()->Cdr, ScopeSet(),
                              Src);
    std::vector<Value> LambdaParts = {makeId(SymLambda, Src), Params};
    for (size_t I = 2; I < Elems.size(); ++I)
      LambdaParts.push_back(Elems[I]);
    return {Name, listStx(LambdaParts, Src)};
  }

  Value expandLambda(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 3)
      fail("lambda expects parameters and a body", Stx);
    const SourceObject *Src = syntaxSource(Stx);
    ScopeId S = Ctx.freshScope();

    Value Params = addScope(Elems[1], S);
    std::vector<Value> Body;
    for (size_t I = 2; I < Elems.size(); ++I)
      Body.push_back(addScope(Elems[I], S));

    // Bind parameters.
    std::vector<Value> RenamedParams;
    Value RestRenamed = Value::nil();
    auto bindParam = [&](Value IdStx) -> Value {
      Syntax *Id = asIdentifier(IdStx);
      if (!Id)
        fail("lambda parameter is not an identifier", Stx);
      Symbol *Orig = Id->identifierSymbol();
      Symbol *Renamed = Ctx.Symbols.gensym(Orig->Name);
      ExpBinding B;
      B.K = ExpBinding::Kind::Variable;
      B.Renamed = Renamed;
      Ctx.bind(Orig, Id->Scopes, B);
      return makeId(Renamed, Id->Src);
    };

    Value ParamsIn = syntaxE(Params);
    if (ParamsIn.isSymbol()) {
      RestRenamed = bindParam(Params);
    } else {
      std::vector<Value> ParamIds;
      Value RestTail;
      spine(Params, ParamIds, RestTail);
      for (const Value &P : ParamIds)
        RenamedParams.push_back(bindParam(P));
      if (!RestTail.isNil()) {
        Value RestId =
            RestTail.isSyntax()
                ? RestTail
                : makeSyntax(Ctx.TheHeap, RestTail,
                             Params.isSyntax() ? Params.asSyntax()->Scopes
                                               : ScopeSet(),
                             Src);
        RestRenamed = bindParam(RestId);
      }
    }

    Value BodyStx = rewriteBody(Body, Stx);
    Value ExpandedBody = expand(BodyStx);

    Value ParamList =
        RenamedParams.empty() && !RestRenamed.isNil()
            ? RestRenamed // (lambda args ...) — bare rest identifier
            : listStx(RenamedParams, Src,
                      RestRenamed.isNil() ? Value::nil() : RestRenamed);
    return listStx({makeId(SymLambda, Src), ParamList, ExpandedBody}, Src);
  }

  Value expandDefine(const std::vector<Value> &Elems, const Value &Stx,
                     bool TopLevel) {
    if (!TopLevel)
      fail("define is only allowed at top level or at the start of a body",
           Stx);
    auto [Name, ValueExpr] = splitDefineFromElems(Elems, Stx);
    const SourceObject *Src = syntaxSource(Stx);
    Syntax *NameId = asIdentifier(Name);
    if (!NameId)
      fail("define target must be an identifier", Stx);
    // Top-level definitions live in the global namespace under their
    // original (interned) symbol.
    return listStx({makeId(SymDefine, Src),
                    makeId(NameId->identifierSymbol(), NameId->Src),
                    expand(ValueExpr)},
                   Src);
  }

  std::pair<Value, Value> splitDefineFromElems(const std::vector<Value> &,
                                               const Value &Stx) {
    return splitDefine(Stx);
  }

  //===------------------------------------------------------------------===//
  // let forms / cond
  //===------------------------------------------------------------------===//

  struct LetParts {
    std::vector<Value> Names;
    std::vector<Value> Inits;
  };

  LetParts parseBindings(const Value &BindingsStx, const Value &Stx) {
    LetParts P;
    std::vector<Value> Bindings;
    Value Tail;
    spine(BindingsStx, Bindings, Tail);
    if (!Tail.isNil())
      fail("dotted binding list", Stx);
    for (const Value &B : Bindings) {
      std::vector<Value> Parts;
      Value BTail;
      spine(B, Parts, BTail);
      if (Parts.size() != 2 || !BTail.isNil())
        fail("malformed binding", Stx);
      if (!asIdentifier(Parts[0]))
        fail("binding name must be an identifier", Stx);
      P.Names.push_back(Parts[0]);
      P.Inits.push_back(Parts[1]);
    }
    return P;
  }

  Value expandLet(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 3)
      fail("let expects bindings and a body", Stx);
    const SourceObject *Src = syntaxSource(Stx);

    // Named let: (let loop ([x e]...) body...)
    if (asIdentifier(Elems[1])) {
      if (Elems.size() < 4)
        fail("named let expects bindings and a body", Stx);
      Value Name = Elems[1];
      LetParts P = parseBindings(Elems[2], Stx);
      std::vector<Value> LambdaParts = {makeId(SymLambda, Src),
                                        listStx(P.Names, Src)};
      for (size_t I = 3; I < Elems.size(); ++I)
        LambdaParts.push_back(Elems[I]);
      Value Fn = listStx(LambdaParts, Src);
      Value Binding = listStx({Name, Fn}, Src);
      std::vector<Value> CallParts = {Name};
      CallParts.insert(CallParts.end(), P.Inits.begin(), P.Inits.end());
      Value Call = listStx(CallParts, Src);
      return expand(listStx({makeId(SymLetrecStar, Src),
                             listStx({Binding}, Src), Call},
                            Src));
    }

    LetParts P = parseBindings(Elems[1], Stx);
    std::vector<Value> LambdaParts = {makeId(SymLambda, Src),
                                      listStx(P.Names, Src)};
    for (size_t I = 2; I < Elems.size(); ++I)
      LambdaParts.push_back(Elems[I]);
    Value Fn = listStx(LambdaParts, Src);
    std::vector<Value> CallParts = {Fn};
    CallParts.insert(CallParts.end(), P.Inits.begin(), P.Inits.end());
    return expand(listStx(CallParts, Src));
  }

  Value expandLetStar(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 3)
      fail("let* expects bindings and a body", Stx);
    const SourceObject *Src = syntaxSource(Stx);
    LetParts P = parseBindings(Elems[1], Stx);
    std::vector<Value> Body(Elems.begin() + 2, Elems.end());
    if (P.Names.empty()) {
      std::vector<Value> LetParts2 = {makeId(SymLet, Src),
                                      listStx({}, Src)};
      LetParts2.insert(LetParts2.end(), Body.begin(), Body.end());
      return expand(listStx(LetParts2, Src));
    }
    // Fold right: (let ([n1 i1]) (let* (rest...) body...))
    Value Out = prependId(SymLet, {listStx({}, Src)}, Src);
    std::vector<Value> Inner = Body;
    for (size_t I = P.Names.size(); I > 0; --I) {
      Value Binding = listStx({P.Names[I - 1], P.Inits[I - 1]}, Src);
      std::vector<Value> LetForm = {makeId(SymLet, Src),
                                    listStx({Binding}, Src)};
      LetForm.insert(LetForm.end(), Inner.begin(), Inner.end());
      Out = listStx(LetForm, Src);
      Inner = {Out};
    }
    return expand(Out);
  }

  Value expandLetrec(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 3)
      fail("letrec expects bindings and a body", Stx);
    const SourceObject *Src = syntaxSource(Stx);
    LetParts P = parseBindings(Elems[1], Stx);

    // ((lambda (names...) (set! n i)... body...) (void)...)
    std::vector<Value> LambdaParts = {makeId(SymLambda, Src),
                                      listStx(P.Names, Src)};
    for (size_t I = 0; I < P.Names.size(); ++I)
      LambdaParts.push_back(
          listStx({makeId(SymSet, Src), P.Names[I], P.Inits[I]}, Src));
    for (size_t I = 2; I < Elems.size(); ++I)
      LambdaParts.push_back(Elems[I]);
    Value Fn = listStx(LambdaParts, Src);

    std::vector<Value> CallParts = {Fn};
    for (size_t I = 0; I < P.Names.size(); ++I)
      CallParts.push_back(listStx({makeId(SymVoid, Src)}, Src));
    return expand(listStx(CallParts, Src));
  }

  Value expandCond(const std::vector<Value> &Elems, const Value &Stx) {
    const SourceObject *Src = syntaxSource(Stx);
    if (Elems.size() == 1)
      return expand(listStx({makeId(SymVoid, Src)}, Src));

    // Build nested ifs from the last clause backwards.
    Value Rest = listStx({makeId(SymVoid, Src)}, Src);
    for (size_t I = Elems.size(); I > 1; --I) {
      const Value &ClauseStx = Elems[I - 1];
      std::vector<Value> Parts;
      Value Tail;
      spine(ClauseStx, Parts, Tail);
      if (Parts.empty() || !Tail.isNil())
        fail("malformed cond clause", ClauseStx);
      const SourceObject *CSrc = syntaxSource(ClauseStx);

      if (isAuxKeyword(Parts[0], SymElse)) {
        if (I != Elems.size())
          fail("else clause must be last", ClauseStx);
        if (Parts.size() < 2)
          fail("empty else clause", ClauseStx);
        std::vector<Value> Body(Parts.begin() + 1, Parts.end());
        Rest = Body.size() == 1 ? Body[0] : prependId(SymBegin, Body, CSrc);
        continue;
      }
      if (Parts.size() == 1) {
        // (test) — value of test if truthy.
        Value T = makeId(Ctx.Symbols.gensym("cond-tmp"), CSrc);
        Value Binding = listStx({T, Parts[0]}, CSrc);
        Value IfStx =
            listStx({makeId(SymIf, CSrc), T, T, Rest}, CSrc);
        Rest = listStx({makeId(SymLet, CSrc), listStx({Binding}, CSrc),
                        IfStx},
                       CSrc);
        continue;
      }
      if (Parts.size() == 3 && isAuxKeyword(Parts[1], SymArrow)) {
        Value T = makeId(Ctx.Symbols.gensym("cond-tmp"), CSrc);
        Value Binding = listStx({T, Parts[0]}, CSrc);
        Value Call = listStx({Parts[2], T}, CSrc);
        Value IfStx = listStx({makeId(SymIf, CSrc), T, Call, Rest}, CSrc);
        Rest = listStx({makeId(SymLet, CSrc), listStx({Binding}, CSrc),
                        IfStx},
                       CSrc);
        continue;
      }
      std::vector<Value> Body(Parts.begin() + 1, Parts.end());
      Value BodyStx =
          Body.size() == 1 ? Body[0] : prependId(SymBegin, Body, CSrc);
      Rest = listStx({makeId(SymIf, CSrc), Parts[0], BodyStx, Rest}, CSrc);
    }
    return expand(Rest);
  }

  //===------------------------------------------------------------------===//
  // quasiquote on data
  //===------------------------------------------------------------------===//

  /// Desugars `T with , and ,@ (one level) into cons/append/quote calls.
  Value quasiData(const Value &T, const SourceObject *Src) {
    Value In = syntaxE(T);
    if (In.isPair()) {
      // (unquote e)
      if (isAuxKeyword(In.asPair()->Car, SymUnquote)) {
        Value Rest = syntaxE(In.asPair()->Cdr);
        if (!Rest.isPair() || !syntaxE(Rest.asPair()->Cdr).isNil())
          fail("malformed unquote", T);
        return Rest.asPair()->Car;
      }
      // Element-wise: (append chunk...) where unquote-splicing elements
      // pass through and runs of ordinary elements become (cons ...).
      std::vector<Value> Elems;
      Value Tail;
      spine(T, Elems, Tail);

      // A dotted unquote `(a . ,e) reads as (a unquote e): the spine walk
      // flattens it, so recover the tail expression here.
      if (Elems.size() >= 2 &&
          isAuxKeyword(Elems[Elems.size() - 2], SymUnquote) &&
          Tail.isNil()) {
        Value TailE = Elems.back();
        Elems.pop_back();
        Elems.pop_back();
        Value Out = TailE;
        for (size_t I = Elems.size(); I > 0; --I)
          Out = listStx({makeId(SymCons, Src), quasiData(Elems[I - 1], Src),
                         Out},
                        Src);
        return Out;
      }

      Value TailExpr;
      if (Tail.isNil())
        TailExpr = listStx({makeId(SymQuote, Src),
                            makeSyntax(Ctx.TheHeap, Value::nil(), ScopeSet(),
                                       Src)},
                           Src);
      else
        TailExpr = quasiData(Tail, Src);

      Value Out = TailExpr;
      for (size_t I = Elems.size(); I > 0; --I) {
        Value E = Elems[I - 1];
        Value EIn = syntaxE(E);
        if (EIn.isPair() &&
            isAuxKeyword(EIn.asPair()->Car, SymUnquoteSplicing)) {
          Value Rest = syntaxE(EIn.asPair()->Cdr);
          if (!Rest.isPair() || !syntaxE(Rest.asPair()->Cdr).isNil())
            fail("malformed unquote-splicing", E);
          Out = listStx({makeId(SymAppend, Src), Rest.asPair()->Car, Out},
                        Src);
        } else {
          Out = listStx({makeId(SymCons, Src), quasiData(E, Src), Out}, Src);
        }
      }
      return Out;
    }
    if (In.isVector())
      fail("quasiquote vectors are not supported", T);
    return listStx({makeId(SymQuote, Src), T}, Src);
  }

  //===------------------------------------------------------------------===//
  // syntax-case / templates
  //===------------------------------------------------------------------===//

  /// Walks a pattern collecting variables (ids that are not listed
  /// literals, _, or ...), renaming them, and binding them as PatternVar.
  /// Returns the rewritten pattern.
  Value processPattern(const Value &Pat,
                       const std::unordered_set<Symbol *> &Literals,
                       int Depth,
                       std::unordered_map<Symbol *, int> &Seen) {
    Value In = syntaxE(Pat);
    switch (In.kind()) {
    case ValueKind::Symbol: {
      Symbol *S = In.asSymbol();
      if (S == SymUnderscore || S == SymEllipsis || Literals.count(S))
        return Pat;
      Syntax *Id = asIdentifier(Pat);
      if (!Id)
        fail("pattern variable lost its syntax", Pat);
      if (Seen.count(S))
        fail("duplicate pattern variable " + S->Name, Pat);
      Seen.emplace(S, Depth);
      Symbol *Renamed = Ctx.Symbols.gensym(S->Name);
      ExpBinding B;
      B.K = ExpBinding::Kind::PatternVar;
      B.Renamed = Renamed;
      B.EllipsisDepth = Depth;
      Ctx.bind(S, Id->Scopes, B);
      return makeId(Renamed, Id->Src);
    }
    case ValueKind::Pair: {
      std::vector<Value> Elems;
      Value Tail;
      spine(Pat, Elems, Tail);
      std::vector<Value> Out;
      for (size_t I = 0; I < Elems.size(); ++I) {
        bool Repeated = I + 1 < Elems.size() && isEllipsisId(Elems[I + 1]);
        Out.push_back(processPattern(Elems[I], Literals,
                                     Depth + (Repeated ? 1 : 0), Seen));
      }
      Value NewTail =
          Tail.isNil() ? Value::nil()
                       : processPattern(Tail, Literals, Depth, Seen);
      // Rebuild with original syntax identity.
      Value Spine = NewTail;
      for (size_t I = Out.size(); I > 0; --I)
        Spine = Ctx.TheHeap.cons(Out[I - 1], Spine);
      if (Pat.isSyntax())
        return makeSyntax(Ctx.TheHeap, Spine, Pat.asSyntax()->Scopes,
                          Pat.asSyntax()->Src);
      return Spine;
    }
    case ValueKind::Vector: {
      std::vector<Value> Out;
      for (const Value &E : In.asVector()->Elems)
        Out.push_back(processPattern(E, Literals, Depth, Seen));
      Value Vec = Ctx.TheHeap.vector(std::move(Out));
      if (Pat.isSyntax())
        return makeSyntax(Ctx.TheHeap, Vec, Pat.asSyntax()->Scopes,
                          Pat.asSyntax()->Src);
      return Vec;
    }
    default:
      return Pat;
    }
  }

  bool isEllipsisId(const Value &V) {
    Syntax *Id = asIdentifier(V);
    return Id && Id->identifierSymbol() == SymEllipsis;
  }

  /// Hmm: the improper-tail case above re-wraps a bare symbol; patterns
  /// with dotted tails keep working because processPattern on the wrapped
  /// id resolves scopes from the enclosing pattern node.
  Value expandSyntaxCase(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 3)
      fail("syntax-case expects a scrutinee and literals", Stx);
    const SourceObject *Src = syntaxSource(Stx);
    Value Scrut = expand(Elems[1]);

    std::unordered_set<Symbol *> Literals;
    {
      std::vector<Value> Lits;
      Value Tail;
      spine(Elems[2], Lits, Tail);
      if (!Tail.isNil())
        fail("dotted literals list", Stx);
      for (const Value &L : Lits) {
        Syntax *Id = asIdentifier(L);
        if (!Id)
          fail("literal is not an identifier", Stx);
        Literals.insert(Id->identifierSymbol());
      }
    }

    std::vector<Value> OutClauses = {makeId(SymSyntaxCaseStar, Src), Scrut};
    for (size_t I = 3; I < Elems.size(); ++I) {
      std::vector<Value> Parts;
      Value Tail;
      spine(Elems[I], Parts, Tail);
      if (!Tail.isNil() || (Parts.size() != 2 && Parts.size() != 3))
        fail("malformed syntax-case clause", Elems[I]);
      const SourceObject *CSrc = syntaxSource(Elems[I]);

      ScopeId SC = Ctx.freshScope();
      Value Pat = addScope(Parts[0], SC);
      Value Fender = Parts.size() == 3 ? addScope(Parts[1], SC) : Value::nil();
      Value Body = addScope(Parts.back(), SC);

      std::unordered_map<Symbol *, int> Seen;
      Value NewPat = processPattern(Pat, Literals, 0, Seen);

      Value NewFender = Parts.size() == 3 ? expand(Fender)
                                          : makeId(SymNoFender, CSrc);
      Value NewBody = expand(Body);
      OutClauses.push_back(listStx({NewPat, NewFender, NewBody}, CSrc));
    }
    return listStx(OutClauses, Src);
  }

  /// Rewrites template \p T: identifiers that resolve to pattern variables
  /// become their renamed symbols; in quasi mode, unsyntax forms become
  /// #%unsyntax markers around fully expanded expressions.
  Value substPatternVars(const Value &T, bool Quasi) {
    Value In = syntaxE(T);
    switch (In.kind()) {
    case ValueKind::Symbol: {
      Syntax *Id = asIdentifier(T);
      if (!Id)
        return T;
      ResolveResult R = resolve(Id);
      if (R.K == ResolveResult::Kind::Bound &&
          R.B->K == ExpBinding::Kind::PatternVar)
        return makeId(R.B->Renamed, Id->Src);
      return T;
    }
    case ValueKind::Pair: {
      if (Quasi) {
        // (unsyntax e) / (unsyntax-splicing e)
        if (isAuxKeyword(In.asPair()->Car, SymUnsyntax) ||
            isAuxKeyword(In.asPair()->Car, SymUnsyntaxSplicing)) {
          bool Splice = isAuxKeyword(In.asPair()->Car, SymUnsyntaxSplicing);
          Value Rest = syntaxE(In.asPair()->Cdr);
          if (!Rest.isPair() || !syntaxE(Rest.asPair()->Cdr).isNil())
            fail("malformed unsyntax", T);
          Value Marker = makeId(
              Splice ? SymUnsyntaxSplicingMark : SymUnsyntaxMark,
              syntaxSource(T));
          return listStx({Marker, expand(Rest.asPair()->Car)},
                         syntaxSource(T));
        }
      }
      std::vector<Value> Elems;
      Value Tail;
      spine(T, Elems, Tail);
      std::vector<Value> Out;
      for (const Value &E : Elems)
        Out.push_back(substPatternVars(E, Quasi));
      Value NewTail =
          Tail.isNil() ? Value::nil() : substPatternVars(Tail, Quasi);
      Value Spine = NewTail;
      for (size_t I = Out.size(); I > 0; --I)
        Spine = Ctx.TheHeap.cons(Out[I - 1], Spine);
      if (T.isSyntax())
        return makeSyntax(Ctx.TheHeap, Spine, T.asSyntax()->Scopes,
                          T.asSyntax()->Src);
      return Spine;
    }
    case ValueKind::Vector: {
      std::vector<Value> Out;
      for (const Value &E : In.asVector()->Elems)
        Out.push_back(substPatternVars(E, Quasi));
      Value Vec = Ctx.TheHeap.vector(std::move(Out));
      if (T.isSyntax())
        return makeSyntax(Ctx.TheHeap, Vec, T.asSyntax()->Scopes,
                          T.asSyntax()->Src);
      return Vec;
    }
    default:
      return T;
    }
  }

  /// Evaluates a transformer expression at phase 1 and binds \p NameId
  /// to the resulting macro.
  void bindMacro(Syntax *NameId, Value TransformerExpr, const Value &Stx) {
    Value Core = expand(TransformerExpr);
    auto Unit = compileCore(Ctx, Core);
    Value Transformer = evalExpr(Ctx, Unit->Root, nullptr);
    Ctx.adoptCode(std::move(Unit));
    if (!Transformer.isProcedure())
      fail("transformer is not a procedure", Stx);
    ExpBinding B;
    B.K = ExpBinding::Kind::Macro;
    B.Transformer = Transformer;
    Ctx.bind(NameId->identifierSymbol(), NameId->Scopes, B);
  }

  /// (let-syntax ([name transformer] ...) body ...): locally scoped
  /// macros. Implemented with letrec-syntax semantics (the transformer
  /// expressions see the new bindings' scope), which subsumes let-syntax
  /// for all paper use cases.
  Value expandLetSyntax(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 3)
      fail("let-syntax expects bindings and a body", Stx);
    const SourceObject *Src = syntaxSource(Stx);
    ScopeId S = Ctx.freshScope();

    std::vector<Value> Bindings;
    Value BTail;
    spine(Elems[1], Bindings, BTail);
    if (!BTail.isNil())
      fail("dotted let-syntax bindings", Stx);

    for (const Value &B : Bindings) {
      std::vector<Value> Parts;
      Value Tail;
      spine(B, Parts, Tail);
      if (Parts.size() != 2 || !Tail.isNil())
        fail("malformed let-syntax binding", B);
      Value Name = addScope(Parts[0], S);
      Syntax *NameId = asIdentifier(Name);
      if (!NameId)
        fail("let-syntax name must be an identifier", B);
      Value TransformerExpr = addScope(Parts[1], S);
      bindMacro(NameId, TransformerExpr, Stx);
    }

    std::vector<Value> Body;
    for (size_t I = 2; I < Elems.size(); ++I)
      Body.push_back(addScope(Elems[I], S));
    return expand(rewriteBody(Body, Stx.isSyntax()
                                        ? makeSyntax(Ctx.TheHeap,
                                                     syntaxE(Stx),
                                                     Stx.asSyntax()->Scopes,
                                                     Src)
                                        : Stx));
  }

  /// (syntax-rules (lit ...) [pattern template] ...) desugars to the
  /// equivalent procedural transformer:
  ///   (lambda (stx) (syntax-case stx (lit ...) [pattern #'template] ...))
  Value expandSyntaxRules(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 2)
      fail("syntax-rules expects a literals list", Stx);
    const SourceObject *Src = syntaxSource(Stx);

    // A fresh uninterned parameter name cannot collide with anything in
    // the user's templates.
    Value StxParam = makeId(Ctx.Symbols.gensym("stx"), Src);

    std::vector<Value> CaseParts = {
        makeId(Ctx.Symbols.intern("syntax-case"), Src), StxParam, Elems[1]};
    for (size_t I = 2; I < Elems.size(); ++I) {
      std::vector<Value> Rule;
      Value Tail;
      spine(Elems[I], Rule, Tail);
      if (Rule.size() != 2 || !Tail.isNil())
        fail("malformed syntax-rules rule", Elems[I]);
      const SourceObject *RSrc = syntaxSource(Elems[I]);
      Value Tpl = listStx({makeId(Ctx.Symbols.intern("syntax"), RSrc),
                           Rule[1]},
                          RSrc);
      CaseParts.push_back(listStx({Rule[0], Tpl}, RSrc));
    }
    Value Body = listStx(CaseParts, Src);
    Value Params = listStx({StxParam}, Src);
    return expand(listStx({makeId(SymLambda, Src), Params, Body}, Src));
  }

  /// (do ([var init step]...) (test result...) body...) — R5RS iteration.
  Value expandDo(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 3)
      fail("do expects bindings and a termination clause", Stx);
    const SourceObject *Src = syntaxSource(Stx);

    std::vector<Value> Bindings;
    Value BTail;
    spine(Elems[1], Bindings, BTail);
    if (!BTail.isNil())
      fail("dotted do bindings", Stx);

    std::vector<Value> Names, Inits, Steps;
    for (const Value &B : Bindings) {
      std::vector<Value> Parts;
      Value Tail;
      spine(B, Parts, Tail);
      if (!Tail.isNil() || Parts.size() < 2 || Parts.size() > 3 ||
          !asIdentifier(Parts[0]))
        fail("malformed do binding", B);
      Names.push_back(Parts[0]);
      Inits.push_back(Parts[1]);
      Steps.push_back(Parts.size() == 3 ? Parts[2] : Parts[0]);
    }

    std::vector<Value> TermParts;
    Value TTail;
    spine(Elems[2], TermParts, TTail);
    if (!TTail.isNil() || TermParts.empty())
      fail("malformed do termination clause", Stx);
    Value Test = TermParts[0];
    std::vector<Value> Results(TermParts.begin() + 1, TermParts.end());
    Value ResultStx = Results.empty()
                          ? listStx({makeId(SymVoid, Src)}, Src)
                          : (Results.size() == 1
                                 ? Results[0]
                                 : prependId(SymBegin, Results, Src));

    // (letrec* ([loop (lambda (names...)
    //                   (if test result (begin body... (loop steps...))))])
    //   (loop inits...))
    Value Loop = makeId(Ctx.Symbols.gensym("do-loop"), Src);
    std::vector<Value> Recur = {Loop};
    Recur.insert(Recur.end(), Steps.begin(), Steps.end());
    std::vector<Value> Iter(Elems.begin() + 3, Elems.end());
    Iter.push_back(listStx(Recur, Src));
    Value IterStx = prependId(SymBegin, Iter, Src);
    Value IfStx =
        listStx({makeId(SymIf, Src), Test, ResultStx, IterStx}, Src);
    std::vector<Value> LambdaParts = {makeId(SymLambda, Src),
                                      listStx(Names, Src), IfStx};
    Value Fn = listStx(LambdaParts, Src);
    Value Binding = listStx({Loop, Fn}, Src);
    std::vector<Value> CallParts = {Loop};
    CallParts.insert(CallParts.end(), Inits.begin(), Inits.end());
    return expand(listStx({makeId(SymLetrecStar, Src),
                           listStx({Binding}, Src),
                           listStx(CallParts, Src)},
                          Src));
  }

  Value expandWithSyntax(const std::vector<Value> &Elems, const Value &Stx) {
    if (Elems.size() < 3)
      fail("with-syntax expects bindings and a body", Stx);
    const SourceObject *Src = syntaxSource(Stx);
    std::vector<Value> Bindings;
    Value Tail;
    spine(Elems[1], Bindings, Tail);
    if (!Tail.isNil())
      fail("dotted with-syntax bindings", Stx);

    std::vector<Value> Pats, Exprs;
    for (const Value &B : Bindings) {
      std::vector<Value> Parts;
      Value BTail;
      spine(B, Parts, BTail);
      if (Parts.size() != 2 || !BTail.isNil())
        fail("malformed with-syntax binding", B);
      Pats.push_back(Parts[0]);
      Exprs.push_back(Parts[1]);
    }

    // (syntax-case (list e...) () [(pat...) body...])
    std::vector<Value> ListCall = {makeId(SymList, Src)};
    ListCall.insert(ListCall.end(), Exprs.begin(), Exprs.end());
    std::vector<Value> Body(Elems.begin() + 2, Elems.end());
    Value BodyStx = Body.size() == 1 ? Body[0] : prependId(SymBegin, Body,
                                                           Src);
    Value Clause = listStx({listStx(Pats, Src), BodyStx}, Src);
    return expand(listStx({makeId(Ctx.Symbols.intern("syntax-case"), Src),
                           listStx(ListCall, Src), listStx({}, Src), Clause},
                          Src));
  }

  //===------------------------------------------------------------------===//
  // Top level
  //===------------------------------------------------------------------===//

  std::vector<Value> expandTopLevel(Value Stx) {
    Value In = syntaxE(Stx);
    if (In.isPair()) {
      Syntax *HeadId = asIdentifier(In.asPair()->Car);
      if (HeadId && resolve(HeadId).K == ResolveResult::Kind::Unbound) {
        Symbol *S = HeadId->identifierSymbol();
        if (S == SymBegin) {
          std::vector<Value> Elems;
          Value Tail;
          spine(Stx, Elems, Tail);
          if (!Tail.isNil())
            fail("dotted begin", Stx);
          std::vector<Value> Out;
          for (size_t I = 1; I < Elems.size(); ++I) {
            auto Sub = expandTopLevel(Elems[I]);
            Out.insert(Out.end(), Sub.begin(), Sub.end());
          }
          return Out;
        }
        if (S == SymDefine) {
          std::vector<Value> Elems;
          Value Tail;
          spine(Stx, Elems, Tail);
          return {expandDefine(Elems, Stx, /*TopLevel=*/true)};
        }
        if (S == Ctx.Symbols.intern("define-syntax"))
          return expandDefineSyntax(Stx);
      }
      // A macro use at top level may expand into define/begin forms:
      // expand one step and retry.
      if (HeadId) {
        ResolveResult R = resolve(HeadId);
        if (R.K == ResolveResult::Kind::Bound &&
            R.B->K == ExpBinding::Kind::Macro) {
          Value Once = invokeMacro(Stx, R.B->Transformer);
          return expandTopLevel(Once);
        }
      }
    }
    return {expand(Stx)};
  }

  std::vector<Value> expandDefineSyntax(const Value &Stx) {
    std::vector<Value> Elems;
    Value Tail;
    spine(Stx, Elems, Tail);
    if (!Tail.isNil() || Elems.size() < 3)
      fail("malformed define-syntax", Stx);

    Value Name, TransformerExpr;
    Value TargetIn = syntaxE(Elems[1]);
    if (TargetIn.isSymbol()) {
      if (Elems.size() != 3)
        fail("define-syntax expects one transformer", Stx);
      Name = Elems[1];
      TransformerExpr = Elems[2];
    } else if (TargetIn.isPair()) {
      // (define-syntax (name stx) body...)
      const SourceObject *Src = syntaxSource(Stx);
      Name = TargetIn.asPair()->Car;
      Value Params = makeSyntax(Ctx.TheHeap, TargetIn.asPair()->Cdr,
                                ScopeSet(), Src);
      std::vector<Value> LambdaParts = {makeId(SymLambda, Src), Params};
      for (size_t I = 2; I < Elems.size(); ++I)
        LambdaParts.push_back(Elems[I]);
      TransformerExpr = listStx(LambdaParts, Src);
    } else {
      fail("bad define-syntax target", Stx);
    }

    Syntax *NameId = asIdentifier(Name);
    if (!NameId)
      fail("define-syntax name must be an identifier", Stx);

    // Evaluate the transformer now (phase 1 shares the global env).
    bindMacro(NameId, TransformerExpr, Stx);
    return {};
  }
};

Expander::Expander(Context &Ctx) : P(std::make_unique<Impl>(Ctx)) {}
Expander::~Expander() = default;

std::vector<Value> Expander::expandTopLevel(Value Stx) {
  // Expansion-time allocation (hygiene re-wrapping, synthesized forms)
  // is attributed to the expander site; transformer bodies that allocate
  // through primitives or templates override it with their own sites.
  AllocSiteScope Site(P->Ctx.TheHeap, AllocSite::Expander);
  return P->expandTopLevel(Stx);
}

Value Expander::expandExpression(Value Stx) {
  AllocSiteScope Site(P->Ctx.TheHeap, AllocSite::Expander);
  return P->expand(Stx);
}
