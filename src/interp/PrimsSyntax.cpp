//===- interp/PrimsSyntax.cpp - Syntax object operations ------------------===//

#include "interp/Prims.h"
#include "interp/PrimsCommon.h"
#include "profile/SourceObject.h"
#include "syntax/Syntax.h"

using namespace pgmp;
using namespace pgmp::prims;

namespace {

Value primSyntaxP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isSyntax());
}

Value primIdentifierP(Context &, Value *A, size_t) {
  return Value::boolean(asIdentifier(A[0]) != nullptr);
}

Value primSyntaxToDatum(Context &Ctx, Value *A, size_t) {
  return syntaxToDatum(Ctx.TheHeap, A[0]);
}

Value primDatumToSyntax(Context &Ctx, Value *A, size_t) {
  Syntax *CtxId = wantSyntax("datum->syntax", A[0]);
  return datumToSyntax(Ctx.TheHeap, *CtxId, A[1]);
}

Value primSyntaxE(Context &, Value *A, size_t) {
  return wantSyntax("syntax-e", A[0])->Inner;
}

Value primFreeIdentifierEq(Context &Ctx, Value *A, size_t) {
  Syntax *X = asIdentifier(A[0]);
  Syntax *Y = asIdentifier(A[1]);
  if (!X || !Y)
    wrongType("free-identifier=?", "identifiers", X ? A[1] : A[0]);
  return Value::boolean(freeIdentifierEqual(Ctx.Bindings, X, Y));
}

Value primBoundIdentifierEq(Context &, Value *A, size_t) {
  Syntax *X = asIdentifier(A[0]);
  Syntax *Y = asIdentifier(A[1]);
  if (!X || !Y)
    wrongType("bound-identifier=?", "identifiers", X ? A[1] : A[0]);
  return Value::boolean(boundIdentifierEqual(X, Y));
}

Value primGenerateTemporaries(Context &Ctx, Value *A, size_t) {
  std::vector<Value> Out;
  for (const Value &E : listToVector(syntaxE(A[0]).isPair()
                                         ? syntaxE(A[0])
                                         : A[0])) {
    (void)E;
    Symbol *S = Ctx.Symbols.gensym("t");
    Out.push_back(makeSyntax(Ctx.TheHeap,
                             Value::object(ValueKind::Symbol, S), ScopeSet(),
                             nullptr));
  }
  return Ctx.TheHeap.list(Out, AllocSite::PrimList);
}

/// (syntax->list e) -> proper list of element syntaxes, or #f when the
/// syntax object is not a proper list.
Value primSyntaxToList(Context &Ctx, Value *A, size_t) {
  Value Cur = syntaxE(A[0]);
  std::vector<Value> Out;
  while (true) {
    if (Cur.isPair()) {
      Out.push_back(Cur.asPair()->Car);
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
  if (!Cur.isNil())
    return Value::boolean(false);
  return Ctx.TheHeap.list(Out, AllocSite::PrimList);
}

/// (syntax-source e) -> "file:line:col" string, or #f when absent.
Value primSyntaxSource(Context &Ctx, Value *A, size_t) {
  const SourceObject *Src = syntaxSource(A[0]);
  if (!Src)
    return Value::boolean(false);
  return Ctx.TheHeap.string(Src->describe(), AllocSite::PrimString);
}

/// (syntax-source-file e) -> file name string, or #f.
Value primSyntaxSourceFile(Context &Ctx, Value *A, size_t) {
  const SourceObject *Src = syntaxSource(A[0]);
  if (!Src)
    return Value::boolean(false);
  return Ctx.TheHeap.string(std::string(Src->File), AllocSite::PrimString);
}

} // namespace

void pgmp::installSyntaxPrims(Context &Ctx) {
  Ctx.definePrimitive("syntax?", 1, 1, primSyntaxP);
  Ctx.definePrimitive("identifier?", 1, 1, primIdentifierP);
  Ctx.definePrimitive("syntax->datum", 1, 1, primSyntaxToDatum);
  Ctx.definePrimitive("datum->syntax", 2, 2, primDatumToSyntax);
  Ctx.definePrimitive("syntax-e", 1, 1, primSyntaxE);
  Ctx.definePrimitive("syntax->list", 1, 1, primSyntaxToList);
  Ctx.definePrimitive("free-identifier=?", 2, 2, primFreeIdentifierEq);
  Ctx.definePrimitive("bound-identifier=?", 2, 2, primBoundIdentifierEq);
  Ctx.definePrimitive("generate-temporaries", 1, 1, primGenerateTemporaries);
  Ctx.definePrimitive("syntax-source", 1, 1, primSyntaxSource);
  Ctx.definePrimitive("syntax-source-file", 1, 1, primSyntaxSourceFile);
}
