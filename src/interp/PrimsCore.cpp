//===- interp/PrimsCore.cpp - Pairs, predicates, I/O ----------------------===//

#include "interp/Eval.h"
#include "interp/Prims.h"
#include "interp/PrimsCommon.h"

using namespace pgmp;
using namespace pgmp::prims;

namespace {

Value primCons(Context &Ctx, Value *A, size_t) {
  return Ctx.TheHeap.cons(A[0], A[1], AllocSite::PrimList);
}
Value primCar(Context &, Value *A, size_t) {
  return wantPair("car", A[0])->Car;
}
Value primCdr(Context &, Value *A, size_t) {
  return wantPair("cdr", A[0])->Cdr;
}
Value primSetCar(Context &Ctx, Value *A, size_t) {
  Pair *P = wantPair("set-car!", A[0]);
  Ctx.TheHeap.noteWrite(P);
  P->Car = A[1];
  return Value::undefined();
}
Value primSetCdr(Context &Ctx, Value *A, size_t) {
  Pair *P = wantPair("set-cdr!", A[0]);
  Ctx.TheHeap.noteWrite(P);
  P->Cdr = A[1];
  return Value::undefined();
}
Value primCaar(Context &, Value *A, size_t) {
  return wantPair("caar", wantPair("caar", A[0])->Car)->Car;
}
Value primCadr(Context &, Value *A, size_t) {
  return wantPair("cadr", wantPair("cadr", A[0])->Cdr)->Car;
}
Value primCdar(Context &, Value *A, size_t) {
  return wantPair("cdar", wantPair("cdar", A[0])->Car)->Cdr;
}
Value primCddr(Context &, Value *A, size_t) {
  return wantPair("cddr", wantPair("cddr", A[0])->Cdr)->Cdr;
}
Value primCaddr(Context &, Value *A, size_t) {
  return wantPair("caddr",
                  wantPair("caddr", wantPair("caddr", A[0])->Cdr)->Cdr)
      ->Car;
}

Value primPairP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isPair());
}
Value primNullP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isNil());
}
Value primEqP(Context &, Value *A, size_t) {
  return Value::boolean(eqValues(A[0], A[1]));
}
Value primEqvP(Context &, Value *A, size_t) {
  return Value::boolean(eqvValues(A[0], A[1]));
}
Value primEqualP(Context &, Value *A, size_t) {
  return Value::boolean(equalValues(A[0], A[1]));
}
Value primNot(Context &, Value *A, size_t) {
  return Value::boolean(!A[0].isTruthy());
}
Value primBooleanP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isBool());
}
Value primProcedureP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isProcedure());
}
Value primSymbolP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isSymbol());
}
Value primVoidP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isVoid());
}
Value primEofP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isEof());
}
Value primEofObject(Context &, Value *, size_t) { return Value::eof(); }

Value primSymbolToString(Context &Ctx, Value *A, size_t) {
  return Ctx.TheHeap.string(wantSymbol("symbol->string", A[0])->Name,
                            AllocSite::PrimString);
}
Value primStringToSymbol(Context &Ctx, Value *A, size_t) {
  return Ctx.Symbols.internValue(wantString("string->symbol", A[0])->Text);
}
Value primGensym(Context &Ctx, Value *A, size_t N) {
  std::string Prefix = "g";
  if (N == 1) {
    if (A[0].isString())
      Prefix = A[0].asString()->Text;
    else if (A[0].isSymbol())
      Prefix = A[0].asSymbol()->Name;
    else
      wrongType("gensym", "a string or symbol prefix", A[0]);
  }
  return Value::object(ValueKind::Symbol, Ctx.Symbols.gensym(Prefix));
}

Value primVoid(Context &, Value *, size_t) { return Value::undefined(); }

Value primDisplay(Context &Ctx, Value *A, size_t) {
  Ctx.writeOutput(displayToString(A[0]));
  return Value::undefined();
}
Value primWrite(Context &Ctx, Value *A, size_t) {
  Ctx.writeOutput(writeToString(A[0]));
  return Value::undefined();
}
Value primNewline(Context &Ctx, Value *, size_t) {
  Ctx.writeOutput("\n");
  return Value::undefined();
}

Value primError(Context &, Value *A, size_t N) {
  std::string Msg;
  for (size_t I = 0; I < N; ++I) {
    if (I)
      Msg += " ";
    Msg += A[I].isString() ? A[I].asString()->Text : writeToString(A[I]);
  }
  raiseError(Msg);
}

Value primApply(Context &Ctx, Value *A, size_t N) {
  // (apply f a b ... rest-list)
  Value Fn = wantProcedure("apply", A[0]);
  std::vector<Value> Args;
  for (size_t I = 1; I + 1 < N; ++I)
    Args.push_back(A[I]);
  Value Rest = A[N - 1];
  while (Rest.isPair()) {
    Args.push_back(Rest.asPair()->Car);
    Rest = Rest.asPair()->Cdr;
  }
  if (!Rest.isNil())
    raiseError("apply: last argument is not a proper list");
  return applyProcedure(Ctx, Fn, Args.data(), Args.size());
}

Value primBox(Context &Ctx, Value *A, size_t) { return Ctx.TheHeap.box(A[0], AllocSite::PrimBox); }
Value primUnbox(Context &, Value *A, size_t) {
  if (!A[0].isBox())
    wrongType("unbox", "a box", A[0]);
  return A[0].asBox()->Boxed;
}
Value primSetBox(Context &Ctx, Value *A, size_t) {
  if (!A[0].isBox())
    wrongType("set-box!", "a box", A[0]);
  Ctx.TheHeap.noteWrite(A[0].asBox());
  A[0].asBox()->Boxed = A[1];
  return Value::undefined();
}
Value primBoxP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isBox());
}

} // namespace

void pgmp::installCorePrims(Context &Ctx) {
  Ctx.definePrimitive("cons", 2, 2, primCons);
  Ctx.definePrimitive("car", 1, 1, primCar);
  Ctx.definePrimitive("cdr", 1, 1, primCdr);
  Ctx.definePrimitive("set-car!", 2, 2, primSetCar);
  Ctx.definePrimitive("set-cdr!", 2, 2, primSetCdr);
  Ctx.definePrimitive("caar", 1, 1, primCaar);
  Ctx.definePrimitive("cadr", 1, 1, primCadr);
  Ctx.definePrimitive("cdar", 1, 1, primCdar);
  Ctx.definePrimitive("cddr", 1, 1, primCddr);
  Ctx.definePrimitive("caddr", 1, 1, primCaddr);
  Ctx.definePrimitive("pair?", 1, 1, primPairP);
  Ctx.definePrimitive("null?", 1, 1, primNullP);
  Ctx.definePrimitive("eq?", 2, 2, primEqP);
  Ctx.definePrimitive("eqv?", 2, 2, primEqvP);
  Ctx.definePrimitive("equal?", 2, 2, primEqualP);
  Ctx.definePrimitive("not", 1, 1, primNot);
  Ctx.definePrimitive("boolean?", 1, 1, primBooleanP);
  Ctx.definePrimitive("procedure?", 1, 1, primProcedureP);
  Ctx.definePrimitive("symbol?", 1, 1, primSymbolP);
  Ctx.definePrimitive("void?", 1, 1, primVoidP);
  Ctx.definePrimitive("eof-object?", 1, 1, primEofP);
  Ctx.definePrimitive("eof-object", 0, 0, primEofObject);
  Ctx.definePrimitive("symbol->string", 1, 1, primSymbolToString);
  Ctx.definePrimitive("string->symbol", 1, 1, primStringToSymbol);
  Ctx.definePrimitive("gensym", 0, 1, primGensym);
  Ctx.definePrimitive("void", 0, 0, primVoid);
  Ctx.definePrimitive("display", 1, 1, primDisplay);
  Ctx.definePrimitive("write", 1, 1, primWrite);
  Ctx.definePrimitive("newline", 0, 0, primNewline);
  Ctx.definePrimitive("error", 1, -1, primError);
  Ctx.definePrimitive("apply", 2, -1, primApply);
  Ctx.definePrimitive("box", 1, 1, primBox);
  Ctx.definePrimitive("unbox", 1, 1, primUnbox);
  Ctx.definePrimitive("set-box!", 2, 2, primSetBox);
  Ctx.definePrimitive("box?", 1, 1, primBoxP);
}
