//===- interp/PrimsList.cpp - Lists, vectors, higher-order ops ------------===//

#include "interp/Eval.h"
#include "interp/Prims.h"
#include "interp/PrimsCommon.h"

#include <algorithm>

using namespace pgmp;
using namespace pgmp::prims;

namespace {

Value primList(Context &Ctx, Value *A, size_t N) {
  Value Out = Value::nil();
  for (size_t I = N; I > 0; --I)
    Out = Ctx.TheHeap.cons(A[I - 1], Out, AllocSite::PrimList);
  return Out;
}

Value primListP(Context &, Value *A, size_t) {
  return Value::boolean(listLength(A[0]) >= 0);
}

Value primLength(Context &, Value *A, size_t) {
  int64_t N = listLength(A[0]);
  if (N < 0)
    raiseError("length: not a proper list");
  return Value::fixnum(N);
}

Value primAppend(Context &Ctx, Value *A, size_t N) {
  if (N == 0)
    return Value::nil();
  Value Out = A[N - 1];
  for (size_t I = N - 1; I > 0; --I) {
    std::vector<Value> Elems = listToVector(A[I - 1]);
    for (size_t J = Elems.size(); J > 0; --J)
      Out = Ctx.TheHeap.cons(Elems[J - 1], Out, AllocSite::PrimList);
  }
  return Out;
}

Value primReverse(Context &Ctx, Value *A, size_t) {
  Value Out = Value::nil();
  Value Cur = A[0];
  while (Cur.isPair()) {
    Out = Ctx.TheHeap.cons(Cur.asPair()->Car, Out, AllocSite::PrimList);
    Cur = Cur.asPair()->Cdr;
  }
  if (!Cur.isNil())
    raiseError("reverse: not a proper list");
  return Out;
}

Value primListRef(Context &, Value *A, size_t) {
  int64_t K = wantFixnum("list-ref", A[1]);
  Value Cur = A[0];
  while (K > 0 && Cur.isPair()) {
    Cur = Cur.asPair()->Cdr;
    --K;
  }
  if (!Cur.isPair())
    raiseError("list-ref: index out of range");
  return Cur.asPair()->Car;
}

Value primListTail(Context &, Value *A, size_t) {
  int64_t K = wantFixnum("list-tail", A[1]);
  Value Cur = A[0];
  while (K > 0) {
    if (!Cur.isPair())
      raiseError("list-tail: index out of range");
    Cur = Cur.asPair()->Cdr;
    --K;
  }
  return Cur;
}

template <bool (*Same)(const Value &, const Value &)>
Value memGeneric(const char *Name, Value *A) {
  Value Cur = A[1];
  while (Cur.isPair()) {
    if (Same(Cur.asPair()->Car, A[0]))
      return Cur;
    Cur = Cur.asPair()->Cdr;
  }
  if (!Cur.isNil())
    raiseError(std::string(Name) + ": not a proper list");
  return Value::boolean(false);
}

Value primMemq(Context &, Value *A, size_t) {
  return memGeneric<eqValues>("memq", A);
}
Value primMemv(Context &, Value *A, size_t) {
  return memGeneric<eqvValues>("memv", A);
}
Value primMember(Context &, Value *A, size_t) {
  return memGeneric<equalValues>("member", A);
}

template <bool (*Same)(const Value &, const Value &)>
Value assGeneric(const char *Name, Value *A) {
  Value Cur = A[1];
  while (Cur.isPair()) {
    Value Entry = Cur.asPair()->Car;
    if (Entry.isPair() && Same(Entry.asPair()->Car, A[0]))
      return Entry;
    Cur = Cur.asPair()->Cdr;
  }
  if (!Cur.isNil())
    raiseError(std::string(Name) + ": not a proper list");
  return Value::boolean(false);
}

Value primAssq(Context &, Value *A, size_t) {
  return assGeneric<eqValues>("assq", A);
}
Value primAssv(Context &, Value *A, size_t) {
  return assGeneric<eqvValues>("assv", A);
}
Value primAssoc(Context &, Value *A, size_t) {
  return assGeneric<equalValues>("assoc", A);
}

Value primMap(Context &Ctx, Value *A, size_t N) {
  Value Fn = wantProcedure("map", A[0]);
  std::vector<std::vector<Value>> Lists;
  size_t Len = SIZE_MAX;
  for (size_t I = 1; I < N; ++I) {
    Lists.push_back(listToVector(A[I]));
    Len = std::min(Len, Lists.back().size());
  }
  std::vector<Value> Out;
  std::vector<Value> Args(N - 1);
  for (size_t I = 0; I < Len; ++I) {
    for (size_t L = 0; L < Lists.size(); ++L)
      Args[L] = Lists[L][I];
    Out.push_back(applyProcedure(Ctx, Fn, Args.data(), Args.size()));
  }
  return Ctx.TheHeap.list(Out, AllocSite::PrimList);
}

Value primForEach(Context &Ctx, Value *A, size_t N) {
  Value Fn = wantProcedure("for-each", A[0]);
  std::vector<std::vector<Value>> Lists;
  size_t Len = SIZE_MAX;
  for (size_t I = 1; I < N; ++I) {
    Lists.push_back(listToVector(A[I]));
    Len = std::min(Len, Lists.back().size());
  }
  std::vector<Value> Args(N - 1);
  for (size_t I = 0; I < Len; ++I) {
    for (size_t L = 0; L < Lists.size(); ++L)
      Args[L] = Lists[L][I];
    applyProcedure(Ctx, Fn, Args.data(), Args.size());
  }
  return Value::undefined();
}

Value primFilter(Context &Ctx, Value *A, size_t) {
  Value Fn = wantProcedure("filter", A[0]);
  std::vector<Value> Out;
  for (Value E : listToVector(A[1])) {
    Value Args[1] = {E};
    if (applyProcedure(Ctx, Fn, Args, 1).isTruthy())
      Out.push_back(E);
  }
  return Ctx.TheHeap.list(Out, AllocSite::PrimList);
}

Value primFoldLeft(Context &Ctx, Value *A, size_t) {
  Value Fn = wantProcedure("fold-left", A[0]);
  Value Acc = A[1];
  for (Value E : listToVector(A[2])) {
    Value Args[2] = {Acc, E};
    Acc = applyProcedure(Ctx, Fn, Args, 2);
  }
  return Acc;
}

Value primFoldRight(Context &Ctx, Value *A, size_t) {
  Value Fn = wantProcedure("fold-right", A[0]);
  Value Acc = A[1];
  std::vector<Value> Elems = listToVector(A[2]);
  for (size_t I = Elems.size(); I > 0; --I) {
    Value Args[2] = {Elems[I - 1], Acc};
    Acc = applyProcedure(Ctx, Fn, Args, 2);
  }
  return Acc;
}

Value primIota(Context &Ctx, Value *A, size_t N) {
  int64_t Count = wantFixnum("iota", A[0]);
  int64_t Start = N >= 2 ? wantFixnum("iota", A[1]) : 0;
  int64_t Step = N >= 3 ? wantFixnum("iota", A[2]) : 1;
  std::vector<Value> Out;
  Out.reserve(static_cast<size_t>(Count > 0 ? Count : 0));
  for (int64_t I = 0; I < Count; ++I)
    Out.push_back(Value::fixnum(Start + I * Step));
  return Ctx.TheHeap.list(Out, AllocSite::PrimList);
}

/// Stable sort with a caller-supplied less? procedure. Stability matters:
/// exclusive-cond must keep the original order of equal-weight clauses so
/// expansion is deterministic (paper Section 6.1).
Value sortImpl(Context &Ctx, Value Less, Value List, const char *Name) {
  wantProcedure(Name, Less);
  std::vector<Value> Elems = listToVector(List);
  std::stable_sort(Elems.begin(), Elems.end(),
                   [&](const Value &X, const Value &Y) {
                     Value Args[2] = {X, Y};
                     return applyProcedure(Ctx, Less, Args, 2).isTruthy();
                   });
  return Ctx.TheHeap.list(Elems, AllocSite::PrimList);
}

Value primSort(Context &Ctx, Value *A, size_t) {
  // Racket argument order: (sort lst less?)
  return sortImpl(Ctx, A[1], A[0], "sort");
}
Value primListSort(Context &Ctx, Value *A, size_t) {
  // Chez argument order: (list-sort less? lst)
  return sortImpl(Ctx, A[0], A[1], "list-sort");
}

/// Gathers the per-list argument vectors shared by andmap/ormap; the
/// iteration length is the shortest list.
static size_t gatherLists(const char *Name, Value *A, size_t N,
                          std::vector<std::vector<Value>> &Lists) {
  (void)Name;
  size_t Len = SIZE_MAX;
  for (size_t I = 1; I < N; ++I) {
    Lists.push_back(listToVector(A[I]));
    Len = std::min(Len, Lists.back().size());
  }
  return Len == SIZE_MAX ? 0 : Len;
}

Value primAndmap(Context &Ctx, Value *A, size_t N) {
  Value Fn = wantProcedure("andmap", A[0]);
  std::vector<std::vector<Value>> Lists;
  size_t Len = gatherLists("andmap", A, N, Lists);
  Value Last = Value::boolean(true);
  std::vector<Value> Args(Lists.size());
  for (size_t I = 0; I < Len; ++I) {
    for (size_t L = 0; L < Lists.size(); ++L)
      Args[L] = Lists[L][I];
    Last = applyProcedure(Ctx, Fn, Args.data(), Args.size());
    if (!Last.isTruthy())
      return Value::boolean(false);
  }
  return Last;
}

Value primOrmap(Context &Ctx, Value *A, size_t N) {
  Value Fn = wantProcedure("ormap", A[0]);
  std::vector<std::vector<Value>> Lists;
  size_t Len = gatherLists("ormap", A, N, Lists);
  std::vector<Value> Args(Lists.size());
  for (size_t I = 0; I < Len; ++I) {
    for (size_t L = 0; L < Lists.size(); ++L)
      Args[L] = Lists[L][I];
    Value R = applyProcedure(Ctx, Fn, Args.data(), Args.size());
    if (R.isTruthy())
      return R;
  }
  return Value::boolean(false);
}

Value primListCopy(Context &Ctx, Value *A, size_t) {
  return Ctx.TheHeap.list(listToVector(A[0]), AllocSite::PrimList);
}

//===----------------------------------------------------------------------===//
// Vectors
//===----------------------------------------------------------------------===//

Value primVector(Context &Ctx, Value *A, size_t N) {
  return Ctx.TheHeap.vector(std::vector<Value>(A, A + N),
                            AllocSite::PrimVector);
}

Value primMakeVector(Context &Ctx, Value *A, size_t N) {
  int64_t Len = wantFixnum("make-vector", A[0]);
  if (Len < 0)
    raiseError("make-vector: negative length");
  Value Fill = N == 2 ? A[1] : Value::fixnum(0);
  return Ctx.TheHeap.vector(
      std::vector<Value>(static_cast<size_t>(Len), Fill));
}

Value primVectorP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isVector());
}

Value primVectorLength(Context &, Value *A, size_t) {
  return Value::fixnum(
      static_cast<int64_t>(wantVector("vector-length", A[0])->Elems.size()));
}

Value primVectorRef(Context &, Value *A, size_t) {
  VectorObj *V = wantVector("vector-ref", A[0]);
  int64_t I = wantFixnum("vector-ref", A[1]);
  if (I < 0 || static_cast<size_t>(I) >= V->Elems.size())
    raiseError("vector-ref: index " + std::to_string(I) + " out of range");
  return V->Elems[static_cast<size_t>(I)];
}

Value primVectorSet(Context &Ctx, Value *A, size_t) {
  VectorObj *V = wantVector("vector-set!", A[0]);
  int64_t I = wantFixnum("vector-set!", A[1]);
  if (I < 0 || static_cast<size_t>(I) >= V->Elems.size())
    raiseError("vector-set!: index " + std::to_string(I) + " out of range");
  Ctx.TheHeap.noteWrite(V);
  V->Elems[static_cast<size_t>(I)] = A[2];
  return Value::undefined();
}

Value primVectorToList(Context &Ctx, Value *A, size_t) {
  return Ctx.TheHeap.list(wantVector("vector->list", A[0])->Elems,
                          AllocSite::PrimList);
}

Value primListToVector(Context &Ctx, Value *A, size_t) {
  return Ctx.TheHeap.vector(listToVector(A[0]), AllocSite::PrimVector);
}

Value primVectorFill(Context &Ctx, Value *A, size_t) {
  VectorObj *V = wantVector("vector-fill!", A[0]);
  Ctx.TheHeap.noteWrite(V);
  std::fill(V->Elems.begin(), V->Elems.end(), A[1]);
  return Value::undefined();
}

Value primVectorMap(Context &Ctx, Value *A, size_t) {
  Value Fn = wantProcedure("vector-map", A[0]);
  VectorObj *V = wantVector("vector-map", A[1]);
  std::vector<Value> Out;
  Out.reserve(V->Elems.size());
  for (const Value &E : V->Elems) {
    Value Args[1] = {E};
    Out.push_back(applyProcedure(Ctx, Fn, Args, 1));
  }
  return Ctx.TheHeap.vector(std::move(Out), AllocSite::PrimVector);
}

Value primVectorCopy(Context &Ctx, Value *A, size_t) {
  return Ctx.TheHeap.vector(wantVector("vector-copy", A[0])->Elems,
                            AllocSite::PrimVector);
}

} // namespace

void pgmp::installListPrims(Context &Ctx) {
  Ctx.definePrimitive("list", 0, -1, primList);
  Ctx.definePrimitive("list?", 1, 1, primListP);
  Ctx.definePrimitive("length", 1, 1, primLength);
  Ctx.definePrimitive("append", 0, -1, primAppend);
  Ctx.definePrimitive("reverse", 1, 1, primReverse);
  Ctx.definePrimitive("list-ref", 2, 2, primListRef);
  Ctx.definePrimitive("list-tail", 2, 2, primListTail);
  Ctx.definePrimitive("memq", 2, 2, primMemq);
  Ctx.definePrimitive("memv", 2, 2, primMemv);
  Ctx.definePrimitive("member", 2, 2, primMember);
  Ctx.definePrimitive("assq", 2, 2, primAssq);
  Ctx.definePrimitive("assv", 2, 2, primAssv);
  Ctx.definePrimitive("assoc", 2, 2, primAssoc);
  Ctx.definePrimitive("map", 2, -1, primMap);
  Ctx.definePrimitive("for-each", 2, -1, primForEach);
  Ctx.definePrimitive("filter", 2, 2, primFilter);
  Ctx.definePrimitive("fold-left", 3, 3, primFoldLeft);
  Ctx.definePrimitive("fold-right", 3, 3, primFoldRight);
  Ctx.definePrimitive("iota", 1, 3, primIota);
  Ctx.definePrimitive("sort", 2, 2, primSort);
  Ctx.definePrimitive("list-sort", 2, 2, primListSort);
  Ctx.definePrimitive("andmap", 2, -1, primAndmap);
  Ctx.definePrimitive("ormap", 2, -1, primOrmap);
  Ctx.definePrimitive("for-all", 2, -1, primAndmap);
  Ctx.definePrimitive("exists", 2, -1, primOrmap);
  Ctx.definePrimitive("list-copy", 1, 1, primListCopy);

  Ctx.definePrimitive("vector", 0, -1, primVector);
  Ctx.definePrimitive("make-vector", 1, 2, primMakeVector);
  Ctx.definePrimitive("vector?", 1, 1, primVectorP);
  Ctx.definePrimitive("vector-length", 1, 1, primVectorLength);
  Ctx.definePrimitive("vector-ref", 2, 2, primVectorRef);
  Ctx.definePrimitive("vector-set!", 3, 3, primVectorSet);
  Ctx.definePrimitive("vector->list", 1, 1, primVectorToList);
  Ctx.definePrimitive("list->vector", 1, 1, primListToVector);
  Ctx.definePrimitive("vector-fill!", 2, 2, primVectorFill);
  Ctx.definePrimitive("vector-map", 2, 2, primVectorMap);
  Ctx.definePrimitive("vector-copy", 1, 1, primVectorCopy);
}
