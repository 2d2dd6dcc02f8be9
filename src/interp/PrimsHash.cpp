//===- interp/PrimsHash.cpp - Hashtables ----------------------------------===//

#include "interp/Eval.h"
#include "interp/Prims.h"
#include "interp/PrimsCommon.h"

using namespace pgmp;
using namespace pgmp::prims;

namespace {

Value primMakeEqHashtable(Context &Ctx, Value *, size_t) {
  return Ctx.TheHeap.hashtable(HashKind::Eq, AllocSite::PrimHash);
}
Value primMakeEqvHashtable(Context &Ctx, Value *, size_t) {
  return Ctx.TheHeap.hashtable(HashKind::Eqv, AllocSite::PrimHash);
}
Value primMakeEqualHashtable(Context &Ctx, Value *, size_t) {
  return Ctx.TheHeap.hashtable(HashKind::Equal, AllocSite::PrimHash);
}
Value primHashtableP(Context &, Value *A, size_t) {
  return Value::boolean(A[0].isHash());
}
Value primHashtableSet(Context &Ctx, Value *A, size_t) {
  HashTable *H = wantHash("hashtable-set!", A[0]);
  Ctx.TheHeap.noteWrite(H);
  H->set(A[1], A[2]);
  return Value::undefined();
}
Value primHashtableRef(Context &, Value *A, size_t N) {
  HashTable *H = wantHash("hashtable-ref", A[0]);
  Value Default = N == 3 ? A[2] : Value::boolean(false);
  return H->get(A[1], Default);
}
Value primHashtableContainsP(Context &, Value *A, size_t) {
  return Value::boolean(wantHash("hashtable-contains?", A[0])->contains(A[1]));
}
Value primHashtableDelete(Context &, Value *A, size_t) {
  wantHash("hashtable-delete!", A[0])->erase(A[1]);
  return Value::undefined();
}
Value primHashtableSize(Context &, Value *A, size_t) {
  return Value::fixnum(
      static_cast<int64_t>(wantHash("hashtable-size", A[0])->size()));
}
Value primHashtableKeys(Context &Ctx, Value *A, size_t) {
  return Ctx.TheHeap.list(
      wantHash("hashtable-keys", A[0])->keysInInsertionOrder(),
      AllocSite::PrimList);
}
Value primHashtableUpdate(Context &Ctx, Value *A, size_t) {
  // (hashtable-update! ht key proc default)
  HashTable *H = wantHash("hashtable-update!", A[0]);
  Value Fn = wantProcedure("hashtable-update!", A[2]);
  Value Cur = H->get(A[1], A[3]);
  Value Args[1] = {Cur};
  Value New = applyProcedure(Ctx, Fn, Args, 1);
  Ctx.TheHeap.noteWrite(H);
  H->set(A[1], New);
  return Value::undefined();
}

} // namespace

void pgmp::installHashPrims(Context &Ctx) {
  Ctx.definePrimitive("make-eq-hashtable", 0, 1, primMakeEqHashtable);
  Ctx.definePrimitive("make-eqv-hashtable", 0, 1, primMakeEqvHashtable);
  Ctx.definePrimitive("make-equal-hashtable", 0, 1, primMakeEqualHashtable);
  Ctx.definePrimitive("make-hashtable", 0, 2, primMakeEqualHashtable);
  Ctx.definePrimitive("hashtable?", 1, 1, primHashtableP);
  Ctx.definePrimitive("hashtable-set!", 3, 3, primHashtableSet);
  Ctx.definePrimitive("hashtable-ref", 2, 3, primHashtableRef);
  Ctx.definePrimitive("hashtable-contains?", 2, 2, primHashtableContainsP);
  Ctx.definePrimitive("hashtable-delete!", 2, 2, primHashtableDelete);
  Ctx.definePrimitive("hashtable-size", 1, 1, primHashtableSize);
  Ctx.definePrimitive("hashtable-keys", 1, 1, primHashtableKeys);
  Ctx.definePrimitive("hashtable-update!", 4, 4, primHashtableUpdate);
}
