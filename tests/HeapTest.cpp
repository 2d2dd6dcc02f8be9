//===- tests/HeapTest.cpp - Arena heap unit tests -------------------------===//
//
// The bump-pointer arena's contracts: every object 8-byte aligned even
// across chunk boundaries, destructors of non-trivially-destructible
// objects run exactly once at teardown, EnvObj inline slots behave like
// the slot vector they replaced (deep chains, oversize frames), and
// per-engine heaps stay independent under concurrent EnginePool workers.
// The HeapReclaim suite covers generational region reclamation directly:
// evacuation forwarding for every kind across chunk boundaries, shared
// structure and cycles, inline Env slots, exactly-once destruction,
// eq/eqv hash rebuilds and in-place patching, the remembered set, and
// major-cycle accounting.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/EnginePool.h"
#include "syntax/Heap.h"
#include "syntax/SymbolTable.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace pgmp;

namespace {

bool isAligned(const void *P) {
  return reinterpret_cast<uintptr_t>(P) % 8 == 0;
}

TEST(Heap, AllKindsStayAlignedAcrossChunkBoundaries) {
  Heap H;
  // Mixed sizes force many chunk crossings: well past 64 KiB of pairs
  // (40 B each), strings (dtor header + std::string), vectors, frames.
  std::vector<const void *> Ptrs;
  for (int I = 0; I < 4000; ++I) {
    Ptrs.push_back(H.cons(Value::fixnum(I), Value::nil()).obj());
    if (I % 3 == 0)
      Ptrs.push_back(H.string(std::string(I % 17, 'x')).obj());
    if (I % 5 == 0)
      Ptrs.push_back(
          H.vector(std::vector<Value>(I % 7, Value::fixnum(I))).obj());
    if (I % 7 == 0)
      Ptrs.push_back(H.hashtable(HashKind::Equal).obj());
    if (I % 11 == 0)
      Ptrs.push_back(H.box(Value::fixnum(I)).obj());
    if (I % 13 == 0) {
      EnvObj *E = H.makeEnv(nullptr, I % 9);
      Ptrs.push_back(E);
      EXPECT_TRUE(isAligned(E->slots()));
    }
  }
  for (const void *P : Ptrs)
    EXPECT_TRUE(isAligned(P));
  EXPECT_GT(H.allocStats().ChunksAcquired, 3u) << "test must cross chunks";
}

/// An Obj subclass with an observable destructor, for exactly-once
/// teardown accounting. The kind tag is arbitrary (never read back).
class DtorProbe : public Obj {
public:
  explicit DtorProbe(int *Count) : Obj(ValueKind::Box), Count(Count) {}
  ~DtorProbe() { ++*Count; }
  int *Count;
};
static_assert(!std::is_trivially_destructible_v<DtorProbe>,
              "probe must travel the destructible side list");

TEST(Heap, BulkDestructionRunsDestructorsExactlyOnce) {
  int Destroyed = 0;
  constexpr int N = 5000; // enough to span several chunks
  {
    Heap H;
    for (int I = 0; I < N; ++I) {
      H.make<DtorProbe>(&Destroyed);
      // Interleave trivially-destructible objects: they must NOT appear
      // on the side list or perturb its walk.
      H.cons(Value::fixnum(I), Value::nil());
    }
    EXPECT_EQ(Destroyed, 0) << "nothing destroyed before heap teardown";
  }
  EXPECT_EQ(Destroyed, N);
}

TEST(Heap, EnvSlotsSurviveDeepChains) {
  Heap H;
  // A deep parent chain with every slot distinct; verify from the leaf
  // that no frame's slots were clobbered by later allocations.
  constexpr int Depth = 2000;
  EnvObj *Frame = nullptr;
  for (int D = 0; D < Depth; ++D) {
    Value Args[3] = {Value::fixnum(D), Value::fixnum(D * 2),
                     Value::fixnum(D * 3)};
    Frame = H.makeEnvFrom(Frame, 3, Args, 3);
    // Unrelated churn between frames, as evaluation produces.
    H.cons(Value::fixnum(D), Value::nil());
  }
  int D = Depth - 1;
  for (EnvObj *F = Frame; F; F = F->Parent, --D) {
    ASSERT_EQ(F->NumSlots, 3u);
    EXPECT_EQ(F->slots()[0].asFixnum(), D);
    EXPECT_EQ(F->slots()[1].asFixnum(), D * 2);
    EXPECT_EQ(F->slots()[2].asFixnum(), D * 3);
  }
  EXPECT_EQ(D, -1);
}

TEST(Heap, MakeEnvFromCopiesPrefixAndVoidsRest) {
  Heap H;
  Value Args[2] = {Value::fixnum(10), Value::fixnum(20)};
  EnvObj *E = H.makeEnvFrom(nullptr, 5, Args, 2);
  EXPECT_EQ(E->slots()[0].asFixnum(), 10);
  EXPECT_EQ(E->slots()[1].asFixnum(), 20);
  for (size_t I = 2; I < 5; ++I)
    EXPECT_TRUE(E->slots()[I].isVoid());
}

TEST(Heap, OversizeEnvGetsDedicatedChunk) {
  Heap H;
  // 64 Ki slots * 16 B ≫ the 64 KiB chunk: must take the oversize path.
  constexpr size_t Slots = 64 * 1024;
  uint64_t ChunksBefore = H.allocStats().ChunksAcquired;
  EnvObj *E = H.makeEnv(nullptr, Slots);
  ASSERT_EQ(E->NumSlots, Slots);
  EXPECT_TRUE(isAligned(E->slots()));
  EXPECT_EQ(H.allocStats().OversizeChunks, 1u);
  EXPECT_EQ(H.allocStats().ChunksAcquired, ChunksBefore + 1);
  E->slots()[0] = Value::fixnum(1);
  E->slots()[Slots - 1] = Value::fixnum(2);
  EXPECT_EQ(E->slots()[0].asFixnum(), 1);
  EXPECT_EQ(E->slots()[Slots - 1].asFixnum(), 2);
  // An oversize allocation must not hijack the bump chunk: small
  // allocations keep succeeding and stay aligned.
  Value V = H.cons(Value::fixnum(3), Value::nil());
  EXPECT_TRUE(isAligned(V.obj()));
}

TEST(Heap, AllocStatsCountObjectsAndBytes) {
  Heap H;
  uint64_t Before = H.numObjects();
  H.cons(Value::fixnum(1), Value::nil());
  H.cons(Value::fixnum(2), Value::nil());
  H.string("s");
  EXPECT_EQ(H.numObjects(), Before + 3);
  const Heap::AllocStats &A = H.allocStats();
  EXPECT_EQ(A.ObjectsByKind[static_cast<size_t>(ValueKind::Pair)], 2u);
  EXPECT_EQ(A.ObjectsByKind[static_cast<size_t>(ValueKind::String)], 1u);
  EXPECT_GE(A.BytesAllocated, 2 * sizeof(Pair) + sizeof(StringObj));
  EXPECT_GE(A.BytesReserved, A.BytesAllocated);
  std::vector<std::pair<std::string, uint64_t>> Rows;
  H.appendStats(Rows);
  ASSERT_GE(Rows.size(), 5u);
  EXPECT_EQ(Rows[0].first, "heap-bytes-allocated");
  EXPECT_EQ(Rows[0].second, A.BytesAllocated);
}

TEST(Heap, KeysInInsertionOrderCached) {
  Heap H;
  HashTable *T = H.hashtable(HashKind::Equal).asHash();
  T->set(Value::fixnum(3), Value::fixnum(30));
  T->set(Value::fixnum(1), Value::fixnum(10));
  T->set(Value::fixnum(2), Value::fixnum(20));
  const std::vector<Value> &K1 = T->keysInInsertionOrder();
  ASSERT_EQ(K1.size(), 3u);
  EXPECT_EQ(K1[0].asFixnum(), 3);
  EXPECT_EQ(K1[1].asFixnum(), 1);
  EXPECT_EQ(K1[2].asFixnum(), 2);
  // Same table shape: the cached list is reused (same storage).
  const std::vector<Value> *P1 = &T->keysInInsertionOrder();
  EXPECT_EQ(P1, &K1);
  // Value update of an existing key is not a structural change.
  T->set(Value::fixnum(1), Value::fixnum(11));
  EXPECT_EQ(&T->keysInInsertionOrder(), P1);
  EXPECT_EQ(T->get(Value::fixnum(1), Value::nil()).asFixnum(), 11);
  // Erase invalidates; order of survivors is preserved.
  ASSERT_TRUE(T->erase(Value::fixnum(1)));
  const std::vector<Value> &K2 = T->keysInInsertionOrder();
  ASSERT_EQ(K2.size(), 2u);
  EXPECT_EQ(K2[0].asFixnum(), 3);
  EXPECT_EQ(K2[1].asFixnum(), 2);
  // Insertion invalidates; the new key appends.
  T->set(Value::fixnum(9), Value::fixnum(90));
  const std::vector<Value> &K3 = T->keysInInsertionOrder();
  ASSERT_EQ(K3.size(), 3u);
  EXPECT_EQ(K3[2].asFixnum(), 9);
}

TEST(Heap, EngineDeepRecursionUsesInlineFrames) {
  Engine E;
  // 40k frames, three live locals each, through the interpreter path —
  // the inline-slot layout must behave exactly like the old vector.
  EvalResult R = E.evalString("(define (sum n acc)\n"
                              "  (if (= n 0) acc (sum (- n 1) (+ acc n))))\n"
                              "(sum 40000 0)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.V.asFixnum(), 40000LL * 40001 / 2);
}

//===----------------------------------------------------------------------===//
// Region reclamation: evacuation, forwarding, destructor discipline
//===----------------------------------------------------------------------===//

// "s<I>", built by appending: GCC 12 at -O3 reports a bogus -Wrestrict
// overlap on the inlined `"s" + std::to_string(I)` prepend.
static std::string stringPayload(int I) {
  std::string S = "s";
  S += std::to_string(I);
  return S;
}

TEST(HeapReclaim, EvacuationForwardsAllKindsAcrossChunkBoundaries) {
  Heap H;
  // Live data of every syntax/-owned kind, interleaved with enough
  // garbage that the live set spans several chunks and every evacuation
  // crosses chunk boundaries.
  std::vector<Value> Roots;
  for (int I = 0; I < 3000; ++I) {
    Roots.push_back(
        H.cons(Value::fixnum(I), H.string(stringPayload(I))));
    if (I % 5 == 0)
      Roots.push_back(H.vector({Value::fixnum(I), Value::fixnum(I + 1)}));
    if (I % 7 == 0)
      Roots.push_back(H.box(Value::fixnum(-I)));
    for (int G = 0; G < 8; ++G)
      H.cons(Value::fixnum(G), Value::nil()); // garbage
  }
  uint64_t LiveBefore = H.bytesLive();
  const void *OldFirst = Roots[0].obj();
  Heap::ReclaimResult R = H.collect([&](GcVisitor &V) {
    for (Value &Root : Roots)
      V.value(Root);
  });
  EXPECT_FALSE(R.Aborted);
  EXPECT_GT(R.BytesReclaimed, 0u);
  EXPECT_GT(R.ObjectsEvacuated, 3000u);
  EXPECT_EQ(H.nurseryBytes(), 0u) << "nursery fully reclaimed";
  EXPECT_LT(H.bytesLive(), LiveBefore);
  EXPECT_NE(Roots[0].obj(), OldFirst) << "live objects must have moved";
  size_t Idx = 0;
  for (int I = 0; I < 3000; ++I) {
    Value P = Roots[Idx++];
    ASSERT_TRUE(P.isPair());
    EXPECT_EQ(P.asPair()->Car.asFixnum(), I);
    EXPECT_EQ(P.asPair()->Cdr.asString()->Text, stringPayload(I));
    if (I % 5 == 0) {
      VectorObj *V = Roots[Idx++].asVector();
      ASSERT_EQ(V->Elems.size(), 2u);
      EXPECT_EQ(V->Elems[0].asFixnum(), I);
      EXPECT_EQ(V->Elems[1].asFixnum(), I + 1);
    }
    if (I % 7 == 0) {
      EXPECT_EQ(Roots[Idx++].asBox()->Boxed.asFixnum(), -I);
    }
  }
}

TEST(HeapReclaim, SharedStructureAndIdentitySurviveEvacuation) {
  Heap H;
  // Two roots into the same pair, plus a cycle: forwarding must preserve
  // object identity (eq?-ness) and terminate on cyclic reachability.
  Value Shared = H.cons(Value::fixnum(1), Value::nil());
  Value A = H.cons(Shared, Shared);
  Value Cycle = H.cons(Value::fixnum(2), Value::nil());
  Cycle.asPair()->Cdr = Cycle; // self-cycle
  std::vector<Value> Roots{Shared, A, Cycle};
  Heap::ReclaimResult R =
      H.collect([&](GcVisitor &V) {
        for (Value &Root : Roots)
          V.value(Root);
      });
  EXPECT_FALSE(R.Aborted);
  EXPECT_EQ(Roots[1].asPair()->Car.obj(), Roots[0].obj())
      << "shared structure must stay shared";
  EXPECT_EQ(Roots[1].asPair()->Cdr.obj(), Roots[0].obj());
  EXPECT_EQ(Roots[2].asPair()->Cdr.obj(), Roots[2].obj())
      << "cycles must forward to themselves";
  EXPECT_EQ(Roots[2].asPair()->Car.asFixnum(), 2);
}

TEST(HeapReclaim, EnvInlineSlotsEvacuateWithTheFrame) {
  Heap H;
  // A deep frame chain: EnvObj's inline variable-size slot layout must be
  // copied slot-for-slot, parent links rewritten across chunk crossings.
  constexpr int Depth = 1500;
  EnvObj *Frame = nullptr;
  for (int D = 0; D < Depth; ++D) {
    Value Args[3] = {Value::fixnum(D), Value::fixnum(D * 2),
                     H.string(std::to_string(D))};
    Frame = H.makeEnvFrom(Frame, 3, Args, 3);
    for (int G = 0; G < 4; ++G)
      H.cons(Value::fixnum(G), Value::nil()); // garbage between frames
  }
  Heap::ReclaimResult R =
      H.collect([&](GcVisitor &V) { V.ptr(Frame); });
  EXPECT_FALSE(R.Aborted);
  EXPECT_EQ(H.nurseryBytes(), 0u);
  int D = Depth - 1;
  for (EnvObj *F = Frame; F; F = F->Parent, --D) {
    ASSERT_EQ(F->NumSlots, 3u);
    EXPECT_EQ(F->slots()[0].asFixnum(), D);
    EXPECT_EQ(F->slots()[1].asFixnum(), D * 2);
    EXPECT_EQ(F->slots()[2].asString()->Text, std::to_string(D));
  }
  EXPECT_EQ(D, -1);
}

TEST(HeapReclaim, DestructiblesRunExactlyOnceAcrossEvacuation) {
  // Strings are the destructible kind allocated in bulk: evacuation
  // move-constructs the copy onto the tenured destructor list and leaves
  // the moved-from shell on the nursery list, so every object is
  // destructed exactly once — shells when the region drops, survivors at
  // teardown (ASan runs this test via tier1.sh and would catch a double
  // destruction or a leak).
  Heap H;
  std::vector<Value> Keep;
  for (int I = 0; I < 2000; ++I) {
    Value S = H.string(std::string(64, static_cast<char>('a' + I % 26)));
    if (I % 10 == 0)
      Keep.push_back(S); // the rest is garbage
  }
  Heap::ReclaimResult R = H.collect([&](GcVisitor &V) {
    for (Value &Root : Keep)
      V.value(Root);
  });
  EXPECT_FALSE(R.Aborted);
  for (size_t I = 0; I < Keep.size(); ++I)
    EXPECT_EQ(Keep[I].asString()->Text,
              std::string(64, static_cast<char>('a' + (10 * I) % 26)));
  // Survivors survive a second, major cycle too — and are destructed at
  // heap teardown, not before.
  Heap::ReclaimResult R2 = H.collect(
      [&](GcVisitor &V) {
        for (Value &Root : Keep)
          V.value(Root);
      },
      /*ForceMajor=*/true);
  EXPECT_TRUE(R2.Major);
  EXPECT_EQ(Keep.front().asString()->Text, std::string(64, 'a'));
}

TEST(HeapReclaim, HashTablesRehashToForwardedKeys) {
  Heap H;
  // Heap-object keys hash by pointer under eq/eqv; evacuation moves them,
  // so the collection must rebuild the table around the new addresses
  // and preserve insertion order.
  Value T = H.hashtable(HashKind::Eqv);
  std::vector<Value> Keys;
  for (int I = 0; I < 100; ++I) {
    Value K = H.cons(Value::fixnum(I), Value::nil());
    Keys.push_back(K);
    T.asHash()->set(K, Value::fixnum(I * 10));
  }
  for (int I = 0; I < 5000; ++I)
    H.cons(Value::fixnum(I), Value::nil()); // garbage
  Heap::ReclaimResult R = H.collect([&](GcVisitor &V) {
    V.value(T);
    for (Value &K : Keys)
      V.value(K);
  });
  EXPECT_FALSE(R.Aborted);
  for (int I = 0; I < 100; ++I) {
    EXPECT_TRUE(T.asHash()->contains(Keys[I]))
        << "key " << I << " must be findable at its forwarded address";
    EXPECT_EQ(T.asHash()->get(Keys[I], Value::nil()).asFixnum(), I * 10);
  }
  const std::vector<Value> &Order = T.asHash()->keysInInsertionOrder();
  ASSERT_EQ(Order.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Order[I].obj(), Keys[I].obj()) << "insertion order preserved";
}

TEST(HeapReclaim, MajorCycleDropsTenuredGarbageAndCountsSurvivalOnce) {
  Heap H;
  // Round 1: some data survives a minor cycle into tenured space.
  std::vector<Value> Keep;
  for (int I = 0; I < 500; ++I) {
    Value V = H.cons(Value::fixnum(I), Value::nil());
    if (I % 2 == 0)
      Keep.push_back(V);
  }
  H.collect([&](GcVisitor &V) {
    for (Value &Root : Keep)
      V.value(Root);
  });
  uint64_t TenuredAfterMinor = H.tenuredBytes();
  ASSERT_GT(TenuredAfterMinor, 0u);
  const AllocSiteStats &SS =
      H.siteStats()[static_cast<size_t>(AllocSite::Unknown)];
  uint64_t SurvivedAfterMinor = SS.Survived;
  EXPECT_EQ(SurvivedAfterMinor, 250u);
  // Round 2: drop half the survivors and force a major cycle. Tenured
  // garbage is reclaimed, and re-evacuating the still-live half must NOT
  // re-earn Survived credit (rates would inflate past 100%).
  Keep.resize(125);
  Heap::ReclaimResult R = H.collect(
      [&](GcVisitor &V) {
        for (Value &Root : Keep)
          V.value(Root);
      },
      /*ForceMajor=*/true);
  EXPECT_TRUE(R.Major);
  EXPECT_LT(H.tenuredBytes(), TenuredAfterMinor)
      << "dead tenured objects must be dropped by a major cycle";
  EXPECT_EQ(SS.Survived, SurvivedAfterMinor)
      << "re-evacuation during a major cycle is not a new survival";
  for (int I = 0; I < 125; ++I)
    EXPECT_EQ(Keep[I].asPair()->Car.asFixnum(), I * 2);
}

TEST(HeapReclaim, HashTablesKeepTheirLayoutUnlessAKeyMoves) {
  // A fixnum-keyed table is patched in place (no key can move), a
  // pair-keyed eq table is rebuilt around the forwarded keys; both must
  // answer every lookup and keep insertion order across a minor cycle, a
  // remembered store into the tenured table, and a major cycle.
  Heap H;
  Value Fix = H.hashtable(HashKind::Eqv);
  Value ByPair = H.hashtable(HashKind::Eq);
  std::vector<Value> Keys;
  for (int I = 0; I < 200; ++I) {
    Fix.asHash()->set(Value::fixnum(1000 - I), H.cons(Value::fixnum(I),
                                                      Value::nil()));
    Value K = H.cons(Value::fixnum(I), Value::nil());
    Keys.push_back(K);
    ByPair.asHash()->set(K, Value::fixnum(I * 10));
  }
  auto Collect = [&](bool Major) {
    for (int I = 0; I < 3000; ++I)
      H.cons(Value::fixnum(I), Value::nil()); // garbage
    Heap::ReclaimResult R = H.collect(
        [&](GcVisitor &V) {
          V.value(Fix);
          V.value(ByPair);
          for (Value &K : Keys)
            V.value(K);
        },
        Major);
    EXPECT_FALSE(R.Aborted);
    EXPECT_EQ(R.Major, Major);
  };
  auto Check = [&](size_t NumKeys) {
    const std::vector<Value> &FixOrder = Fix.asHash()->keysInInsertionOrder();
    ASSERT_EQ(FixOrder.size(), 200u);
    for (int I = 0; I < 200; ++I) {
      EXPECT_EQ(FixOrder[I].asFixnum(), 1000 - I);
      Value V = Fix.asHash()->get(Value::fixnum(1000 - I), Value::nil());
      ASSERT_TRUE(V.isPair());
      EXPECT_EQ(V.asPair()->Car.asFixnum(), I);
    }
    const std::vector<Value> &Order = ByPair.asHash()->keysInInsertionOrder();
    ASSERT_EQ(Order.size(), NumKeys);
    for (size_t I = 0; I < NumKeys; ++I) {
      EXPECT_EQ(Order[I].obj(), Keys[I].obj());
      EXPECT_EQ(ByPair.asHash()->get(Keys[I], Value::nil()).asFixnum(),
                static_cast<int64_t>(I) * 10);
    }
  };
  Check(200); // warm both order caches
  Collect(/*Major=*/false);
  Check(200);
  // A store into the now-tenured table: the barrier lists it, and the
  // next minor rebuilds it around the new, moving key.
  Value NewKey = H.cons(Value::fixnum(200), Value::nil());
  Keys.push_back(NewKey);
  H.noteWrite(ByPair.asHash());
  ByPair.asHash()->set(NewKey, Value::fixnum(2000));
  Collect(/*Major=*/false);
  Check(201);
  Collect(/*Major=*/true);
  Check(201);
}

TEST(HeapReclaim, RememberedTenuredObjectsKeepTheirNurseryChildren) {
  Heap H;
  Value Old = H.cons(Value::nil(), Value::nil());
  H.collect([&](GcVisitor &V) { V.value(Old); });
  ASSERT_EQ(H.nurseryBytes(), 0u);
  // The tenured pair is stored into; only the barrier makes the minor
  // cycle look at it (it is deliberately not a root this time).
  Value Young = H.cons(Value::fixnum(42), Value::nil());
  H.noteWrite(Old.asPair());
  H.noteWrite(Old.asPair()); // listed once per cycle
  Old.asPair()->Car = Young;
  Heap::ReclaimResult R = H.collect([](GcVisitor &) {});
  EXPECT_EQ(R.ObjectsEvacuated, 1u);
  EXPECT_EQ(H.allocStats().ObjectsRemembered, 1u);
  ASSERT_TRUE(Old.asPair()->Car.isPair());
  EXPECT_NE(Old.asPair()->Car.obj(), Young.obj()) << "the child moved";
  EXPECT_EQ(Old.asPair()->Car.asPair()->Car.asFixnum(), 42);
  // The list was drained: with no new store, the next minor finds
  // nothing to scan beyond its (empty) roots.
  uint64_t Scanned = H.allocStats().ObjectsScanned;
  H.collect([](GcVisitor &) {});
  EXPECT_EQ(H.allocStats().ObjectsScanned, Scanned);
}

TEST(HeapReclaim, SymbolsAreStableAcrossCollection) {
  Heap H;
  SymbolTable Syms;
  Symbol *S = Syms.intern("stable");
  Value Holder = H.cons(Value::object(ValueKind::Symbol, S), Value::nil());
  H.collect([&](GcVisitor &V) { V.value(Holder); });
  EXPECT_EQ(Holder.asPair()->Car.asSymbol(), S)
      << "table-owned symbols never move";
}

TEST(HeapPool, EightWorkerAllocationInterleavingIsIndependent) {
  // Eight engines allocate concurrently, each on its own heap; the
  // per-engine ownership contract means no sharing, no races (asan/tsan
  // presets run this test), and per-heap stats that add up per worker.
  EnginePool Pool(8);
  ASSERT_EQ(Pool.size(), 8u);
  const char *Prog = "(define (build n acc)\n"
                     "  (if (= n 0) acc (build (- n 1) (cons n acc))))\n"
                     "(length (build 2000 '()))";
  EnginePool::PoolResult R =
      Pool.run([&](Engine &E, size_t) { return E.evalString(Prog); });
  ASSERT_TRUE(R.Ok) << R.Error;
  for (size_t I = 0; I < Pool.size(); ++I) {
    ASSERT_TRUE(R.PerWorker[I].Ok) << R.PerWorker[I].Error;
    EXPECT_EQ(R.PerWorker[I].V.asFixnum(), 2000);
  }
}

} // namespace
