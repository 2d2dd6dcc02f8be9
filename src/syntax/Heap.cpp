//===- syntax/Heap.cpp ----------------------------------------------------===//

#include "syntax/Heap.h"

#include "support/Diagnostics.h"
#include "support/ExecGuard.h"
#include "support/FaultInjector.h"
#include "syntax/SymbolTable.h"
#include "syntax/Syntax.h"

#include <algorithm>

using namespace pgmp;

const char *pgmp::allocSiteName(AllocSite S) {
  switch (S) {
#define PGMP_ALLOC_SITE_NAME(Id, Name)                                         \
  case AllocSite::Id:                                                          \
    return Name;
    PGMP_ALLOC_SITES(PGMP_ALLOC_SITE_NAME)
#undef PGMP_ALLOC_SITE_NAME
  case AllocSite::Ambient:
    break;
  }
  return "ambient";
}

Heap::~Heap() {
  // Only the destructible side lists are walked; trivially-destructible
  // objects (pairs, closures, boxes, env frames) are reclaimed with the
  // chunks. Newest-first order is fine: heap objects never own each
  // other, they only point, and nothing dereferences during teardown.
  for (DtorNode *N = NurseryDtorHead; N; N = N->Next)
    N->Destroy(N + 1);
  for (DtorNode *N = TenuredDtorHead; N; N = N->Next)
    N->Destroy(N + 1);
}

void *Heap::allocateSlow(size_t Bytes) {
  // Resource governance rides the cold path only: both checks run before
  // any state mutates, so a trip leaves the heap fully consistent — the
  // current chunk's tail keeps serving small allocations afterward.
  size_t ChunkNeed = Bytes > ChunkBytes ? Bytes : ChunkBytes;
  if (faultinject::shouldFail(faultinject::Point::Alloc))
    raiseGuardTrip(GuardKind::Heap,
                   "injected allocation failure (chunk of " +
                       std::to_string(ChunkNeed) + " bytes)");
  if (LimitBytes && Stats.BytesReserved + ChunkNeed > LimitBytes)
    raiseGuardTrip(GuardKind::Heap,
                   "heap limit of " + std::to_string(LimitBytes) +
                       " bytes reached (" +
                       std::to_string(Stats.BytesReserved) +
                       " reserved, next chunk needs " +
                       std::to_string(ChunkNeed) + ")");
  return acquireChunk(Nursery, Cur, End, Bytes);
}

void *Heap::acquireChunk(std::vector<Chunk> &Gen, char *&BumpCur,
                         char *&BumpEnd, size_t Bytes) {
  const size_t Size = Bytes > ChunkBytes ? Bytes : ChunkBytes;
  ++Stats.ChunksAcquired;
  Stats.BytesReserved += Size;
  Stats.PeakBytesReserved =
      std::max(Stats.PeakBytesReserved, Stats.BytesReserved);
  Gen.push_back({std::make_unique<char[]>(Size), Size});
  char *Base = Gen.back().Mem.get();
  if (Bytes > ChunkBytes) {
    // Oversize (e.g. a frame with thousands of slots): dedicated chunk of
    // exactly the requested size; the current bump chunk keeps its tail.
    ++Stats.OversizeChunks;
    return Base;
  }
  BumpCur = Base + Bytes;
  BumpEnd = Base + ChunkBytes;
  return Base;
}

void *Heap::allocateForEvac(size_t Bytes) {
  // Collector path: never raises. An injected fault degrades the cycle
  // (EvacFailed) instead of unwinding out of a half-forwarded graph; the
  // reserved-bytes cap is not enforced because the cycle as a whole
  // releases memory.
  if (EvacFailed)
    return nullptr;
  if (Bytes <= static_cast<size_t>(TenEnd - TenCur)) {
    void *P = TenCur;
    TenCur += Bytes;
    return P;
  }
  if (faultinject::shouldFail(faultinject::Point::Alloc)) {
    EvacFailed = true;
    return nullptr;
  }
  return acquireChunk(Tenured, TenCur, TenEnd, Bytes);
}

//===----------------------------------------------------------------------===//
// Region reclamation
//===----------------------------------------------------------------------===//

bool Heap::inFromSpace(const void *P) const {
  auto It = std::upper_bound(
      FromRanges.begin(), FromRanges.end(), P,
      [](const void *Ptr, const std::pair<const char *, const char *> &R) {
        return Ptr < static_cast<const void *>(R.first);
      });
  if (It == FromRanges.begin())
    return false;
  --It;
  return P < static_cast<const void *>(It->second);
}

template <typename T>
Obj *Heap::relocateObj(T *Old, bool FirstPromo) {
  size_t Bytes;
  T *Copy;
  if constexpr (std::is_trivially_destructible_v<T>) {
    Bytes = roundUp(sizeof(T));
    void *Mem = allocateForEvac(Bytes);
    if (!Mem)
      return nullptr;
    Copy = new (Mem) T(std::move(*Old));
  } else {
    Bytes = roundUp(sizeof(DtorNode) + sizeof(T));
    auto *N = static_cast<DtorNode *>(allocateForEvac(Bytes));
    if (!N)
      return nullptr;
    Copy = new (N + 1) T(std::move(*Old));
    N->Destroy = [](void *P) { static_cast<T *>(P)->~T(); };
    N->Next = TenuredDtorHead;
    TenuredDtorHead = N;
    // The moved-from shell stays on the nursery list and is destructed
    // (cheaply, it is empty) when the region is dropped — every
    // destructible object still runs its destructor exactly once.
  }
  return noteEvacuated(Copy, Bytes, FirstPromo);
}

Obj *Heap::noteEvacuated(Obj *Copy, size_t Bytes, bool FirstPromo) {
  ++CycleEvacObjects;
  CycleEvacBytes += Bytes;
  if (FirstPromo) {
    AllocSiteStats &SS = Sites[Copy->Site];
    ++SS.Survived;
    SS.SurvivedBytes += Bytes;
  }
  return Copy;
}

Obj *Heap::evacuate(Obj *O) {
  // First promotion out of the nursery earns the site's Survived credit;
  // a re-evacuation during a major (an old object) already counted, or
  // survival rates would inflate past 100%.
  const bool First = !(O->GcFlags & Obj::GcOld);
  switch (O->Kind) {
  case ValueKind::Pair:
    return relocateObj(static_cast<Pair *>(O), First);
  case ValueKind::String:
    return relocateObj(static_cast<StringObj *>(O), First);
  case ValueKind::Vector:
    return relocateObj(static_cast<VectorObj *>(O), First);
  case ValueKind::Hash:
    return relocateObj(static_cast<HashTable *>(O), First);
  case ValueKind::Closure:
    return relocateObj(static_cast<Closure *>(O), First);
  case ValueKind::Primitive:
    return relocateObj(static_cast<Primitive *>(O), First);
  case ValueKind::Syntax:
    return relocateObj(static_cast<Syntax *>(O), First);
  case ValueKind::Box:
    return relocateObj(static_cast<Box *>(O), First);
  case ValueKind::Env: {
    // Variable-size: header plus inline slots in one copy.
    auto *E = static_cast<EnvObj *>(O);
    size_t Bytes = roundUp(sizeof(EnvObj) + E->NumSlots * sizeof(Value));
    void *Mem = allocateForEvac(Bytes);
    if (!Mem)
      return nullptr;
    EnvObj *Copy = new (Mem) EnvObj(E->Parent, E->NumSlots);
    Copy->Site = E->Site;
    const Value *Src = E->slots();
    Value *Dst = Copy->slots();
    for (uint32_t I = 0; I < E->NumSlots; ++I)
      new (Dst + I) Value(Src[I]);
    return noteEvacuated(Copy, Bytes, First);
  }
  default: {
    // A kind whose layout lives outside syntax/ (VmClosure): relocate
    // through the hooks installVm registered.
    const ExternalKindOps &Ops = ExternalKinds[static_cast<size_t>(O->Kind)];
    assert(Ops.Relocate && "unregistered external heap kind in collect()");
    size_t Bytes = roundUp(Ops.Size);
    void *Mem = allocateForEvac(Bytes);
    if (!Mem)
      return nullptr;
    Obj *Copy = Ops.Relocate(Mem, O);
    return noteEvacuated(Copy, Bytes, First);
  }
  }
}

Obj *Heap::forwardObj(Obj *O) {
  if (!O)
    return nullptr;
  // Not moving this cycle: a tenured object during a minor, or a
  // table-owned Symbol. A tenured object that holds nursery pointers was
  // stored into, so the remembered list scans it.
  if (!inFromSpace(O))
    return O;
  auto It = Forwarded.find(O);
  if (It != Forwarded.end())
    return It->second;
  Obj *Copy = evacuate(O);
  if (!Copy) {
    // Degraded cycle: the object is promoted in place — its chunk will be
    // adopted into the tenured generation wholesale — but its children
    // still need forwarding (earlier evacuees already moved).
    if (!(O->GcFlags & Obj::GcOld))
      ++Sites[O->Site].Survived;
    Copy = O;
  }
  Copy->GcFlags = Obj::GcOld;
  Forwarded.emplace(O, Copy);
  Worklist.push_back(Copy);
  return Copy;
}

void Heap::scanObject(Obj *O, GcVisitor &V) {
  switch (O->Kind) {
  case ValueKind::Symbol:    // interned, no Value children
  case ValueKind::String:    // text only
  case ValueKind::Primitive: // name + function pointer only
    return;
  case ValueKind::Pair: {
    auto *P = static_cast<Pair *>(O);
    V.value(P->Car);
    V.value(P->Cdr);
    return;
  }
  case ValueKind::Vector: {
    for (Value &E : static_cast<VectorObj *>(O)->Elems)
      V.value(E);
    return;
  }
  case ValueKind::Hash:
    static_cast<HashTable *>(O)->rehashForGc(V);
    return;
  case ValueKind::Closure:
    V.ptr(static_cast<Closure *>(O)->Captured);
    return;
  case ValueKind::Syntax:
    V.value(static_cast<Syntax *>(O)->Inner);
    return;
  case ValueKind::Box:
    V.value(static_cast<Box *>(O)->Boxed);
    return;
  case ValueKind::Env: {
    auto *E = static_cast<EnvObj *>(O);
    V.ptr(E->Parent);
    Value *S = E->slots();
    for (uint32_t I = 0; I < E->NumSlots; ++I)
      V.value(S[I]);
    return;
  }
  default: {
    const ExternalKindOps &Ops = ExternalKinds[static_cast<size_t>(O->Kind)];
    assert(Ops.Trace && "unregistered external heap kind in collect()");
    Ops.Trace(O, V);
    return;
  }
  }
}

Heap::ReclaimResult Heap::collect(const RootEnumerator &Roots,
                                  bool ForceMajor) {
  assert(!InCollect && "collect() is not reentrant");
  ReclaimResult R;
  const bool Major =
      ForceMajor ||
      (TenuredBytes >= std::max<uint64_t>(4 * ChunkBytes,
                                          2 * TenuredBytesAtLastMajor));

  Stats.ObjectsRemembered += Remembered.size();
  if (Major) {
    // Everything reachable is traced and every survivor leaves with
    // exactly GcOld, so the remembered list has nothing to add.
    Remembered.clear();
    // Widen from-space to the whole heap: every tenured chunk becomes
    // collectible, so evacuees of earlier cycles that died since are
    // dropped too. Live tenured objects re-evacuate
    // into fresh chunks exactly like nursery survivors — without
    // re-earning Survived credit (see evacuate).
    for (Chunk &C : Tenured)
      Nursery.push_back(std::move(C));
    Tenured.clear();
    if (TenuredDtorHead) {
      DtorNode *Tail = TenuredDtorHead;
      while (Tail->Next)
        Tail = Tail->Next;
      Tail->Next = NurseryDtorHead;
      NurseryDtorHead = TenuredDtorHead;
      TenuredDtorHead = nullptr;
    }
    TenCur = TenEnd = nullptr;
    NurseryBytes += TenuredBytes;
    TenuredBytes = 0;
  }

  FromRanges.clear();
  FromRanges.reserve(Nursery.size());
  for (const Chunk &C : Nursery)
    FromRanges.emplace_back(C.Mem.get(), C.Mem.get() + C.Size);
  std::sort(FromRanges.begin(), FromRanges.end());

  InCollect = true;
  EvacFailed = false;
  CycleEvacObjects = 0;
  CycleEvacBytes = 0;
  Forwarded.clear();
  Worklist.clear();

  GcVisitor V(*this);
  Roots(V);
  // Old objects stored into since the last collection (none in a major).
  for (Obj *O : Remembered) {
    O->GcFlags &= ~Obj::GcRemembered;
    scanObject(O, V);
  }
  Stats.ObjectsScanned += Remembered.size();
  Remembered.clear();
  while (!Worklist.empty()) {
    Obj *O = Worklist.back();
    Worklist.pop_back();
    ++Stats.ObjectsScanned;
    scanObject(O, V);
  }

  const uint64_t RegionBytes = NurseryBytes;
  if (!EvacFailed) {
    // Destruct the dead region (moved-from shells included — each
    // destructible object runs its destructor exactly once), then free
    // its chunks wholesale.
    for (DtorNode *N = NurseryDtorHead; N;) {
      DtorNode *Next = N->Next;
      N->Destroy(N + 1);
      N = Next;
    }
    NurseryDtorHead = nullptr;
    uint64_t Freed = 0;
    for (const Chunk &C : Nursery)
      Freed += C.Size;
    Stats.BytesReserved -= Freed;
    Stats.ChunksFreed += Nursery.size();
    Nursery.clear();
    Cur = End = nullptr;
    R.BytesReclaimed = RegionBytes - CycleEvacBytes;
    Stats.BytesReclaimed += R.BytesReclaimed;
    NurseryBytes = 0;
    TenuredBytes += CycleEvacBytes;
  } else {
    // Degraded cycle (injected evacuation failure): nothing is freed —
    // every nursery chunk is adopted into the tenured generation, its
    // destructible objects with it. References are already consistent:
    // the forwarding scan completed with in-place promotion.
    for (Chunk &C : Nursery)
      Tenured.push_back(std::move(C));
    Nursery.clear();
    if (NurseryDtorHead) {
      DtorNode *Tail = NurseryDtorHead;
      while (Tail->Next)
        Tail = Tail->Next;
      Tail->Next = TenuredDtorHead;
      TenuredDtorHead = NurseryDtorHead;
      NurseryDtorHead = nullptr;
    }
    Cur = End = nullptr;
    TenuredBytes += RegionBytes + CycleEvacBytes;
    NurseryBytes = 0;
    ++Stats.ReclaimAborts;
    R.Aborted = true;
  }

  ++Stats.Collections;
  if (Major) {
    ++Stats.MajorCollections;
    TenuredBytesAtLastMajor = TenuredBytes;
  }
  Stats.ObjectsEvacuated += CycleEvacObjects;
  Stats.BytesEvacuated += CycleEvacBytes;
  R.ObjectsEvacuated = CycleEvacObjects;
  R.BytesEvacuated = CycleEvacBytes;
  R.Major = Major;

  InCollect = false;
  Forwarded.clear();
  FromRanges.clear();
  return R;
}

uint64_t Heap::numObjects() const {
  uint64_t N = 0;
  for (uint64_t C : Stats.ObjectsByKind)
    N += C;
  return N;
}

void Heap::appendStats(
    std::vector<std::pair<std::string, uint64_t>> &Out) const {
  Out.emplace_back("heap-bytes-allocated", Stats.BytesAllocated);
  Out.emplace_back("heap-bytes-live", bytesLive());
  Out.emplace_back("heap-bytes-nursery", NurseryBytes);
  Out.emplace_back("heap-bytes-tenured", TenuredBytes);
  Out.emplace_back("heap-bytes-reserved", Stats.BytesReserved);
  Out.emplace_back("heap-bytes-reserved-peak", Stats.PeakBytesReserved);
  Out.emplace_back("heap-chunks", Stats.ChunksAcquired);
  Out.emplace_back("heap-chunks-freed", Stats.ChunksFreed);
  Out.emplace_back("heap-oversize-chunks", Stats.OversizeChunks);
  Out.emplace_back("heap-collections", Stats.Collections);
  Out.emplace_back("heap-collections-major", Stats.MajorCollections);
  Out.emplace_back("heap-bytes-reclaimed", Stats.BytesReclaimed);
  Out.emplace_back("heap-objects-evacuated", Stats.ObjectsEvacuated);
  Out.emplace_back("heap-bytes-evacuated", Stats.BytesEvacuated);
  Out.emplace_back("heap-reclaim-aborts", Stats.ReclaimAborts);
  Out.emplace_back("heap-objects-scanned", Stats.ObjectsScanned);
  Out.emplace_back("heap-objects-remembered", Stats.ObjectsRemembered);
  Out.emplace_back("heap-objects", numObjects());
  for (size_t K = 0; K < NumValueKinds; ++K)
    if (Stats.ObjectsByKind[K])
      Out.emplace_back(std::string("heap-objects-") +
                           valueKindName(static_cast<ValueKind>(K)),
                       Stats.ObjectsByKind[K]);
  for (size_t I = 0; I < NumAllocSites; ++I) {
    const AllocSiteStats &SS = Sites[I];
    if (!SS.Objects)
      continue;
    std::string Base =
        std::string("alloc-site-") + allocSiteName(static_cast<AllocSite>(I));
    Out.emplace_back(Base, SS.Objects);
    Out.emplace_back(Base + "-bytes", SS.Bytes);
    if (SS.Survived)
      Out.emplace_back(Base + "-retained", SS.Survived);
  }
}

Value Heap::list(const std::vector<Value> &Elems, AllocSite S) {
  Value Out = Value::nil();
  for (size_t I = Elems.size(); I > 0; --I)
    Out = cons(Elems[I - 1], Out, S);
  return Out;
}

std::vector<Value> pgmp::listToVector(const Value &List) {
  std::vector<Value> Out;
  Value Cur = List;
  while (Cur.isPair()) {
    Out.push_back(Cur.asPair()->Car);
    Cur = Cur.asPair()->Cdr;
  }
  if (!Cur.isNil())
    raiseError("improper list where proper list expected");
  return Out;
}

int64_t pgmp::listLength(const Value &List) {
  int64_t N = 0;
  Value Cur = List;
  while (Cur.isPair()) {
    ++N;
    Cur = Cur.asPair()->Cdr;
  }
  return Cur.isNil() ? N : -1;
}

//===----------------------------------------------------------------------===//
// HashTable
//===----------------------------------------------------------------------===//

uint64_t HashTable::Hasher::operator()(const Value &V) const {
  switch (HK) {
  case HashKind::Eq:
  case HashKind::Eqv:
    return eqHash(V);
  case HashKind::Equal:
    return equalHash(V);
  }
  return 0;
}

bool HashTable::Eq::operator()(const Value &A, const Value &B) const {
  switch (HK) {
  case HashKind::Eq:
    return eqValues(A, B);
  case HashKind::Eqv:
    return eqvValues(A, B);
  case HashKind::Equal:
    return equalValues(A, B);
  }
  return false;
}

HashTable::HashTable(HashKind HK)
    : Obj(ValueKind::Hash), HK(HK),
      Table(8, Hasher{HK}, Eq{HK}) {}

Value HashTable::get(const Value &Key, const Value &Default) const {
  auto It = Table.find(Key);
  return It == Table.end() ? Default : It->second.first;
}

bool HashTable::contains(const Value &Key) const {
  return Table.find(Key) != Table.end();
}

void HashTable::set(const Value &Key, const Value &Val) {
  auto It = Table.find(Key);
  if (It != Table.end()) {
    // Value update: the key set (and so the cached order) is unchanged.
    It->second.first = Val;
    return;
  }
  Table.emplace(Key, std::make_pair(Val, NextInsertIndex++));
  ++Version;
}

bool HashTable::erase(const Value &Key) {
  if (Table.erase(Key) == 0)
    return false;
  ++Version;
  return true;
}

void HashTable::rehashForGc(GcVisitor &V) {
  // Values never choose a bucket, and a key outside from-space keeps its
  // address (forwarding it only schedules a fresh key's scan), so unless
  // some key can move the table is patched in place. This is the common
  // case: fixnum- and symbol-keyed tables, and old tables during a minor.
  bool KeyMoves = false;
  for (const auto &E : Table)
    if (V.inFromSpace(E.first)) {
      KeyMoves = true;
      break;
    }
  if (!KeyMoves) {
    for (auto &E : Table) {
      Value Key = E.first;
      V.value(Key);
      V.value(E.second.first);
    }
    return;
  }
  // Eq/eqv discipline hashes by object identity, so a moved key lands in
  // a different bucket: extract, forward, and re-insert everything.
  // Insertion indices are preserved (key order survives collection); the
  // cached order list holds stale Values and is dropped.
  OrderCache.clear();
  OrderCacheVersion = ~uint64_t(0);
  if (Table.empty())
    return;
  std::vector<std::pair<Value, std::pair<Value, uint64_t>>> Entries(
      Table.begin(), Table.end());
  Table.clear();
  for (auto &E : Entries) {
    V.value(E.first);
    V.value(E.second.first);
  }
  for (auto &E : Entries)
    Table.emplace(E.first, E.second);
}

const std::vector<Value> &HashTable::keysInInsertionOrder() const {
  if (OrderCacheVersion == Version)
    return OrderCache;
  std::vector<std::pair<uint64_t, Value>> Ordered;
  Ordered.reserve(Table.size());
  for (const auto &[K, V] : Table)
    Ordered.push_back({V.second, K});
  std::sort(Ordered.begin(), Ordered.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  OrderCache.clear();
  OrderCache.reserve(Ordered.size());
  for (auto &[Idx, K] : Ordered)
    OrderCache.push_back(K);
  OrderCacheVersion = Version;
  return OrderCache;
}
