//===- syntax/Heap.h - Arena heap objects and allocation ------*- C++ -*-===//
///
/// \file
/// Heap object definitions (pairs, strings, vectors, hash tables,
/// closures, primitives, boxes, environment frames) and the Heap that owns
/// them. The heap is a block-based bump-pointer arena: `make<T>` bumps a
/// pointer inside a fixed-size chunk on the fast path and acquires a new
/// chunk on overflow, so a cons or a closure frame costs pointer
/// arithmetic, not a malloc.
///
/// The arena is generational (DESIGN.md Section 6). Ordinary allocation
/// lands in the *nursery*; at an explicit quiescent point — an Engine run
/// boundary, never inside evaluation — `collect()` evacuates everything
/// reachable from the roots into *tenured* chunks with pointer
/// forwarding, then frees the nursery chunks wholesale. An engine that
/// never calls collect() (the default ReclaimMode::Off) keeps the
/// original contract: addresses stable for the session, everything freed
/// at teardown. Under reclamation the stable-address contract is scoped:
/// pointers survive *within* a run, and across runs only through the
/// traced roots (globals, retained code, the tier cache), which the
/// collector rewrites.
///
/// Generations and the write barrier. Every allocation lands in the
/// nursery and every collection leaves the nursery empty, so a tenured
/// object can point into the nursery only through a store made since the
/// last collection. A minor collection therefore visits the roots, the
/// *remembered* tenured objects (stored into since the last collection)
/// and the nursery survivors; it never descends into the rest of the old
/// generation. Two Obj::GcFlags bits carry this: GcOld (lives in a
/// tenured chunk) and GcRemembered (on the remembered list). A major
/// collection traces everything reachable and drops the list.
///
/// The rule for mutators: call Heap::noteWrite(Obj) before storing a
/// Value into an existing heap object. The barrier sites are set-car!,
/// set-cdr!, set-box!, vector-set!, vector-fill!, hashtable-set!,
/// hashtable-update!, the interpreter's SetLocal and the VM's SetLocal
/// through the frame chain. A store into an object allocated during the
/// current run needs none (it is young), which is why frame construction
/// and the VM's depth-0 SetLocal skip it.
///
/// Every allocation is attributed to an AllocSite (AllocSite.h) at the
/// cost of a couple of indexed adds; the resulting site profile —
/// objects, bytes, survival — is reported (`pgmpi report --alloc`, the
/// alloc-site-* stats rows), not acted on: nursery chunks have one size
/// and survivors share one tenured bump stream.
///
/// Obj carries no vtable: the Kind byte is the only discriminator, and
/// teardown runs through a side list that records just the objects whose
/// type has a non-trivial destructor (strings, vectors, hash tables,
/// syntax, primitives). Bulk destruction is therefore O(destructible
/// objects), and trivially-destructible kinds — pairs, closures, boxes,
/// env frames — are reclaimed by freeing the chunks alone.
///
/// Environment frames store their slots inline after the EnvObj header
/// (single allocation per frame); create them with makeEnv/makeEnvFrom,
/// not make<EnvObj>. Symbols are interned separately (see SymbolTable.h)
/// and syntax objects are defined in Syntax.h; syntax is Heap-allocated,
/// symbols are owned by their table.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_SYNTAX_HEAP_H
#define PGMP_SYNTAX_HEAP_H

#include "syntax/AllocSite.h"
#include "syntax/Value.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pgmp {

class Context;
class GcVisitor;
class LambdaExpr;

/// When the engine reclaims nursery memory. Off preserves the historical
/// contract (stable addresses, teardown-only freeing); Boundary runs a
/// region reclamation at every Engine run boundary (evalString /
/// callGlobal epilogue), which is what `pgmpi serve` uses to hold a
/// million-request replay in bounded memory.
enum class ReclaimMode : uint8_t { Off, Boundary };

/// Base of every heap-allocated Scheme object. Deliberately vtable-free:
/// the Kind tag discriminates, and the owning Heap destroys
/// non-trivially-destructible objects through a typed side list, so the
/// base needs no virtual destructor (and a Pair stays 40 bytes, not 56).
/// GcFlags and Site fill the padding the 8-byte member alignment of
/// every subclass forces anyway, so the header stays 8 bytes.
class Obj {
public:
  /// GcFlags bits (see Heap: "Generations and the write barrier").
  /// The object lives in a tenured chunk.
  static constexpr uint8_t GcOld = 1;
  /// The object is on the heap's remembered list.
  static constexpr uint8_t GcRemembered = 2;

  ValueKind Kind;
  uint8_t GcFlags = 0;
  /// AllocSite the object was allocated at (survival attribution).
  uint16_t Site = 0;
  /// Unused. It keeps the header's last four bytes out of reach of
  /// subclass members: as tail padding, a subclass would pack its first
  /// small field there (HashTable's HK), changing object sizes and so
  /// every byte counter compared across builds.
  uint32_t Spare = 0;

protected:
  explicit Obj(ValueKind K) : Kind(K) {}
  /// Evacuation move-constructs survivors into tenured chunks; the moved
  /// base keeps Kind/Site (the collector resets GcFlags on the copy).
  Obj(Obj &&) = default;
  ~Obj() = default; ///< non-virtual; only the Heap destroys objects

private:
  Obj(const Obj &) = delete;
  Obj &operator=(const Obj &) = delete;
};

/// A cons cell.
class Pair : public Obj {
public:
  Pair(Value Car, Value Cdr) : Obj(ValueKind::Pair), Car(Car), Cdr(Cdr) {}
  Value Car;
  Value Cdr;
};

/// A mutable Scheme string.
class StringObj : public Obj {
public:
  explicit StringObj(std::string S)
      : Obj(ValueKind::String), Text(std::move(S)) {}
  std::string Text;
};

/// A Scheme vector.
class VectorObj : public Obj {
public:
  explicit VectorObj(std::vector<Value> Elems)
      : Obj(ValueKind::Vector), Elems(std::move(Elems)) {}
  std::vector<Value> Elems;
};

/// Equality discipline of a hash table.
enum class HashKind : uint8_t { Eq, Eqv, Equal };

/// A Scheme hashtable (make-eq-hashtable / make-equal-hashtable / ...).
class HashTable : public Obj {
public:
  explicit HashTable(HashKind HK);

  /// Returns the stored value or \p Default.
  Value get(const Value &Key, const Value &Default) const;
  bool contains(const Value &Key) const;
  void set(const Value &Key, const Value &Val);
  bool erase(const Value &Key);
  size_t size() const { return Table.size(); }

  /// Stable key order: insertion order (Scheme hashtable-keys users in the
  /// case studies rely on determinism for reproducible expansion). The
  /// list is cached under a structural version stamp — it is rebuilt only
  /// after an insertion or removal, so meta-programs that walk the keys
  /// inside expansion (the object-system case study does, per method
  /// table) pay the sort once per table shape, not per call. Value
  /// updates of existing keys do not invalidate the cache. The reference
  /// is valid until the next insertion or removal.
  const std::vector<Value> &keysInInsertionOrder() const;

  /// Collector support: forwards every key and value through \p V. When
  /// no key is in from-space, values are forwarded in place and buckets
  /// and order cache stay. Otherwise the table is rebuilt under the new
  /// identities (eq/eqv tables hash by pointer, so a moved key changes
  /// its bucket); insertion indices are preserved and the order cache,
  /// which holds stale Values, is dropped.
  void rehashForGc(GcVisitor &V);

  HashKind HK;

private:
  struct Hasher {
    HashKind HK;
    uint64_t operator()(const Value &V) const;
  };
  struct Eq {
    HashKind HK;
    bool operator()(const Value &A, const Value &B) const;
  };
  /// Maps key -> (value, insertion index).
  std::unordered_map<Value, std::pair<Value, uint64_t>, Hasher, Eq> Table;
  uint64_t NextInsertIndex = 0;
  /// Structural version: bumped on insert/erase, not on value update.
  uint64_t Version = 0;
  mutable uint64_t OrderCacheVersion = ~uint64_t(0);
  mutable std::vector<Value> OrderCache;
};

/// A user procedure: a compiled lambda template plus its captured frame.
class Closure : public Obj {
public:
  Closure(const LambdaExpr *Template, EnvObj *Captured)
      : Obj(ValueKind::Closure), Template(Template), Captured(Captured) {}
  const LambdaExpr *Template;
  EnvObj *Captured;
};

/// Signature of a built-in procedure.
using PrimFn = Value (*)(Context &, Value *Args, size_t NumArgs);

/// Fixnum-specializable primitives the VM call paths recognize. The fast
/// paths must be observationally identical to the registered handler on
/// fixnum inputs (same wrap-on-overflow int64 arithmetic, same
/// compare-as-double semantics), so they are a dispatch shortcut, never a
/// semantic change; anything non-fixnum falls through to the handler.
enum class PrimIntrinsic : uint8_t {
  None,
  Add,   ///< (+ a b)
  Sub,   ///< (- a b)
  Mul,   ///< (* a b)
  NumEq, ///< (= a b)
  Lt,    ///< (< a b)
  Gt,    ///< (> a b)
  Le,    ///< (<= a b)
  Ge,    ///< (>= a b)
  ZeroP  ///< (zero? a)
};

/// A built-in procedure with arity checking metadata.
class Primitive : public Obj {
public:
  Primitive(std::string Name, int MinArgs, int MaxArgs, PrimFn Fn)
      : Obj(ValueKind::Primitive), Name(std::move(Name)), MinArgs(MinArgs),
        MaxArgs(MaxArgs), Fn(Fn) {}
  std::string Name;
  int MinArgs;
  int MaxArgs; ///< -1 for variadic
  PrimFn Fn;
  PrimIntrinsic Intr = PrimIntrinsic::None;
};

/// A single-cell mutable box.
class Box : public Obj {
public:
  explicit Box(Value V) : Obj(ValueKind::Box), Boxed(V) {}
  Value Boxed;
};

/// A runtime environment frame: fixed slots stored inline directly after
/// this header (one arena allocation per frame), parent chain. Variable
/// references are compiled to (depth, index) pairs. Created through
/// Heap::makeEnv / Heap::makeEnvFrom, which size the allocation.
class EnvObj : public Obj {
public:
  EnvObj *Parent;
  uint32_t NumSlots;

  Value *slots() {
    return reinterpret_cast<Value *>(reinterpret_cast<char *>(this) +
                                     sizeof(EnvObj));
  }
  const Value *slots() const {
    return reinterpret_cast<const Value *>(
        reinterpret_cast<const char *>(this) + sizeof(EnvObj));
  }
  Value &slot(size_t I) {
    assert(I < NumSlots && "env slot index out of range");
    return slots()[I];
  }

private:
  friend class Heap;
  EnvObj(EnvObj *Parent, uint32_t NumSlots)
      : Obj(ValueKind::Env), Parent(Parent), NumSlots(NumSlots) {}
};

/// Arena-style owner of all heap objects of one engine: chunked
/// bump-pointer allocation, generational reclamation at explicit
/// quiescent points, bulk teardown. One Heap belongs to one Context and
/// is touched only by the thread evaluating on it (EnginePool workers
/// each own their Heap; nothing is shared).
class Heap {
public:
  /// Geometry of a normal chunk. Larger allocations get a dedicated
  /// oversize chunk of exactly their size.
  static constexpr size_t ChunkBytes = 64 * 1024;

  /// Always-on allocation counters (a handful of adds per allocation;
  /// the observability layer reads them through StatsRegistry and the
  /// Chrome trace). Cumulative counters (BytesAllocated, ObjectsByKind,
  /// ChunksAcquired) only grow; BytesReserved is the *current* footprint
  /// — it shrinks when a collection frees nursery chunks — and
  /// PeakBytesReserved keeps the high-water mark the old reserved
  /// counter used to be.
  struct AllocStats {
    uint64_t BytesAllocated = 0;    ///< cumulative rounded object bytes
    uint64_t BytesReserved = 0;     ///< current sum of owned chunk sizes
    uint64_t PeakBytesReserved = 0; ///< high-water mark of BytesReserved
    uint64_t ChunksAcquired = 0;    ///< normal + oversize chunks, cumulative
    uint64_t OversizeChunks = 0;    ///< dedicated single-allocation chunks
    uint64_t ChunksFreed = 0;       ///< nursery chunks released by collect()
    uint64_t Collections = 0;       ///< region reclamations run
    uint64_t MajorCollections = 0;  ///< full (nursery + tenured) cycles
    uint64_t BytesReclaimed = 0;    ///< dead nursery bytes dropped, cumulative
    uint64_t ObjectsEvacuated = 0;  ///< survivors copied to tenured chunks
    uint64_t BytesEvacuated = 0;    ///< bytes of those survivors
    /// Retired: always 0, read by pgmpbench; the next benchmark change
    /// drops it.
    uint64_t PreTenuredObjects = 0;
    uint64_t ReclaimAborts = 0;     ///< cycles degraded by an evac alloc fail
    uint64_t ObjectsScanned = 0;    ///< worklist pops plus remembered scans
    uint64_t ObjectsRemembered = 0; ///< objects the write barrier listed
    std::array<uint64_t, NumValueKinds> ObjectsByKind{};
  };

  /// Result of one collect() cycle.
  struct ReclaimResult {
    uint64_t BytesReclaimed = 0;
    uint64_t ObjectsEvacuated = 0;
    uint64_t BytesEvacuated = 0;
    bool Major = false;
    /// An allocation failure (injected fault) interrupted evacuation; the
    /// cycle degraded to promoting every nursery chunk wholesale — no
    /// memory reclaimed, but the heap is fully consistent.
    bool Aborted = false;
  };

  /// Hooks for heap kinds whose layout lives outside syntax/ (VmClosure:
  /// the VM registers these from installVm). Relocate placement-news a
  /// copy of \p O into \p Mem (Size bytes); Trace visits its children.
  struct ExternalKindOps {
    size_t Size = 0;
    Obj *(*Relocate)(void *Mem, Obj *O) = nullptr;
    void (*Trace)(Obj *O, GcVisitor &V) = nullptr;
  };

  Heap() = default;
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Allocates and constructs a \p T at allocation site \p S
  /// (AllocSite::Ambient = the site set by the innermost AllocSiteScope).
  /// Fast path: one pointer bump plus the site attribution adds. Types
  /// with a non-trivial destructor are additionally linked into the
  /// generation's destructible side list (one extra 16-byte header in the
  /// same bump allocation), so teardown visits only the objects that need
  /// it.
  template <typename T, typename... Args>
  T *makeAt(AllocSite S, Args &&...ArgList) {
    static_assert(std::is_base_of_v<Obj, T>, "Heap allocates Obj subclasses");
    static_assert(!std::is_same_v<T, EnvObj>,
                  "EnvObj stores slots inline; use makeEnv/makeEnvFrom");
    static_assert(alignof(T) <= Alignment,
                  "arena alignment is 8; over-aligned Obj subclass");
    if (S == AllocSite::Ambient)
      S = CurSite;
    T *O;
    size_t Bytes;
    if constexpr (std::is_trivially_destructible_v<T>) {
      Bytes = roundUp(sizeof(T));
      O = new (allocateRaw(Bytes)) T(std::forward<Args>(ArgList)...);
    } else {
      Bytes = roundUp(sizeof(DtorNode) + sizeof(T));
      auto *N = static_cast<DtorNode *>(allocateRaw(Bytes));
      O = new (N + 1) T(std::forward<Args>(ArgList)...);
      N->Destroy = [](void *P) { static_cast<T *>(P)->~T(); };
      N->Next = NurseryDtorHead;
      NurseryDtorHead = N;
    }
    O->Site = static_cast<uint16_t>(S);
    noteObject(O->Kind, Bytes, S);
    return O;
  }

  /// makeAt under the ambient allocation site.
  template <typename T, typename... Args> T *make(Args &&...ArgList) {
    return makeAt<T>(AllocSite::Ambient, std::forward<Args>(ArgList)...);
  }

  /// A frame of \p NumSlots default-initialized (void) slots.
  EnvObj *makeEnv(EnvObj *Parent, size_t NumSlots,
                  AllocSite S = AllocSite::Ambient) {
    return makeEnvFrom(Parent, NumSlots, nullptr, 0, S);
  }

  /// The frame fast path shared by the interpreter's and the VM's call
  /// sequences: one allocation, the first \p NumArgs slots copied from
  /// \p Args, the rest default-initialized. \p NumArgs <= \p NumSlots.
  EnvObj *makeEnvFrom(EnvObj *Parent, size_t NumSlots, const Value *Args,
                      size_t NumArgs, AllocSite S = AllocSite::Ambient) {
    assert(NumArgs <= NumSlots && "more arguments than frame slots");
    if (S == AllocSite::Ambient)
      S = CurSite;
    size_t Bytes = roundUp(sizeof(EnvObj) + NumSlots * sizeof(Value));
    void *P = allocateRaw(Bytes);
    EnvObj *E = new (P) EnvObj(Parent, static_cast<uint32_t>(NumSlots));
    Value *Slots = E->slots();
    for (size_t I = 0; I < NumArgs; ++I)
      new (Slots + I) Value(Args[I]);
    for (size_t I = NumArgs; I < NumSlots; ++I)
      new (Slots + I) Value();
    E->Site = static_cast<uint16_t>(S);
    noteObject(ValueKind::Env, Bytes, S);
    return E;
  }

  /// The generational write barrier: call before storing a Value into
  /// the existing object \p O. Lists a tenured object once per cycle, so
  /// the next minor collection scans it for nursery pointers. Young
  /// objects need nothing, so only flags of exactly GcOld take the slow
  /// path.
  void noteWrite(Obj *O) {
    if (O->GcFlags == Obj::GcOld) {
      O->GcFlags = Obj::GcOld | Obj::GcRemembered;
      Remembered.push_back(O);
    }
  }

  Value cons(Value Car, Value Cdr, AllocSite S = AllocSite::Ambient) {
    return Value::object(ValueKind::Pair, makeAt<Pair>(S, Car, Cdr));
  }
  Value string(std::string S, AllocSite Site = AllocSite::Ambient) {
    return Value::object(ValueKind::String,
                         makeAt<StringObj>(Site, std::move(S)));
  }
  Value vector(std::vector<Value> Elems, AllocSite S = AllocSite::Ambient) {
    return Value::object(ValueKind::Vector,
                         makeAt<VectorObj>(S, std::move(Elems)));
  }
  Value hashtable(HashKind HK, AllocSite S = AllocSite::Ambient) {
    return Value::object(ValueKind::Hash, makeAt<HashTable>(S, HK));
  }
  Value box(Value V, AllocSite S = AllocSite::Ambient) {
    return Value::object(ValueKind::Box, makeAt<Box>(S, V));
  }

  /// Builds a proper list from \p Elems.
  Value list(const std::vector<Value> &Elems,
             AllocSite S = AllocSite::Ambient);

  //===--------------------------------------------------------------------===//
  // Region reclamation (generational collection at quiescent points)
  //===--------------------------------------------------------------------===//

  /// Enumerates every root the caller retains across the collection; the
  /// collector rewrites each visited Value / pointer to the object's
  /// post-evacuation address.
  using RootEnumerator = std::function<void(GcVisitor &)>;

  /// Evacuates everything reachable from \p Roots out of the nursery into
  /// tenured chunks (pointer forwarding), then frees the nursery chunks.
  /// A minor cycle reaches the nursery through the roots and the
  /// remembered objects only (see the file comment).
  /// Must only run at a quiescent point: no Value or Obj* may live on the
  /// C++ stack except through \p Roots. Escalates to a *major* cycle —
  /// from-space widened to the tenured chunks too, so evacuees that died
  /// since are also dropped — when tenured bytes have doubled since the
  /// last major cycle, or when \p ForceMajor is set.
  ReclaimResult collect(const RootEnumerator &Roots, bool ForceMajor = false);

  /// Registers relocate/trace hooks for a kind defined outside syntax/
  /// (the VM's VmClosure). Must be registered before the first collect()
  /// that can encounter the kind.
  void registerExternalKind(ValueKind K, ExternalKindOps Ops) {
    ExternalKinds[static_cast<size_t>(K)] = Ops;
  }

  /// Caps the arena's reserved bytes (0 = unlimited). Enforced on chunk
  /// acquisition — so the bump fast path never pays for it; a breach
  /// raises GuardTrip(GuardKind::Heap) before any state mutates, leaving
  /// the heap (and its owner Engine) fully usable. The granularity is
  /// therefore one chunk. Evacuation allocations during collect() are
  /// exempt: a collection cycle nets memory back, so failing it on the
  /// cap would be self-defeating.
  void setLimitBytes(uint64_t Bytes) { LimitBytes = Bytes; }
  uint64_t limitBytes() const { return LimitBytes; }

  const AllocStats &allocStats() const { return Stats; }
  uint64_t numObjects() const;
  uint64_t bytesAllocated() const { return Stats.BytesAllocated; }
  uint64_t bytesReserved() const { return Stats.BytesReserved; }
  /// Bytes occupied by objects that survived (or have not yet faced) a
  /// collection: live nursery bytes plus tenured bytes. This is the
  /// "live" figure AllocStats.BytesAllocated (cumulative) is not.
  uint64_t bytesLive() const { return NurseryBytes + TenuredBytes; }
  uint64_t nurseryBytes() const { return NurseryBytes; }
  uint64_t tenuredBytes() const { return TenuredBytes; }

  /// The always-on allocation-site profile (AllocSite.h). Indexed by
  /// AllocSite; merge across EnginePool workers is index-wise and
  /// therefore deterministic in worker order.
  const std::array<AllocSiteStats, NumAllocSites> &siteStats() const {
    return Sites;
  }

  /// Appends the allocation counters as deterministic (name, value) rows;
  /// the Context's StatsRegistry uses this as its extra-stats source so
  /// `pgmpi --stats` and (pgmp-stats) report the heap without the heap
  /// paying a stats-enabled branch per allocation.
  void appendStats(std::vector<std::pair<std::string, uint64_t>> &Out) const;

private:
  friend class AllocSiteScope;
  friend class GcVisitor;

  static constexpr size_t Alignment = 8;

  /// Side-list record preceding a non-trivially-destructible object in
  /// its allocation: [DtorNode][object bytes...].
  struct DtorNode {
    DtorNode *Next;
    void (*Destroy)(void *Object);
  };
  static_assert(sizeof(DtorNode) % Alignment == 0, "node keeps alignment");

  /// One owned chunk; Size is recorded so the collector can build the
  /// from-space address index and the stats can account frees.
  struct Chunk {
    std::unique_ptr<char[]> Mem;
    size_t Size;
  };

  static constexpr size_t roundUp(size_t N) {
    return (N + (Alignment - 1)) & ~(Alignment - 1);
  }

  /// \p Bytes must already be rounded to Alignment.
  void *allocateRaw(size_t Bytes) {
    char *P = Cur;
    if (Bytes > static_cast<size_t>(End - P))
      return allocateSlow(Bytes);
    Cur = P + Bytes;
    return P;
  }

  void *allocateSlow(size_t Bytes);

  /// Collector-side tenured allocation: never raises — an injected fault
  /// returns null and the cycle degrades (see collect()).
  void *allocateForEvac(size_t Bytes);

  /// Appends a chunk for \p Bytes to \p Gen and accounts it. A normal
  /// chunk becomes the generation's bump chunk; an oversize one (exactly
  /// \p Bytes) leaves the bump chunk alone. No guard checks.
  void *acquireChunk(std::vector<Chunk> &Gen, char *&BumpCur, char *&BumpEnd,
                     size_t Bytes);

  void noteObject(ValueKind K, size_t Bytes, AllocSite S) {
    Stats.BytesAllocated += Bytes;
    ++Stats.ObjectsByKind[static_cast<size_t>(K)];
    AllocSiteStats &SS = Sites[static_cast<size_t>(S)];
    ++SS.Objects;
    SS.Bytes += Bytes;
    SS.Kinds |= 1u << static_cast<size_t>(K);
    NurseryBytes += Bytes;
  }

  //===--------------------------------------------------------------------===//
  // Collector internals (Heap.cpp)
  //===--------------------------------------------------------------------===//

  /// Forwards \p O to its post-collection address, evacuating (and
  /// scheduling a scan) on first contact. Null-safe.
  Obj *forwardObj(Obj *O);
  /// Copies \p O into tenured space; null when evacuation is degraded.
  Obj *evacuate(Obj *O);
  template <typename T> Obj *relocateObj(T *Old, bool FirstPromo);
  /// Counts an evacuated copy; a first promotion earns its site's credit.
  Obj *noteEvacuated(Obj *Copy, size_t Bytes, bool FirstPromo);
  /// Rewrites \p O's children through forwardObj.
  void scanObject(Obj *O, GcVisitor &V);
  /// True when \p P points into a from-space chunk this cycle (the
  /// nursery; every chunk during a major collection).
  bool inFromSpace(const void *P) const;

  char *Cur = nullptr; ///< bump pointer into the current nursery chunk
  char *End = nullptr; ///< end of the current nursery chunk
  std::vector<Chunk> Nursery;
  std::vector<Chunk> Tenured;
  char *TenCur = nullptr; ///< bump pointer into the current tenured chunk
  char *TenEnd = nullptr; ///< end of the current tenured chunk
  DtorNode *NurseryDtorHead = nullptr;
  DtorNode *TenuredDtorHead = nullptr;

  AllocStats Stats;
  std::array<AllocSiteStats, NumAllocSites> Sites{};
  uint64_t LimitBytes = 0; ///< reserved-bytes cap; 0 = unlimited

  /// Bytes bump-allocated into the nursery since the last collection /
  /// into tenured chunks and still considered live.
  uint64_t NurseryBytes = 0;
  uint64_t TenuredBytes = 0;
  uint64_t TenuredBytesAtLastMajor = 0;

  /// Tenured objects stored into since the last collection (noteWrite);
  /// each carries GcRemembered while listed.
  std::vector<Obj *> Remembered;

  /// Per-cycle state.
  bool InCollect = false;
  bool EvacFailed = false;
  uint64_t CycleEvacObjects = 0;
  uint64_t CycleEvacBytes = 0;
  std::unordered_map<Obj *, Obj *> Forwarded;
  std::vector<Obj *> Worklist;
  /// Sorted [begin, end) ranges of the from-space chunks this cycle.
  std::vector<std::pair<const char *, const char *>> FromRanges;

  std::array<ExternalKindOps, NumValueKinds> ExternalKinds{};

  /// Ambient allocation site (AllocSiteScope).
  AllocSite CurSite = AllocSite::Unknown;
};

/// RAII ambient allocation site: attributes every allocation in scope
/// that does not pass an explicit site. Two stores each way; fine for
/// phase-level granularity (reader, expander, template instantiation),
/// too coarse for per-object hot paths, which pass sites explicitly.
class AllocSiteScope {
public:
  AllocSiteScope(Heap &H, AllocSite S) : H(H), Saved(H.CurSite) {
    H.CurSite = S;
  }
  ~AllocSiteScope() { H.CurSite = Saved; }
  AllocSiteScope(const AllocSiteScope &) = delete;
  AllocSiteScope &operator=(const AllocSiteScope &) = delete;

private:
  Heap &H;
  AllocSite Saved;
};

/// The collector's hand into retained state: visited Values and typed
/// object pointers are rewritten to their post-evacuation addresses.
/// Passed to Heap::RootEnumerator callbacks and kind tracers; only
/// meaningful during a collect() cycle.
class GcVisitor {
public:
  explicit GcVisitor(Heap &H) : H(H) {}

  /// Forwards a heap Value in place; immediates pass through untouched.
  void value(Value &V) {
    if (static_cast<uint8_t>(V.kind()) <
        static_cast<uint8_t>(ValueKind::Symbol))
      return;
    V.setObjForGc(H.forwardObj(V.obj()));
  }

  /// Forwards a typed object pointer field in place (e.g. EnvObj *&).
  template <typename T> void ptr(T *&P) {
    P = static_cast<T *>(H.forwardObj(P));
  }

  /// True when \p V is a heap object in this cycle's from-space, i.e.
  /// one that forwarding may move.
  bool inFromSpace(const Value &V) const {
    return static_cast<uint8_t>(V.kind()) >=
               static_cast<uint8_t>(ValueKind::Symbol) &&
           H.inFromSpace(V.obj());
  }

private:
  Heap &H;
};

static_assert(sizeof(Obj) == 8, "the object header is 8 bytes");
static_assert(sizeof(Pair) == 40, "a cons cell is the header and two Values");
static_assert(sizeof(EnvObj) % alignof(Value) == 0,
              "inline slots start aligned directly after the EnvObj header");
static_assert(std::is_trivially_destructible_v<Pair> &&
                  std::is_trivially_destructible_v<Closure> &&
                  std::is_trivially_destructible_v<Box> &&
                  std::is_trivially_destructible_v<EnvObj>,
              "hot-path kinds must stay off the destructible side list");

/// Walks a proper list into a vector; raises on improper lists.
std::vector<Value> listToVector(const Value &List);

/// Length of a proper list, or -1 if improper/cyclic-free check fails.
int64_t listLength(const Value &List);

} // namespace pgmp

#endif // PGMP_SYNTAX_HEAP_H
