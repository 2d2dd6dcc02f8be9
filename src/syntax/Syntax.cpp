//===- syntax/Syntax.cpp --------------------------------------------------===//

#include "syntax/Syntax.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <iterator>
#include <new>

using namespace pgmp;

//===----------------------------------------------------------------------===//
// ScopeSet
//===----------------------------------------------------------------------===//

bool ScopeSet::contains(ScopeId S) const {
  return std::binary_search(begin(), end(), S);
}

bool ScopeSet::isSubsetOf(ScopeSet Other) const {
  if (R == Other.R || !R)
    return true;
  return size() <= Other.size() &&
         std::includes(Other.begin(), Other.end(), begin(), end());
}

std::string ScopeSet::describe() const {
  std::string Out = "{";
  for (const ScopeId *I = begin(); I != end(); ++I) {
    if (I != begin())
      Out += ",";
    Out += std::to_string(*I);
  }
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// ScopeSetTable
//===----------------------------------------------------------------------===//

namespace {

uint32_t hashIds(const ScopeId *Ids, uint32_t Size) {
  uint64_t H = 0xCBF29CE484222325ull ^ Size;
  for (uint32_t I = 0; I < Size; ++I)
    H = (H ^ Ids[I]) * 0x100000001B3ull;
  return static_cast<uint32_t>(H ^ (H >> 32));
}

} // namespace

ScopeSet ScopeSetTable::adjust(ScopeSet Set, ScopeId S, bool Flip) {
  uint32_t Op = Flip ? 2 : 1;
  if (!Memo)
    Memo = std::make_unique<MemoEntry[]>(MemoEntries);
  size_t Slot = ((reinterpret_cast<uintptr_t>(Set.R) >> 4) ^
                 (static_cast<size_t>(S) * 0x9E3779B1u) ^ Op) &
                (MemoEntries - 1);
  MemoEntry &M = Memo[Slot];
  if (M.Op == Op && M.From == Set.R && M.S == S)
    return ScopeSet(M.To);

  const ScopeId *It = std::lower_bound(Set.begin(), Set.end(), S);
  bool Has = It != Set.end() && *It == S;
  const ScopeSet::Rep *Out = Set.R;
  if (Flip || !Has) {
    // The new contents, built on the stack unless the set is unusually
    // large: Set's ids with S removed (Has) or inserted in order.
    size_t N = Set.size();
    size_t Before = static_cast<size_t>(It - Set.begin());
    ScopeId Stack[32];
    std::unique_ptr<ScopeId[]> Big;
    ScopeId *Buf = Stack;
    if (N + 1 > std::size(Stack)) {
      Big = std::make_unique<ScopeId[]>(N + 1);
      Buf = Big.get();
    }
    std::copy(Set.begin(), It, Buf);
    size_t Size;
    if (Has) {
      std::copy(It + 1, Set.end(), Buf + Before);
      Size = N - 1;
    } else {
      Buf[Before] = S;
      std::copy(It, Set.end(), Buf + Before + 1);
      Size = N + 1;
    }
    Out = intern(Buf, static_cast<uint32_t>(Size));
  }
  M = MemoEntry{Set.R, Out, S, Op};
  return ScopeSet(Out);
}

const ScopeSet::Rep *ScopeSetTable::intern(const ScopeId *Ids,
                                           uint32_t Size) {
  if (Size == 0)
    return nullptr;
  uint32_t Hash = hashIds(Ids, Size);
  if ((NumSets + 1) * 2 > Slots.size())
    growSlots();
  size_t Mask = Slots.size() - 1;
  size_t I = Hash & Mask;
  for (; Slots[I]; I = (I + 1) & Mask) {
    const ScopeSet::Rep *R = Slots[I];
    if (R->Hash == Hash && R->Size == Size &&
        std::equal(Ids, Ids + Size, R->Ids))
      return R;
  }
  void *Mem = allocate(sizeof(ScopeSet::Rep) + Size * sizeof(ScopeId));
  auto *Copy = reinterpret_cast<ScopeId *>(static_cast<std::byte *>(Mem) +
                                           sizeof(ScopeSet::Rep));
  std::copy(Ids, Ids + Size, Copy);
  const ScopeSet::Rep *R = new (Mem) ScopeSet::Rep{Copy, Size, Hash};
  Slots[I] = R;
  ++NumSets;
  return R;
}

void *ScopeSetTable::allocate(size_t Bytes) {
  Bytes = (Bytes + alignof(ScopeSet::Rep) - 1) & ~(alignof(ScopeSet::Rep) - 1);
  if (static_cast<size_t>(Limit - Cur) < Bytes) {
    size_t BlockSize = std::max(BlockBytes, Bytes);
    Blocks.push_back(std::make_unique<std::byte[]>(BlockSize));
    Cur = Blocks.back().get();
    Limit = Cur + BlockSize;
  }
  void *Out = Cur;
  Cur += Bytes;
  return Out;
}

void ScopeSetTable::growSlots() {
  std::vector<const ScopeSet::Rep *> Old(Slots.empty() ? 256
                                                       : Slots.size() * 2);
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (const ScopeSet::Rep *R : Old) {
    if (!R)
      continue;
    size_t I = R->Hash & Mask;
    while (Slots[I])
      I = (I + 1) & Mask;
    Slots[I] = R;
  }
}

//===----------------------------------------------------------------------===//
// Syntax helpers
//===----------------------------------------------------------------------===//

Value pgmp::makeSyntax(Heap &H, Value Inner, ScopeSet Scopes,
                       const SourceObject *Src) {
  return Value::object(ValueKind::Syntax, H.make<Syntax>(Inner, Scopes, Src));
}

Value pgmp::syntaxE(const Value &V) {
  return V.isSyntax() ? V.asSyntax()->Inner : V;
}

Value pgmp::syntaxToDatum(Heap &H, const Value &V) {
  Value Inner = syntaxE(V);
  switch (Inner.kind()) {
  case ValueKind::Pair:
    return H.cons(syntaxToDatum(H, Inner.asPair()->Car),
                  syntaxToDatum(H, Inner.asPair()->Cdr),
                  AllocSite::DatumConversion);
  case ValueKind::Vector: {
    std::vector<Value> Elems;
    Elems.reserve(Inner.asVector()->Elems.size());
    for (const Value &E : Inner.asVector()->Elems)
      Elems.push_back(syntaxToDatum(H, E));
    return H.vector(std::move(Elems), AllocSite::DatumConversion);
  }
  default:
    return Inner;
  }
}

Value pgmp::datumToSyntax(Heap &H, const Syntax &CtxId, const Value &Datum) {
  if (Datum.isSyntax())
    return Datum;
  switch (Datum.kind()) {
  case ValueKind::Pair: {
    // Wrap elements; keep the list spine as plain pairs (the shape the
    // reader produces). An improper tail becomes a wrapped atom.
    Value Car = datumToSyntax(H, CtxId, Datum.asPair()->Car);
    Value CdrIn = Datum.asPair()->Cdr;
    Value Cdr;
    if (CdrIn.isPair())
      Cdr = syntaxE(datumToSyntax(H, CtxId, CdrIn));
    else if (CdrIn.isNil())
      Cdr = Value::nil();
    else
      Cdr = datumToSyntax(H, CtxId, CdrIn);
    return makeSyntax(H, H.cons(Car, Cdr), CtxId.Scopes, CtxId.Src);
  }
  case ValueKind::Vector: {
    std::vector<Value> Elems;
    Elems.reserve(Datum.asVector()->Elems.size());
    for (const Value &E : Datum.asVector()->Elems)
      Elems.push_back(datumToSyntax(H, CtxId, E));
    return makeSyntax(H, H.vector(std::move(Elems)), CtxId.Scopes, CtxId.Src);
  }
  default:
    return makeSyntax(H, Datum, CtxId.Scopes, CtxId.Src);
  }
}

Value pgmp::adjustScope(Heap &H, ScopeSetTable &Sets, const Value &V,
                        ScopeId S, ScopeOp Op) {
  switch (V.kind()) {
  case ValueKind::Syntax: {
    Syntax *Stx = V.asSyntax();
    ScopeSet NewScopes = Op == ScopeOp::Add ? Sets.withScope(Stx->Scopes, S)
                                            : Sets.flipped(Stx->Scopes, S);
    Value NewInner = adjustScope(H, Sets, Stx->Inner, S, Op);
    return makeSyntax(H, NewInner, NewScopes, Stx->Src);
  }
  case ValueKind::Pair:
    return H.cons(adjustScope(H, Sets, V.asPair()->Car, S, Op),
                  adjustScope(H, Sets, V.asPair()->Cdr, S, Op));
  case ValueKind::Vector: {
    std::vector<Value> Elems;
    Elems.reserve(V.asVector()->Elems.size());
    for (const Value &E : V.asVector()->Elems)
      Elems.push_back(adjustScope(H, Sets, E, S, Op));
    return H.vector(std::move(Elems));
  }
  default:
    return V;
  }
}

const SourceObject *pgmp::syntaxSource(const Value &V) {
  return V.isSyntax() ? V.asSyntax()->Src : nullptr;
}

Syntax *pgmp::asIdentifier(const Value &V) {
  if (!V.isSyntax())
    return nullptr;
  Syntax *Stx = V.asSyntax();
  return Stx->isIdentifier() ? Stx : nullptr;
}

//===----------------------------------------------------------------------===//
// BindingTable
//===----------------------------------------------------------------------===//

void BindingTable::add(Symbol *Sym, ScopeSet Scopes, BindingLabel Label) {
  Entries[Sym].push_back(Entry{Scopes, Label});
}

BindingTable::Resolution BindingTable::resolve(Symbol *Sym,
                                               ScopeSet RefScopes) const {
  Resolution R;
  auto It = Entries.find(Sym);
  if (It == Entries.end())
    return R;
  const Entry *Best = nullptr;
  for (const Entry &E : It->second) {
    if (!E.Scopes.isSubsetOf(RefScopes))
      continue;
    if (!Best || E.Scopes.size() > Best->Scopes.size()) {
      Best = &E;
      R.Ambiguous = false;
    } else if (E.Scopes.size() == Best->Scopes.size() &&
               !(E.Scopes == Best->Scopes)) {
      R.Ambiguous = true;
    }
  }
  if (Best)
    R.Label = Best->Label;
  return R;
}

bool pgmp::freeIdentifierEqual(const BindingTable &BT, Syntax *A, Syntax *B) {
  assert(A->isIdentifier() && B->isIdentifier() &&
         "free-identifier=? needs identifiers");
  auto RA = BT.resolve(A->identifierSymbol(), A->Scopes);
  auto RB = BT.resolve(B->identifierSymbol(), B->Scopes);
  if (RA.Label != 0 || RB.Label != 0)
    return RA.Label == RB.Label;
  // Both unbound: compare by name (they would denote the same global).
  return A->identifierSymbol() == B->identifierSymbol();
}

bool pgmp::boundIdentifierEqual(Syntax *A, Syntax *B) {
  assert(A->isIdentifier() && B->isIdentifier() &&
         "bound-identifier=? needs identifiers");
  return A->identifierSymbol() == B->identifierSymbol() &&
         A->Scopes == B->Scopes;
}
