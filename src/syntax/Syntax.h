//===- syntax/Syntax.h - Syntax objects and hygiene -----------*- C++ -*-===//
///
/// \file
/// Syntax objects: a datum annotated with a source object (the profile
/// point) and a set of scopes for hygiene. Hygiene follows the
/// sets-of-scopes model: binding forms add a scope to binder and body;
/// macro invocation flips a fresh scope on input and output, so
/// macro-introduced identifiers differ from use-site identifiers by
/// exactly that scope. Binding resolution finds, among bindings of the
/// same symbol, the one whose scope set is the largest subset of the
/// reference's scope set.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_SYNTAX_SYNTAX_H
#define PGMP_SYNTAX_SYNTAX_H

#include "syntax/Heap.h"
#include "syntax/SymbolTable.h"
#include "syntax/Value.h"

#include <cstddef>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace pgmp {

struct SourceObject;

using ScopeId = uint32_t;

class ScopeSetTable;

/// An immutable sorted set of scope ids, interned (hash-consed) in a
/// ScopeSetTable: a handle to the table's one copy of its contents, so
/// copying a set copies a pointer and equal sets are the same pointer.
/// The default-constructed set is the empty set and needs no table.
class ScopeSet {
public:
  ScopeSet() = default;

  bool contains(ScopeId S) const;
  bool isSubsetOf(ScopeSet Other) const;
  size_t size() const { return R ? R->Size : 0; }

  /// Equality is identity: both sets must come from the same table.
  friend bool operator==(ScopeSet A, ScopeSet B) { return A.R == B.R; }

  std::string describe() const;

private:
  friend class ScopeSetTable;
  /// The interned contents: Size ids, sorted ascending, no duplicates.
  struct Rep {
    const ScopeId *Ids;
    uint32_t Size;
    uint32_t Hash;
  };
  explicit ScopeSet(const Rep *R) : R(R) {}
  const ScopeId *begin() const { return R ? R->Ids : nullptr; }
  const ScopeId *end() const { return R ? R->Ids + R->Size : nullptr; }

  const Rep *R = nullptr; ///< null is the empty set
};

/// The interning table behind ScopeSet, one per Context (pool workers
/// expand concurrently, each in its own Context). It grows with the
/// distinct sets a session builds, the way BindingTable grows with its
/// binders, and never shrinks: syntax and bindings refer to its sets for
/// the life of the session. Adding or flipping a scope goes through a
/// small direct-mapped memo keyed by (set, scope, op), so a tree walk
/// that meets the same set again costs one probe; being a fixed-size
/// cache, the memo needs no clearing.
class ScopeSetTable {
public:
  ScopeSetTable() = default;
  ScopeSetTable(const ScopeSetTable &) = delete;
  ScopeSetTable &operator=(const ScopeSetTable &) = delete;

  /// \p Set with \p S added (\p Set itself when it already has \p S).
  ScopeSet withScope(ScopeSet Set, ScopeId S) {
    return adjust(Set, S, /*Flip=*/false);
  }
  /// \p Set with \p S removed if present, added if not.
  ScopeSet flipped(ScopeSet Set, ScopeId S) {
    return adjust(Set, S, /*Flip=*/true);
  }

  /// Number of distinct non-empty sets interned so far.
  size_t numSets() const { return NumSets; }

private:
  static constexpr size_t MemoEntries = 1024;
  static constexpr size_t BlockBytes = 16 * 1024;

  struct MemoEntry {
    const ScopeSet::Rep *From = nullptr;
    const ScopeSet::Rep *To = nullptr;
    ScopeId S = 0;
    uint32_t Op = 0; ///< 0 empty, 1 add, 2 flip
  };

  ScopeSet adjust(ScopeSet Set, ScopeId S, bool Flip);
  /// The interned set of the \p Size sorted ids at \p Ids.
  const ScopeSet::Rep *intern(const ScopeId *Ids, uint32_t Size);
  void *allocate(size_t Bytes);
  void growSlots();

  /// Open-addressing index over the interned sets (linear probing,
  /// power-of-two size, at most half full); null marks an empty slot.
  std::vector<const ScopeSet::Rep *> Slots;
  size_t NumSets = 0;
  /// Bump-allocated storage for each Rep and its ids.
  std::vector<std::unique_ptr<std::byte[]>> Blocks;
  std::byte *Cur = nullptr;
  std::byte *Limit = nullptr;
  std::unique_ptr<MemoEntry[]> Memo; ///< allocated on first use
};

/// A datum annotated with scopes and a source object. For compound data
/// the Inner holds a spine of plain pairs whose elements are Syntax
/// values (the reader guarantees this shape).
class Syntax : public Obj {
public:
  Syntax(Value Inner, ScopeSet Scopes, const SourceObject *Src)
      : Obj(ValueKind::Syntax), Inner(Inner), Scopes(Scopes), Src(Src) {}

  Value Inner;
  ScopeSet Scopes;
  const SourceObject *Src; ///< profile point; null for synthetic syntax

  bool isIdentifier() const { return Inner.isSymbol(); }
  Symbol *identifierSymbol() const { return Inner.asSymbol(); }
};

// Scope sets are interned handles, so syntax objects own nothing: the heap
// allocates them without a destructor record (DESIGN.md §6).
static_assert(std::is_trivially_destructible_v<Syntax>,
              "Syntax must stay trivially destructible");

/// Convenience: make a Syntax value.
Value makeSyntax(Heap &H, Value Inner, ScopeSet Scopes,
                 const SourceObject *Src);

/// If \p V is a syntax object returns its inner datum, else \p V itself.
/// One level only (elements of a compound stay wrapped).
Value syntaxE(const Value &V);

/// Recursively strips all syntax wrappers (syntax->datum).
Value syntaxToDatum(Heap &H, const Value &V);

/// Recursively wraps \p Datum using \p CtxId's scopes (datum->syntax).
/// Existing syntax inside \p Datum is left as-is.
Value datumToSyntax(Heap &H, const Syntax &CtxId, const Value &Datum);

/// Adds or flips a scope over an entire syntax tree (rebuilds the tree;
/// input is never mutated). New scope sets are interned in \p Sets.
enum class ScopeOp { Add, Flip };
Value adjustScope(Heap &H, ScopeSetTable &Sets, const Value &V, ScopeId S,
                  ScopeOp Op);

/// Source object of \p V if it is syntax with one, else null.
const SourceObject *syntaxSource(const Value &V);

/// Returns \p V as Syntax* if it is an identifier (syntax whose inner is a
/// symbol), else null.
Syntax *asIdentifier(const Value &V);

//===----------------------------------------------------------------------===//
// Binding table
//===----------------------------------------------------------------------===//

/// Opaque compile-time binding identity; 0 is "unbound".
using BindingLabel = uint32_t;

/// Maps (symbol, scope set) to binding labels, per the sets-of-scopes
/// resolution rule.
class BindingTable {
public:
  /// Records that \p Sym with exactly \p Scopes is bound as \p Label.
  void add(Symbol *Sym, ScopeSet Scopes, BindingLabel Label);

  /// Resolution result.
  struct Resolution {
    BindingLabel Label = 0; ///< 0 if unbound
    bool Ambiguous = false;
  };

  /// Finds the binding of \p Sym whose scope set is the largest subset of
  /// \p RefScopes. Ambiguity (two maximal candidates, neither a superset)
  /// is reported rather than resolved arbitrarily.
  Resolution resolve(Symbol *Sym, ScopeSet RefScopes) const;

  BindingLabel freshLabel() { return NextLabel++; }

private:
  struct Entry {
    ScopeSet Scopes;
    BindingLabel Label;
  };
  std::unordered_map<Symbol *, std::vector<Entry>> Entries;
  BindingLabel NextLabel = 1;
};

/// free-identifier=?: do two identifiers refer to the same binding (or are
/// both unbound with the same name)?
bool freeIdentifierEqual(const BindingTable &BT, Syntax *A, Syntax *B);

/// bound-identifier=?: would one capture the other if it were a binder?
bool boundIdentifierEqual(Syntax *A, Syntax *B);

} // namespace pgmp

#endif // PGMP_SYNTAX_SYNTAX_H
