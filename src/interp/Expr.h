//===- interp/Expr.h - Core-form IR ---------------------------*- C++ -*-===//
///
/// \file
/// The compiled representation of expanded core forms. Each node may
/// carry a profile point (its source object) and, when the unit was
/// compiled with instrumentation, a live counter pointer — incremented on
/// every evaluation of the node. Uninstrumented compiles leave Counter
/// null and the evaluator skips the bump entirely, which is how "profile
/// points need not introduce any overhead" (paper Section 3.1) holds.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_INTERP_EXPR_H
#define PGMP_INTERP_EXPR_H

#include "syntax/SymbolTable.h"
#include "syntax/Value.h"

#include <memory>
#include <string>
#include <vector>

namespace pgmp {

class GcVisitor;
struct SourceObject;
struct Pattern;
struct Template;
class VmFunction;

/// Node kinds of the core IR.
enum class ExprKind : uint8_t {
  Const,
  LocalRef,
  GlobalRef,
  If,
  Lambda,
  Begin,
  SetLocal,
  SetGlobal,
  DefineGlobal,
  Call,
  SyntaxCase,
  Template,
};

/// Base class; concrete nodes below. Allocation and ownership are handled
/// by CodeUnit; nodes are immutable after compilation.
class Expr {
public:
  virtual ~Expr() = default;

  ExprKind K;
  const SourceObject *Src = nullptr;
  uint64_t *Counter = nullptr; ///< non-null only in instrumented units

protected:
  explicit Expr(ExprKind K) : K(K) {}
};

class ConstExpr : public Expr {
public:
  explicit ConstExpr(Value V) : Expr(ExprKind::Const), V(V) {}
  Value V;
};

class LocalRefExpr : public Expr {
public:
  LocalRefExpr(uint32_t Depth, uint32_t Index, Symbol *Name)
      : Expr(ExprKind::LocalRef), Depth(Depth), Index(Index), Name(Name) {}
  uint32_t Depth;
  uint32_t Index;
  Symbol *Name; ///< for diagnostics only
};

class GlobalRefExpr : public Expr {
public:
  GlobalRefExpr(Value *Cell, Symbol *Name)
      : Expr(ExprKind::GlobalRef), Cell(Cell), Name(Name) {}
  Value *Cell;
  Symbol *Name;
};

class IfExpr : public Expr {
public:
  IfExpr(Expr *Test, Expr *Then, Expr *Else)
      : Expr(ExprKind::If), Test(Test), Then(Then), Else(Else) {}
  Expr *Test;
  Expr *Then;
  Expr *Else; ///< never null (void constant when absent)
};

class LambdaExpr : public Expr {
public:
  LambdaExpr() : Expr(ExprKind::Lambda) {}
  std::vector<Symbol *> Params; ///< fixed parameters (renamed symbols)
  bool HasRest = false;         ///< extra slot collecting rest args
  Expr *Body = nullptr;
  std::string Name; ///< procedure name for diagnostics

  /// Tiered execution state, shared by every closure over this template.
  /// Mutable because tier-up is runtime bookkeeping on otherwise-immutable
  /// IR; an Engine is single-threaded, so plain fields suffice.
  mutable const VmFunction *Tiered = nullptr; ///< bytecode body once hot
  mutable uint32_t TierInvokes = 0; ///< applies observed pre-tier (Auto)
  mutable bool TierHot = false;     ///< pre-marked hot by a loaded profile
  mutable bool TierBlocked = false; ///< VM compile failed (phase-1 nodes)

  size_t numSlots() const { return Params.size() + (HasRest ? 1 : 0); }
};

class BeginExpr : public Expr {
public:
  explicit BeginExpr(std::vector<Expr *> Body)
      : Expr(ExprKind::Begin), Body(std::move(Body)) {}
  std::vector<Expr *> Body; ///< nonempty
};

class SetLocalExpr : public Expr {
public:
  SetLocalExpr(uint32_t Depth, uint32_t Index, Expr *Val, Symbol *Name)
      : Expr(ExprKind::SetLocal), Depth(Depth), Index(Index), Val(Val),
        Name(Name) {}
  uint32_t Depth;
  uint32_t Index;
  Expr *Val;
  Symbol *Name;
};

class SetGlobalExpr : public Expr {
public:
  SetGlobalExpr(Value *Cell, Expr *Val, Symbol *Name)
      : Expr(ExprKind::SetGlobal), Cell(Cell), Val(Val), Name(Name) {}
  Value *Cell;
  Expr *Val;
  Symbol *Name;
};

class DefineGlobalExpr : public Expr {
public:
  DefineGlobalExpr(Value *Cell, Expr *Val, Symbol *Name)
      : Expr(ExprKind::DefineGlobal), Cell(Cell), Val(Val), Name(Name) {}
  Value *Cell;
  Expr *Val;
  Symbol *Name;
};

class CallExpr : public Expr {
public:
  CallExpr(Expr *Fn, std::vector<Expr *> Args, bool Tail)
      : Expr(ExprKind::Call), Fn(Fn), Args(std::move(Args)), Tail(Tail) {}
  Expr *Fn;
  std::vector<Expr *> Args;
  bool Tail; ///< in tail position of the enclosing lambda body
};

/// One syntax-case clause: pattern, optional fender, body. Matched
/// pattern variables are bound in a fresh frame of NumVars slots.
struct SyntaxCaseClause {
  Pattern *Pat = nullptr;
  uint32_t NumVars = 0;
  Expr *Fender = nullptr; ///< may be null
  Expr *Body = nullptr;
};

class SyntaxCaseExpr : public Expr {
public:
  SyntaxCaseExpr(Expr *Scrutinee, std::vector<SyntaxCaseClause> Clauses)
      : Expr(ExprKind::SyntaxCase), Scrutinee(Scrutinee),
        Clauses(std::move(Clauses)) {}
  Expr *Scrutinee;
  std::vector<SyntaxCaseClause> Clauses;
};

class TemplateExpr : public Expr {
public:
  explicit TemplateExpr(Template *Tpl) : Expr(ExprKind::Template), Tpl(Tpl) {}
  Template *Tpl;
};

/// Owns the nodes (and patterns/templates) of one compiled top-level
/// form. Kept alive for the whole session because closures point into it;
/// the exception is a selfContained() unit under boundary reclamation,
/// which the engine drops once its run finishes.
class CodeUnit {
public:
  CodeUnit();
  ~CodeUnit();
  CodeUnit(const CodeUnit &) = delete;
  CodeUnit &operator=(const CodeUnit &) = delete;

  template <typename T, typename... Args> T *make(Args &&...ArgList) {
    auto Owned = std::make_unique<T>(std::forward<Args>(ArgList)...);
    T *Raw = Owned.get();
    Exprs.push_back(std::move(Owned));
    return Raw;
  }

  Pattern *adoptPattern(std::unique_ptr<Pattern> P);
  Template *adoptTemplate(std::unique_ptr<Template> T);

  /// Heap values embedded as constants stay reachable via this pool,
  /// which the collector treats as a root set (forEachGcRoot).
  std::vector<Value> ConstantPool;

  /// Visits every heap Value this unit retains — the constant pool plus
  /// the Values embedded directly in nodes (ConstExpr), patterns
  /// (literal/datum), and templates (const/original syntax) — so a region
  /// reclamation can forward them. Flat walks over the ownership vectors;
  /// no recursion.
  void forEachGcRoot(GcVisitor &V);

  /// True when nothing can point into this unit after its run finishes:
  /// no lambdas (closures hold LambdaExpr pointers) and no syntax-rules
  /// patterns or templates (transformer meanings hold those). Such units
  /// are request-shaped, and a run-boundary reclamation may drop them
  /// instead of keeping them for the session.
  bool selfContained() const {
    return !HasLambdas && Patterns.empty() && Templates.empty();
  }

  /// Set when a lambda is compiled into this unit.
  bool HasLambdas = false;

  Expr *Root = nullptr;

private:
  std::vector<std::unique_ptr<Expr>> Exprs;
  std::vector<std::unique_ptr<Pattern>> Patterns;
  std::vector<std::unique_ptr<Template>> Templates;
};

} // namespace pgmp

#endif // PGMP_INTERP_EXPR_H
