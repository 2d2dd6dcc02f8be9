//===- interp/Context.cpp -------------------------------------------------===//

#include "interp/Context.h"

#include "interp/Expr.h"
#include "interp/TierBackend.h"

#include <cstdio>

using namespace pgmp;

Context::Context() {
  // Shard lifecycle self-metrics land in this context's registry (no-ops
  // until stats are enabled).
  Counters.setStats(&Stats);
  // The heap's allocation counters are always on (a few adds per
  // allocation); the registry reads them on demand so (pgmp-stats) and
  // --stats report heap rows without a per-allocation stats branch.
  Stats.setExtraSource(
      [](const void *Source, std::vector<std::pair<std::string, uint64_t>> &Out) {
        static_cast<const Heap *>(Source)->appendStats(Out);
      },
      &TheHeap);
}
Context::~Context() = default;

Value *Context::globalCell(Symbol *Sym) {
  auto It = Globals.find(Sym);
  if (It != Globals.end())
    return &It->second;
  auto [NewIt, Inserted] = Globals.emplace(Sym, Value::unbound());
  (void)Inserted;
  return &NewIt->second;
}

/// Known fixnum-specializable primitives, recognized by name at
/// registration so the individual Prims*.cpp files stay unchanged.
static PrimIntrinsic intrinsicFor(const std::string &Name) {
  if (Name == "+")
    return PrimIntrinsic::Add;
  if (Name == "-")
    return PrimIntrinsic::Sub;
  if (Name == "*")
    return PrimIntrinsic::Mul;
  if (Name == "=")
    return PrimIntrinsic::NumEq;
  if (Name == "<")
    return PrimIntrinsic::Lt;
  if (Name == ">")
    return PrimIntrinsic::Gt;
  if (Name == "<=")
    return PrimIntrinsic::Le;
  if (Name == ">=")
    return PrimIntrinsic::Ge;
  if (Name == "zero?")
    return PrimIntrinsic::ZeroP;
  return PrimIntrinsic::None;
}

void Context::definePrimitive(const std::string &Name, int MinArgs,
                              int MaxArgs, PrimFn Fn) {
  Primitive *P = TheHeap.make<Primitive>(Name, MinArgs, MaxArgs, Fn);
  P->Intr = intrinsicFor(Name);
  defineGlobal(Name, Value::object(ValueKind::Primitive, P));
}

BindingLabel Context::bind(Symbol *Sym, ScopeSet Scopes, ExpBinding Meaning) {
  BindingLabel Label = Bindings.freshLabel();
  Bindings.add(Sym, Scopes, Label);
  Meanings.emplace(Label, std::move(Meaning));
  return Label;
}

const ExpBinding *Context::meaningOf(BindingLabel Label) const {
  auto It = Meanings.find(Label);
  return It == Meanings.end() ? nullptr : &It->second;
}

void Context::adoptCode(std::unique_ptr<CodeUnit> Unit) {
  Code.push_back(std::move(Unit));
}

void Context::traceGcRoots(GcVisitor &V) {
  for (auto &[Sym, Cell] : Globals)
    V.value(Cell);
  V.value(LastResult);
  for (auto &[Label, Meaning] : Meanings)
    V.value(Meaning.Transformer);
  for (auto &Unit : Code)
    Unit->forEachGcRoot(V);
  if (Backend)
    Backend->traceGcRoots(V);
}

bool Context::reclaimAtBoundary(bool ForceMajor) {
  if (Reclaim == ReclaimMode::Off)
    return false;
  ScopedPhase Timer(Stats, &Trace, Phase::Reclaim);
  Heap::ReclaimResult R = TheHeap.collect(
      [this](GcVisitor &V) { traceGcRoots(V); }, ForceMajor);
  Stats.bump(Stat::Reclaims);
  if (R.Aborted)
    Stats.bump(Stat::ReclaimAborts);
  return true;
}

void Context::writeOutput(const std::string &S) {
  Output += S;
  if (EchoStdout)
    std::fwrite(S.data(), 1, S.size(), stdout);
}
