//===- bench/BenchTieredExec.cpp - Tiered execution speedup ---------------===//
//
// Measures what tier-up buys over the tree-walking interpreter on the
// BenchOverhead numeric kernel, across the three tier modes:
//   off     every apply stays in the interpreter
//   auto    closures tier to bytecode after the invocation threshold
//   always  closures tier on their first apply
// The acceptance bar for the tier pipeline is auto >= 2x off on this
// kernel. The instrumented cases show the same comparison with source
// counters live — tiered code bumps the identical counters, so this is
// the cost of profiling a tiered build, not a different profile.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace pgmp;
using namespace pgmp::bench;

namespace {

// Same kernel as BenchOverhead: a polynomial inside a counted loop.
const char *Kernel =
    "(define (poly x) (+ (* 3 x x) (* -2 x) 7))\n"
    "(define (work n)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i n) acc (loop (+ i 1) (+ acc (poly i))))))\n";

// A second workload with non-tail cross-closure calls: `sum-upto` calls
// `triangle` 20000 times, so both templates heat up and tiered code ends
// up calling tiered code.
const char *CaseStudy =
    "(define (triangle k)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i k) acc (loop (+ i 1) (+ acc i)))))\n"
    "(define (sum-upto n)\n"
    "  (let loop ([i 0] [acc 0])\n"
    "    (if (= i n) acc (loop (+ i 1) (+ acc (triangle 10))))))\n";

TierMode modeOf(int64_t Arg) {
  return Arg == 0 ? TierMode::Off : Arg == 1 ? TierMode::Auto
                                             : TierMode::Always;
}

const char *labelOf(int64_t Arg) {
  return Arg == 0 ? "tier-off" : Arg == 1 ? "tier-auto" : "tier-always";
}

void runKernel(benchmark::State &State, const char *Source,
               const char *EntryPoint, bool Instrument) {
  EngineOptions Opts;
  Opts.Tier.Mode = modeOf(State.range(0));
  Opts.Instrument = Instrument;
  Engine E(Opts);
  requireEval(E, Source, "kernel.scm");
  Value *Fn = E.context().globalCell(E.context().Symbols.intern(EntryPoint));
  {
    // Warm-up crosses the Auto threshold (64), so timed iterations in
    // auto mode measure steady-state tiered execution, not compile cost.
    Value Args[1] = {Value::fixnum(100)};
    for (int I = 0; I < 80; ++I)
      E.context().apply(*Fn, Args, 1);
  }
  for (auto _ : State) {
    Value Args[1] = {Value::fixnum(20000)};
    benchmark::DoNotOptimize(E.context().apply(*Fn, Args, 1));
  }
  State.SetLabel(labelOf(State.range(0)));
  State.SetItemsProcessed(State.iterations() * 20000);
}

void BM_TieredWork(benchmark::State &State) {
  runKernel(State, Kernel, "work", /*Instrument=*/false);
}

void BM_TieredWorkInstrumented(benchmark::State &State) {
  runKernel(State, Kernel, "work", /*Instrument=*/true);
}

void BM_TieredCaseStudy(benchmark::State &State) {
  runKernel(State, CaseStudy, "sum-upto", /*Instrument=*/false);
}

void BM_TieredCaseStudyInstrumented(benchmark::State &State) {
  runKernel(State, CaseStudy, "sum-upto", /*Instrument=*/true);
}

} // namespace

BENCHMARK(BM_TieredWork)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"tier"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TieredWorkInstrumented)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"tier"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TieredCaseStudy)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"tier"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TieredCaseStudyInstrumented)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"tier"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
