/// \file zx_micro.cpp
/// \brief Google-benchmark microbenchmarks of the ZX-calculus engine.
#include "circuits/benchmarks.hpp"
#include "compile/architecture.hpp"
#include "compile/decompose.hpp"
#include "compile/mapper.hpp"
#include "opt/optimizer.hpp"
#include "zx/circuit_to_zx.hpp"
#include "zx/simplify.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace veriqc;

void BM_CircuitToZX(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::randomClifford(n, 20, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zx::circuitToZX(circuit));
  }
}
BENCHMARK(BM_CircuitToZX)->Arg(4)->Arg(8)->Arg(16);

void BM_FullReduceClifford(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::randomClifford(n, 20, 2);
  for (auto _ : state) {
    auto diagram = zx::circuitToZX(circuit);
    benchmark::DoNotOptimize(zx::fullReduce(diagram));
  }
}
BENCHMARK(BM_FullReduceClifford)->Arg(4)->Arg(8)->Arg(16);

void BM_FullReduceCliffordT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::randomCliffordT(n, 20, 0.2, 3);
  for (auto _ : state) {
    auto diagram = zx::circuitToZX(circuit);
    benchmark::DoNotOptimize(zx::fullReduce(diagram));
  }
}
BENCHMARK(BM_FullReduceCliffordT)->Arg(4)->Arg(8)->Arg(16);

void BM_EquivalenceReduction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::randomCliffordT(n, 10, 0.2, 4);
  const auto base = zx::circuitToZX(circuit);
  const auto adjointDiagram = base.adjoint();
  for (auto _ : state) {
    auto composed = base.compose(adjointDiagram);
    benchmark::DoNotOptimize(zx::fullReduce(composed));
  }
}
BENCHMARK(BM_EquivalenceReduction)->Arg(4)->Arg(8)->Arg(12);

void BM_QftReduction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = zx::circuitToZX(circuits::qft(n));
  const auto adjointDiagram = base.adjoint();
  for (auto _ : state) {
    auto composed = base.compose(adjointDiagram);
    benchmark::DoNotOptimize(zx::fullReduce(composed));
  }
}
BENCHMARK(BM_QftReduction)->Arg(4)->Arg(8)->Arg(12);

void BM_GroverReduction(benchmark::State& state) {
  // The heaviest fullReduce workload of the repo's circuit families: Grover
  // composed with its own adjoint. Dominated by the pivot/gadget passes, so
  // it is the headline number for the worklist scheduler.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = zx::circuitToZX(
      compile::decomposeForZX(circuits::grover(n, 2 * n - 2)));
  const auto adjointDiagram = base.adjoint();
  std::size_t rewrites = 0;
  std::size_t sweeps = 0;
  for (auto _ : state) {
    auto composed = base.compose(adjointDiagram);
    zx::Simplifier simplifier(composed);
    benchmark::DoNotOptimize(simplifier.fullReduce());
    rewrites = simplifier.stats().total();
    sweeps = simplifier.stats()
                 .rules[static_cast<std::size_t>(zx::SimplifyRule::Spider)]
                 .candidates;
  }
  state.counters["rewrites"] = static_cast<double>(rewrites);
  state.counters["spider_candidates"] = static_cast<double>(sweeps);
}
BENCHMARK(BM_GroverReduction)->Arg(5)->Arg(6);

/// Reduce zxCheck's diagram for G against G' (aligned, decomposed and
/// composed with the adjoint) once per iteration; `candidates` counts what
/// the scheduler examined for the `rewrites`.
void reduceCheckDiagram(benchmark::State& state, const QuantumCircuit& g,
                        const QuantumCircuit& gPrime) {
  const auto [a, b] = alignCircuits(g, gPrime);
  const auto base =
      zx::circuitToZX(compile::decomposeForZX(a))
          .compose(zx::circuitToZX(compile::decomposeForZX(b)).adjoint());
  std::size_t candidates = 0;
  std::size_t rewrites = 0;
  for (auto _ : state) {
    auto diagram = base;
    zx::Simplifier simplifier(diagram);
    benchmark::DoNotOptimize(simplifier.fullReduce());
    candidates = 0;
    for (const auto& rule : simplifier.stats().rules) {
      candidates += rule.candidates;
    }
    rewrites = simplifier.stats().total();
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["rewrites"] = static_cast<double>(rewrites);
}

void BM_CompiledReduction(benchmark::State& state) {
  // The paper's compiled grover(5,19) cell: G against G' compiled to the
  // 65-qubit heavy hex. Reducing it is most of that cell's t_zx.
  const auto g = circuits::grover(5, 19);
  reduceCheckDiagram(state, g,
                     compile::compileForArchitecture(
                         g, compile::Architecture::ibmManhattanLike()));
}
BENCHMARK(BM_CompiledReduction)->Unit(benchmark::kMillisecond);

void BM_OptimizedReduction(benchmark::State& state) {
  // The paper's optimized urf-like cell: the decomposed circuit against its
  // optimized version. Gadget pivoting takes most of this reduction.
  const auto g = compile::decomposeToCnot(circuits::urfLike(8, 60, 154));
  reduceCheckDiagram(state, g, opt::optimize(g));
}
BENCHMARK(BM_OptimizedReduction)->Unit(benchmark::kMillisecond);

void BM_CliffordReductionLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto circuit = circuits::randomClifford(n, 200, 2);
  std::size_t rewrites = 0;
  for (auto _ : state) {
    auto diagram = zx::circuitToZX(circuit);
    zx::Simplifier simplifier(diagram);
    benchmark::DoNotOptimize(simplifier.fullReduce());
    rewrites = simplifier.stats().total();
  }
  state.counters["rewrites"] = static_cast<double>(rewrites);
}
BENCHMARK(BM_CliffordReductionLarge)->Arg(16);

} // namespace

BENCHMARK_MAIN();
