//===- perfbench/src/Workloads.h - The benchmark's query streams -----*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The named workloads. Each is a stream of SMT-LIB queries rendered
/// from the benchgen generators at a seed, before anything is timed, plus
/// how staub serves them: per-query limit and cross-query cache budget.
/// The program under test only ever sees the rendered text.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_PERFBENCH_WORKLOADS_H
#define STAUB_PERFBENCH_WORKLOADS_H

#include "solver/Solver.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Query {
  std::string Name;
  std::string Text;
  /// The generator's planted verdict; nullopt for open instances.
  std::optional<staub::SolveStatus> Expected;
};

struct Workload {
  std::string Name;
  std::vector<Query> Stream; ///< Sent in order, wrapping around.
  double LimitSeconds = 5.0; ///< Per-query limit (STAUB lane and fallback).
  /// Whether every query shares one SharedSolveCaches at staubd's
  /// default budget (the staubd path); otherwise each query starts cold
  /// (the staub CLI path).
  bool Cached = false;
  /// One-line description of the stream's shape and size.
  std::string Shape;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string_view> &workloadNames();

/// Builds workload \p Name at \p Seed; nullopt for an unknown name.
std::optional<Workload> makeWorkload(std::string_view Name, uint64_t Seed);

} // namespace perfbench

#endif // STAUB_PERFBENCH_WORKLOADS_H
