//===- perfbench/src/Metrics.cpp - Metric names, units and statistics -----===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "Metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <set>

using namespace perfbench;

const std::vector<MetricSpec> &perfbench::endToEndMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"query_p50_ms", "ms"},   {"query_tail_ms", "ms"},
      {"throughput_qps", "1/s"}, {"decided_pct", "%"},
      {"peak_rss_mb", "MiB"},   {"setup_s", "s"},
  };
  return Specs;
}

// Times are means over every query of the traced run (0 where a stage did
// not run), so the stage means add up to the mean query time. Counters
// are per query for the same reason: a time-boxed run attempts a varying
// number of queries.
const std::vector<MetricSpec> &perfbench::perLayerMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"server.fallback_pct", "%"},
      {"server.fallback_ms", "ms"},
      {"smtlib.parse_ms", "ms"},
      {"smtlib.input_kb", "KiB"},
      {"analysis.presolve_ms", "ms"},
      {"analysis.presolve_decided_pct", "%"},
      {"analysis.presolve_rounds", "per_query"},
      {"analysis.conjuncts_dropped", "per_query"},
      {"analysis.width_bits_saved", "per_query"},
      {"staub.bounds_ms", "ms"},
      {"staub.translate_ms", "ms"},
      {"staub.guards_emitted", "per_query"},
      {"staub.guards_elided", "per_query"},
      {"staub.guards_elided_relational", "per_query"},
      {"staub.zone_facts", "per_query"},
      {"staub.width_mean", "bits"},
      {"staub.decisive_pct", "%"},
      {"staub.semantic_differences", "per_query"},
      {"staub.escalation_steps", "per_query"},
      {"staub.escalated_sat", "per_query"},
      {"staub.verify_ms", "ms"},
      {"staub.runstaub_ms", "ms"},
      {"staub.runstaub_self_ms", "ms"},
      {"solver.bounded_solve_ms", "ms"},
      {"solver.blast_ms", "ms"},
      {"solver.cdcl_ms", "ms"},
      {"solver.cnf_clauses", "per_query"},
      {"solver.bounded_limit_hits", "per_query"},
      {"solver.crosscache.hits", "per_query"},
      {"solver.crosscache.misses", "per_query"},
      {"solver.crosscache.hit_pct", "%"},
      {"solver.crosscache.evictions", "per_query"},
      {"solver.crosscache.bytes_mb", "MiB"},
      {"solver.crosscache.clauses_reused", "per_query"},
      {"solver.crosscache.net_speedup", "x"},
      {"theory.evaluate_ms", "ms"},
      {"trace.query_ms", "ms"},
      {"trace.query_p50_ms", "ms"},
      {"trace.replay_agree_pct", "%"},
  };
  return Specs;
}

namespace {

/// 1-based nearest rank of percentile \p P among \p Count samples. The
/// epsilon keeps exact products such as 99.9% of 10000 from rounding up.
size_t nearestRank(double P, size_t Count) {
  double Exact = P / 100.0 * static_cast<double>(Count);
  return std::min(static_cast<size_t>(std::ceil(Exact - 1e-9)), Count);
}

} // namespace

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  return Samples[std::max<size_t>(nearestRank(P, Samples.size()), 1) - 1];
}

TailChoice perfbench::tailPercentile(size_t Count) {
  static constexpr double Ladder[] = {99.9, 99.0, 90.0, 75.0, 50.0};
  auto BeyondAt = [Count](double P) { return Count - nearestRank(P, Count); };
  for (double P : Ladder)
    if (BeyondAt(P) >= 10)
      return {P, BeyondAt(P)};
  return {50.0, BeyondAt(50.0)};
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

void perfbench::resetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak resident set (VmHWM) to the current one.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double perfbench::peakRssMb() {
  // Not getrusage: its ru_maxrss also keeps the peak of the image this
  // process replaced at exec (here, the Python launcher).
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB.
  return 0.0;
}

void MetricSet::set(std::string_view Name, double Value) {
  Values[std::string(Name)] = Value;
}

double MetricSet::get(std::string_view Name) const {
  auto Found = Values.find(Name);
  return Found == Values.end() ? 0.0 : Found->second;
}

std::vector<std::string>
MetricSet::mismatches(const std::vector<MetricSpec> &Catalogue) const {
  std::vector<std::string> Bad;
  std::set<std::string_view> Known;
  for (const MetricSpec &Spec : Catalogue) {
    Known.insert(Spec.Name);
    auto Found = Values.find(Spec.Name);
    if (Found == Values.end() || !std::isfinite(Found->second))
      Bad.push_back(std::string(Spec.Name));
  }
  for (const auto &[Name, Value] : Values)
    if (!Known.count(Name))
      Bad.push_back(Name);
  return Bad;
}

std::string MetricSet::json(const std::vector<MetricSpec> &Catalogue) const {
  std::string Out;
  for (const MetricSpec &Spec : Catalogue) {
    char Buffer[160];
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s\"%.*s\": {\"value\": %.17g, \"unit\": \"%.*s\"}",
                  Out.empty() ? "" : ", ", static_cast<int>(Spec.Name.size()),
                  Spec.Name.data(), get(Spec.Name),
                  static_cast<int>(Spec.Unit.size()), Spec.Unit.data());
    Out += Buffer;
  }
  return Out;
}
