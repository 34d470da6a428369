//===- perfbench/src/Metrics.h - Metric names, units and statistics -------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's metric catalogue and the few statistics it reports.
/// The catalogue is the contract with BENCHMARK.json: an untraced run
/// prints exactly endToEndMetrics(), a traced run exactly
/// perLayerMetrics(), each by name with its unit.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_PERFBENCH_METRICS_H
#define STAUB_PERFBENCH_METRICS_H

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string_view Name;
  std::string_view Unit;
};

/// Metrics of an untraced run, in print order.
const std::vector<MetricSpec> &endToEndMetrics();

/// Metrics of a traced run, in print order.
const std::vector<MetricSpec> &perLayerMetrics();

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Samples; 0 when
/// empty.
double percentile(std::vector<double> Samples, double P);

/// The tail percentile a sample count supports.
struct TailChoice {
  double Percentile = 50.0;
  /// Samples strictly above the percentile's rank.
  size_t Beyond = 0;
};

/// The highest percentile of the ladder 50, 75, 90, 99, 99.9 that leaves
/// at least ten samples beyond it; 50 when even that leaves fewer. The
/// ladder is coarse on purpose: a run that completes 100 to 999 queries
/// always reports p90, so run-to-run jitter in the query count does not
/// switch the percentile.
TailChoice tailPercentile(size_t Count);

double median(std::vector<double> Samples);

/// Returns freed heap to the system and resets the process's peak
/// resident set to what it holds now, so that peakRssMb() covers only
/// what follows (input generation, for one, is left out).
void resetPeakRss();

/// Peak resident set size of this process since resetPeakRss(), in MiB.
double peakRssMb();

/// Named metric values of one run, checked against a catalogue.
class MetricSet {
public:
  void set(std::string_view Name, double Value);
  /// Every name of \p Catalogue must be set and no other; returns the
  /// offending names otherwise.
  std::vector<std::string>
  mismatches(const std::vector<MetricSpec> &Catalogue) const;
  /// `"name": {"value": v, "unit": "u"}` pairs in catalogue order, with
  /// all significant digits.
  std::string json(const std::vector<MetricSpec> &Catalogue) const;
  double get(std::string_view Name) const;

private:
  std::map<std::string, double, std::less<>> Values;
};

} // namespace perfbench

#endif // STAUB_PERFBENCH_METRICS_H
