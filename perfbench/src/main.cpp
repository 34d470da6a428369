//===- perfbench/src/main.cpp - The benchmark driver ----------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Builds the workload's queries from the seed, runs them for S seconds
/// (untraced: end-to-end metrics; traced: per-layer metrics), prints
/// notes and one `name = value unit` line per metric, and as the last
/// line one JSON object {correct, attempted, failed, metrics}. Exits 1
/// when any answer fails the correctness gate (the mismatching queries
/// are named on stderr), 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Runner.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Message) {
  std::fprintf(stderr, "perfbench: %s\n", Message);
  std::string Names;
  for (std::string_view Name : workloadNames())
    Names += (Names.empty() ? "" : "|") + std::string(Name);
  std::fprintf(stderr,
               "usage: perfbench --workload %s --seed N --seconds S "
               "--trace 0|1\n",
               Names.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  uint64_t Seed = 1;
  double Seconds = 0.0;
  bool Trace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    char *End = nullptr;
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      Name = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value, &End, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value, &End);
    else if (Flag == "--trace")
      Trace = std::strtol(Value, &End, 10) != 0;
    else
      return usage(("unknown flag " + Flag).c_str());
    if (End && (*End != '\0' || End == Value))
      return usage(("bad value for " + Flag).c_str());
  }
  if (!(Seconds > 0))
    return usage("--seconds is required and must be positive");
  std::optional<Workload> W = makeWorkload(Name, Seed);
  if (!W)
    return usage(("unknown workload '" + Name + "'").c_str());

  RunReport R = runWorkload(*W, Seconds, Trace);
  const std::vector<MetricSpec> &Catalogue =
      Trace ? perLayerMetrics() : endToEndMetrics();
  std::vector<std::string> Missing = R.Metrics.mismatches(Catalogue);
  for (const std::string &Bad : Missing)
    std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                 Bad.c_str());

  std::printf("seed %llu, %s run\n", static_cast<unsigned long long>(Seed),
              Trace ? "traced" : "untraced");
  for (const std::string &Note : R.Notes)
    std::printf("%s\n", Note.c_str());
  for (const MetricSpec &Spec : Catalogue)
    std::printf("%-36.*s = %.6g %.*s\n", static_cast<int>(Spec.Name.size()),
                Spec.Name.data(), R.Metrics.get(Spec.Name),
                static_cast<int>(Spec.Unit.size()), Spec.Unit.data());
  for (const std::string &Wrong : R.Mismatches)
    std::fprintf(stderr, "WRONG VERDICT %s\n", Wrong.c_str());

  bool Correct = R.correct() && Missing.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Metrics.json(Catalogue).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
