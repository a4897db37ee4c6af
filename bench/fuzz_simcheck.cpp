// SimCheck schedule fuzzer driver. Runs the seeded interleaving fuzzer
// over a seed corpus, and on the first failure prints the full violation
// report plus a minimized one-line reproducer, then exits nonzero.
//
// Usage:
//   fuzz_simcheck [seed...]            run the given seeds
//   fuzz_simcheck --repro '<line>'     replay a SIMCHECK_REPRO line
//   fuzz_simcheck --disk-faults [...]  mix storage faults into each plan
//   ROVER_SIMCHECK_SEEDS="1-64" fuzz_simcheck
//                                      seed ranges/lists via environment
//   ROVER_SIMCHECK_DISK_FAULTS=1       same as --disk-faults
// With no seeds given, runs the default corpus 1..24.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/check/fuzz.h"

namespace {

int ReplayRepro(const std::string& line) {
  auto plan = rover::check::ParseRepro(line);
  if (!plan.ok()) {
    std::fprintf(stderr, "bad repro line: %s\n", plan.status().message().c_str());
    return 2;
  }
  rover::check::FuzzOutcome outcome = rover::check::RunPlan(*plan);
  if (outcome.ok) {
    std::printf("repro passed (seed %llu, %zu actions)\n",
                static_cast<unsigned long long>(plan->seed), plan->actions.size());
    return 0;
  }
  std::printf("%s", outcome.report.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--repro") == 0) {
    return ReplayRepro(argv[2]);
  }

  rover::check::FuzzRunOptions run_options;
  rover::check::MakePlanOptions plan_options;
  std::vector<uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--eager-bug") == 0) {
      // Re-introduce the known coalescing bug (checker self-test).
      run_options.eager_coalesce_bug = true;
      continue;
    }
    if (std::strcmp(argv[i], "--disk-faults") == 0) {
      plan_options.disk_faults = true;
      continue;
    }
    for (uint64_t s : rover::check::ParseSeedSpec(argv[i])) {
      seeds.push_back(s);
    }
  }
  if (const char* env = std::getenv("ROVER_SIMCHECK_DISK_FAULTS")) {
    if (env[0] != '\0' && std::strcmp(env, "0") != 0) {
      plan_options.disk_faults = true;
    }
  }
  if (seeds.empty()) {
    seeds = rover::check::SeedsFromEnv("ROVER_SIMCHECK_SEEDS", 24);
  }

  for (uint64_t seed : seeds) {
    rover::check::FuzzPlan plan = rover::check::MakePlan(seed, plan_options);
    rover::check::FuzzOutcome outcome = rover::check::RunPlan(plan, run_options);
    if (outcome.ok) {
      std::printf("seed %-6llu ok    (%zu actions)\n",
                  static_cast<unsigned long long>(seed), plan.actions.size());
      continue;
    }
    std::printf("seed %-6llu FAIL\n%s", static_cast<unsigned long long>(seed),
                outcome.report.c_str());
    std::printf("shrinking...\n");
    rover::check::FuzzPlan shrunk = rover::check::ShrinkPlan(plan, run_options);
    rover::check::FuzzOutcome minimized = rover::check::RunPlan(shrunk, run_options);
    std::printf("%s\n", rover::check::FormatRepro(shrunk).c_str());
    if (!minimized.report.empty()) {
      std::printf("%s", minimized.report.c_str());
    }
    return 1;
  }
  std::printf("all %zu seeds clean\n", seeds.size());
  return 0;
}
