// Seeded interleaving fuzzer for SimCheck. A FuzzPlan is a small sorted
// list of fault actions (client/server crash-restarts with optional torn
// writes, cached-image corruption, coalescing export bursts) drawn from a
// seed and executed against a fixed two-client workload over seeded flappy
// links. RunPlan drives the deployment to quiescence under an attached
// SimCheck, then layers harness-level end-to-end checks on top (journal
// at-most-once, acknowledged-work durability, log drain, client/server
// convergence).
//
// On failure, ShrinkPlan greedily drops actions while the plan keeps
// failing, and FormatRepro/ParseRepro round-trip the minimized schedule as
// a one-line reproducer:
//
//   SIMCHECK_REPRO seed=7 plan=burst@20000,client2-crash-tear@20052

#ifndef ROVER_SRC_CHECK_FUZZ_H_
#define ROVER_SRC_CHECK_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/simcheck.h"
#include "src/util/result.h"

namespace rover {
namespace check {

enum class FuzzActionKind {
  kClientCrash,    // crash-restart a client (target: 0 = m1, 1 = m2)
  kServerCrash,    // crash-restart the home server
  kCorruptImage,   // damage m2's cached delta base for "doc"
  kBurst,          // m2 fires a run of coalescing invoke+export generations
  // Storage faults against a node's stable device (target: 0 = m1, 1 = m2,
  // 2 = server WAL). Tokens: clientN-disk-err / -disk-full / -disk-free /
  // -disk-rot / -disk-syncfail (server- for target 2).
  kDiskTransient,  // burst of forced write errors (exceeds the retry budget)
  kDiskFull,       // clamp device capacity to current use (ENOSPC)
  kDiskFree,       // lift the capacity clamp again
  kDiskRot,        // flip bits in a durable record (latent interior rot)
  kDiskSyncFail,   // permanent sync failure (node fail-stops)
};

struct FuzzAction {
  FuzzActionKind kind = FuzzActionKind::kBurst;
  uint64_t at_ms = 0;  // simulated-time offset from epoch
  int target = 0;      // client index for kClientCrash; device for disk kinds
  bool tear = false;   // power cut mid-write for the crash kinds
};

struct FuzzPlan {
  uint64_t seed = 0;
  std::vector<FuzzAction> actions;  // sorted by at_ms
};

struct MakePlanOptions {
  // Also draw storage-fault actions (transient write-error bursts, bounded
  // disk-full episodes always paired with a later free, client bit rot,
  // rare permanent sync failures).
  bool disk_faults = false;
};

struct FuzzRunOptions {
  // Re-introduces the PR-4 coalescing bug (eager predecessor-record
  // withdrawal before the successor is durable). Meta-testing only: the
  // checker must catch it and the shrinker must reduce it.
  bool eager_coalesce_bug = false;
  // Injects the ack-after-failed-flush bug on m2: a call whose stable-log
  // flush terminally failed still gets its durability acknowledgement.
  // Meta-testing only, paired with a clientN-disk-err action.
  bool ack_after_failed_flush_bug = false;
};

struct FuzzOutcome {
  bool ok = false;
  std::vector<Violation> violations;  // SimCheck + harness-level checks
  std::string report;                 // human-readable failure summary
};

// Draws a plan from the seed: crash points, corruption, and bursts over a
// ~55s horizon, biased so a burst is often shadowed by a torn client crash
// (the coalescing durability window). With options.disk_faults, seeded
// storage faults are mixed into the same schedule.
FuzzPlan MakePlan(uint64_t seed);
FuzzPlan MakePlan(uint64_t seed, MakePlanOptions options);

// Builds the deployment, runs the workload with `plan`'s faults injected,
// drains, and reports every violation found.
FuzzOutcome RunPlan(const FuzzPlan& plan, FuzzRunOptions options = {});

// Greedy minimization: repeatedly re-runs the plan with one action dropped
// and keeps the drop whenever the plan still fails. Returns the (possibly
// unchanged) minimized plan; the input must already fail.
FuzzPlan ShrinkPlan(const FuzzPlan& plan, FuzzRunOptions options = {});

std::string FormatRepro(const FuzzPlan& plan);
Result<FuzzPlan> ParseRepro(const std::string& line);

// The seed grammar shared by every seeded harness: comma- or space-
// separated values and "a-b" ranges, e.g. "1-48" or "3, 7 9-12".
std::vector<uint64_t> ParseSeedSpec(const std::string& spec);

// The seeds environment variable `var` names, or 1..default_last when it is
// unset or names none.
std::vector<uint64_t> SeedsFromEnv(const char* var, uint64_t default_last);

}  // namespace check
}  // namespace rover

#endif  // ROVER_SRC_CHECK_FUZZ_H_
