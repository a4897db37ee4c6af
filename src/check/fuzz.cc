#include "src/check/fuzz.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>

#include "src/core/fault_plan.h"
#include "src/tclite/value.h"
#include "src/util/rng.h"

namespace rover {
namespace check {
namespace {

constexpr char kJournalCode[] = R"(
proc get {} { global state; return $state }
proc add {t} { global state; lappend state $t; return $state }
)";

constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";

constexpr uint64_t kHorizonMs = 60'000;

// Every repro token and the action fields it stands for. Kinds without a
// target or a torn-write flag leave those fields at their defaults.
struct KindTokenEntry {
  const char* token;
  FuzzActionKind kind;
  int target;
  bool tear;
};

constexpr KindTokenEntry kKindTokens[] = {
    {"client1-crash", FuzzActionKind::kClientCrash, 0, false},
    {"client1-crash-tear", FuzzActionKind::kClientCrash, 0, true},
    {"client2-crash", FuzzActionKind::kClientCrash, 1, false},
    {"client2-crash-tear", FuzzActionKind::kClientCrash, 1, true},
    {"server-crash", FuzzActionKind::kServerCrash, 0, false},
    {"server-crash-tear", FuzzActionKind::kServerCrash, 0, true},
    {"corrupt-image", FuzzActionKind::kCorruptImage, 0, false},
    {"burst", FuzzActionKind::kBurst, 0, false},
    {"client1-disk-err", FuzzActionKind::kDiskTransient, 0, false},
    {"client2-disk-err", FuzzActionKind::kDiskTransient, 1, false},
    {"server-disk-err", FuzzActionKind::kDiskTransient, 2, false},
    {"client1-disk-full", FuzzActionKind::kDiskFull, 0, false},
    {"client2-disk-full", FuzzActionKind::kDiskFull, 1, false},
    {"server-disk-full", FuzzActionKind::kDiskFull, 2, false},
    {"client1-disk-free", FuzzActionKind::kDiskFree, 0, false},
    {"client2-disk-free", FuzzActionKind::kDiskFree, 1, false},
    {"server-disk-free", FuzzActionKind::kDiskFree, 2, false},
    {"client1-disk-rot", FuzzActionKind::kDiskRot, 0, false},
    {"client2-disk-rot", FuzzActionKind::kDiskRot, 1, false},
    {"server-disk-rot", FuzzActionKind::kDiskRot, 2, false},
    {"client1-disk-syncfail", FuzzActionKind::kDiskSyncFail, 0, false},
    {"client2-disk-syncfail", FuzzActionKind::kDiskSyncFail, 1, false},
    {"server-disk-syncfail", FuzzActionKind::kDiskSyncFail, 2, false},
};

const char* KindToken(const FuzzAction& a) {
  for (const KindTokenEntry& e : kKindTokens) {
    if (e.kind == a.kind && e.target == a.target && e.tear == a.tear) {
      return e.token;
    }
  }
  return "unknown";
}

bool KindFromToken(const std::string& token, FuzzAction* out) {
  for (const KindTokenEntry& e : kKindTokens) {
    if (token == e.token) {
      out->kind = e.kind;
      out->target = e.target;
      out->tear = e.tear;
      return true;
    }
  }
  return false;
}

}  // namespace

FuzzPlan MakePlan(uint64_t seed) { return MakePlan(seed, MakePlanOptions{}); }

FuzzPlan MakePlan(uint64_t seed, MakePlanOptions options) {
  Rng rng(seed ^ 0x51c7c4ecull);
  FuzzPlan plan;
  plan.seed = seed;

  // One or two coalescing bursts, each often shadowed by a torn m2 crash a
  // few milliseconds later -- the exact window where an eagerly-withdrawn
  // predecessor record would lose acknowledged work.
  const size_t bursts = 1 + rng.NextBelow(2);
  for (size_t i = 0; i < bursts; ++i) {
    FuzzAction burst;
    burst.kind = FuzzActionKind::kBurst;
    burst.at_ms = 10'000 + rng.NextBelow(35'000);
    plan.actions.push_back(burst);
    if (rng.NextBool(0.6)) {
      FuzzAction crash;
      crash.kind = FuzzActionKind::kClientCrash;
      crash.target = 1;
      crash.tear = rng.NextBool(0.7);
      crash.at_ms = burst.at_ms + 1 + rng.NextBelow(120);
      plan.actions.push_back(crash);
    }
  }

  const size_t extras = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < extras; ++i) {
    FuzzAction a;
    a.at_ms = 5'000 + rng.NextBelow(48'000);
    switch (rng.NextBelow(4)) {
      case 0:
        a.kind = FuzzActionKind::kClientCrash;
        a.target = 0;
        a.tear = rng.NextBool(0.5);
        break;
      case 1:
        a.kind = FuzzActionKind::kClientCrash;
        a.target = 1;
        a.tear = rng.NextBool(0.5);
        break;
      case 2:
        a.kind = FuzzActionKind::kServerCrash;
        a.tear = rng.NextBool(0.5);
        break;
      default:
        a.kind = FuzzActionKind::kCorruptImage;
        break;
    }
    plan.actions.push_back(a);
  }

  if (options.disk_faults) {
    const size_t disk_actions = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < disk_actions; ++i) {
      FuzzAction a;
      a.at_ms = 3'000 + rng.NextBelow(50'000);
      const uint64_t roll = rng.NextBelow(6);
      if (roll <= 1) {
        // Forced write-error burst on any device; sized past the retry
        // budget so the terminal-failure path gets exercised too.
        a.kind = FuzzActionKind::kDiskTransient;
        a.target = static_cast<int>(rng.NextBelow(3));
      } else if (roll <= 3) {
        // Bounded ENOSPC episode, always freed again before the horizon's
        // final sweeps (RunPlan also force-frees as a safety net).
        a.kind = FuzzActionKind::kDiskFull;
        a.target = static_cast<int>(rng.NextBelow(3));
        FuzzAction free_again;
        free_again.kind = FuzzActionKind::kDiskFree;
        free_again.target = a.target;
        free_again.at_ms = a.at_ms + 500 + rng.NextBelow(8'000);
        plan.actions.push_back(free_again);
      } else if (roll == 4) {
        // Bit rot on a client log only: rotting an already-responded server
        // WAL transaction is DETECTED loss (quarantine + epoch bump), which
        // the harness's acked-loss end-to-end check cannot tell from silent
        // loss. The server path is covered by tests/storage_fault_test.cc.
        a.kind = FuzzActionKind::kDiskRot;
        a.target = static_cast<int>(rng.NextBelow(2));
      } else {
        a.kind = FuzzActionKind::kDiskSyncFail;
        a.target = static_cast<int>(rng.NextBelow(3));
      }
      plan.actions.push_back(a);
    }
  }

  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const FuzzAction& x, const FuzzAction& y) {
                     return x.at_ms < y.at_ms;
                   });
  return plan;
}

FuzzOutcome RunPlan(const FuzzPlan& plan, FuzzRunOptions options) {
  FuzzOutcome outcome;

  Testbed::Options topts;
  topts.server.stable_store.wal_costs = {Duration::Millis(5), 2e6,
                                         /*group_commit=*/true};
  topts.server.stable_store.compact_after_records = 8;
  topts.server.rover.invalidation_ttl = Duration::Seconds(30);
  Testbed bed(topts);
  bed.loop()->set_event_limit(20'000'000);

  SimCheck check;
  check.Attach(&bed);

  auto fail = [&](const std::string& invariant, const std::string& node,
                  const std::string& detail) {
    outcome.violations.push_back({invariant, node, detail});
  };

  if (!bed.server()->rover()->CreateObject(
          MakeRdo("journal", "lww", kJournalCode, "")).ok() ||
      !bed.server()->rover()->CreateObject(
          MakeRdo("doc", "lww", kCounterCode, "0")).ok() ||
      !bed.server()->rover()->CreateObject(
          MakeRdo("notes", "lww", kCounterCode, "0")).ok()) {
    fail("harness", "server", "object creation failed");
    outcome.report = "object creation failed";
    return outcome;
  }

  FaultPlan faults(bed.loop(), plan.seed);
  LinkProfile wave = LinkProfile::WaveLan2();
  wave.duplicate_prob = 0.05;
  wave.reorder_prob = 0.05;

  ClientNodeOptions c1opts;
  c1opts.access.subscribe_on_import = true;
  RoverClientNode* m1 = bed.AddClient(
      "m1", wave,
      faults.FlappyConnectivity(Duration::Seconds(8), Duration::Seconds(4),
                                Duration::Millis(kHorizonMs)),
      c1opts);

  ClientNodeOptions c2opts;
  c2opts.access.subscribe_on_import = true;
  c2opts.qrpc.unsafe_eager_coalesce_withdraw_for_test = options.eager_coalesce_bug;
  c2opts.qrpc.unsafe_ack_despite_flush_failure_for_test =
      options.ack_after_failed_flush_bug;
  RoverClientNode* m2 = bed.AddClient(
      "m2", wave,
      faults.FlappyConnectivity(Duration::Seconds(7), Duration::Seconds(5),
                                Duration::Millis(kHorizonMs)),
      c2opts);

  EventLoop* loop = bed.loop();
  auto at = [](uint64_t ms) { return TimePoint::Epoch() + Duration::Millis(ms); };

  // --- fixed workload ---
  // m1: journaled server-side invokes (at-most-once tokens).
  loop->ScheduleAt(at(1'000), [m1] { m1->access()->Import("journal"); });
  constexpr int kTokens = 12;
  std::vector<Promise<InvokeResult>> token_results(kTokens);
  for (int i = 0; i < kTokens; ++i) {
    loop->ScheduleAt(at(2'000 + 3'000 * i), [&token_results, m1, i] {
      InvokeOptions io;
      io.force_site = ExecutionSite::kServer;
      token_results[i] = m1->access()->Invoke("journal", "add",
                                              {"tok" + std::to_string(i)}, io);
    });
  }
  // m2: session-tracked imports (delta / kNotModified traffic via
  // subscribe_on_import invalidations and repeated refetches) plus steady
  // tentative-export pressure on "doc".
  Session session(1);
  for (int i = 0; i < 8; ++i) {
    loop->ScheduleAt(at(1'500 + 7'000 * i), [m2, &session, i] {
      ImportOptions io;
      io.session = &session;
      io.allow_cached = (i % 2) == 0;
      m2->access()->Import("doc", io);
      m2->access()->Import("notes", io);
    });
  }
  for (int i = 0; i < 10; ++i) {
    loop->ScheduleAt(at(4'000 + 5'000 * i), [m2] {
      InvokeOptions io;
      io.force_site = ExecutionSite::kClient;
      auto inv = m2->access()->Invoke("doc", "add", {"1"}, io);
      inv.OnReady([m2](const InvokeResult& r) {
        if (r.status.ok()) {
          m2->access()->Export("doc");
        }
      });
    });
  }

  // --- plan actions ---
  // Disk-fault actions address the device behind a node's stable log; the
  // log models hardware and survives simulated crash-restarts, so the
  // pointer stays valid for the whole run.
  auto disk_log = [m1, m2, &bed](int target) -> StableLog* {
    if (target == 0) {
      return m1->log();
    }
    if (target == 1) {
      return m2->log();
    }
    return bed.server()->stable_store()->wal();
  };
  for (const FuzzAction& action : plan.actions) {
    const FuzzAction a = action;
    switch (a.kind) {
      case FuzzActionKind::kClientCrash: {
        RoverClientNode* victim = a.target == 0 ? m1 : m2;
        loop->ScheduleAt(at(a.at_ms),
                         [victim, a] { victim->SimulateCrashAndRestart(a.tear); });
        break;
      }
      case FuzzActionKind::kServerCrash: {
        RoverServerNode* server = bed.server();
        loop->ScheduleAt(at(a.at_ms),
                         [server, a] { server->SimulateCrashAndRestart(a.tear); });
        break;
      }
      case FuzzActionKind::kCorruptImage:
        loop->ScheduleAt(at(a.at_ms),
                         [m2] { m2->access()->CorruptImportImageForTest("doc"); });
        break;
      case FuzzActionKind::kBurst:
        // Three invoke+export generations 50ms apart: each export's flush
        // is acknowledged before the next supersedes it in the queue, so a
        // disconnected window turns the run into a coalescing chain.
        for (int k = 0; k < 3; ++k) {
          loop->ScheduleAt(at(a.at_ms + 50 * k), [m2] {
            InvokeOptions io;
            io.force_site = ExecutionSite::kClient;
            auto inv = m2->access()->Invoke("doc", "add", {"1"}, io);
            inv.OnReady([m2](const InvokeResult& r) {
              if (r.status.ok()) {
                m2->access()->Export("doc");
              }
            });
          });
        }
        break;
      case FuzzActionKind::kDiskTransient:
        // Six forced errors: past the retry budget (1 + 4 retries), so the
        // flush terminally fails and the refusal/resolution path runs.
        loop->ScheduleAt(at(a.at_ms), [disk_log, a] {
          disk_log(a.target)->device()->InjectTransientWriteErrors(6);
        });
        break;
      case FuzzActionKind::kDiskFull:
        loop->ScheduleAt(at(a.at_ms), [disk_log, a] {
          disk_log(a.target)->device()->ClampCapacityToUsed(160);
        });
        break;
      case FuzzActionKind::kDiskFree:
        loop->ScheduleAt(at(a.at_ms), [disk_log, a] {
          disk_log(a.target)->device()->SetCapacityBytes(0);
        });
        break;
      case FuzzActionKind::kDiskRot:
        loop->ScheduleAt(at(a.at_ms), [disk_log, a] {
          disk_log(a.target)->InjectBitRot(/*selector=*/a.at_ms);
        });
        break;
      case FuzzActionKind::kDiskSyncFail:
        loop->ScheduleAt(at(a.at_ms), [disk_log, a] {
          disk_log(a.target)->device()->FailSyncPermanently();
        });
        break;
    }
  }

  // The fault window ends at the horizon: every device is healed (leftover
  // injected transient errors cleared, capacity clamp lifted) before the
  // final sweeps. Without this, a burst injected after a client's last
  // workload call would sit unconsumed and fail the harness's own
  // convergence imports -- a scheduling artifact, not a protocol bug.
  loop->ScheduleAt(at(kHorizonMs + 500), [disk_log] {
    for (int target = 0; target < 3; ++target) {
      disk_log(target)->device()->Repair();
      disk_log(target)->device()->SetCapacityBytes(0);
    }
  });

  // Final sweeps once the links are permanently up: each client restart
  // re-sends every durable unanswered request, so the run always quiesces
  // with drained logs -- and the recovery audit runs one last time.
  loop->ScheduleAt(at(kHorizonMs + 1'000), [m1] { m1->SimulateCrashAndRestart(false); });
  loop->ScheduleAt(at(kHorizonMs + 2'000), [m2] { m2->SimulateCrashAndRestart(false); });

  bed.Run();

  // --- harness-level end-to-end checks ---
  const std::string server_journal = bed.server()->store()->Get("journal")->data;
  auto tokens = TclListSplit(server_journal);
  if (!tokens.ok()) {
    fail("harness", "server", "journal unparsable: [" + server_journal + "]");
  } else {
    std::set<std::string> unique(tokens->begin(), tokens->end());
    if (unique.size() != tokens->size()) {
      fail("at-most-once-token", "server",
           "a journal add executed twice: [" + server_journal + "]");
    }
    std::set<std::string> issued;
    for (int i = 0; i < kTokens; ++i) {
      issued.insert("tok" + std::to_string(i));
    }
    for (const std::string& tok : *tokens) {
      if (issued.count(tok) == 0) {
        fail("phantom-token", "server", "unknown token " + tok);
      }
    }
    for (int i = 0; i < kTokens; ++i) {
      if (token_results[i].ready() && token_results[i].value().status.ok() &&
          unique.count("tok" + std::to_string(i)) == 0) {
        fail("acked-loss", "server",
             "acknowledged tok" + std::to_string(i) + " missing: [" +
                 server_journal + "]");
      }
    }
  }
  for (RoverClientNode* node : {m1, m2}) {
    if (node->qrpc()->LogDepth() != 0) {
      fail("log-drain", node->host_name(),
           "stable log did not drain: depth " +
               std::to_string(node->qrpc()->LogDepth()));
    }
    if (node->qrpc()->PendingCount() != 0) {
      fail("log-drain", node->host_name(),
           "pending set did not drain: " +
               std::to_string(node->qrpc()->PendingCount()));
    }
  }
  // Convergence: a fresh uncached import must land every client on the
  // server's committed state.
  for (RoverClientNode* node : {m1, m2}) {
    for (const char* name : {"journal", "doc"}) {
      ImportOptions io;
      io.allow_cached = false;
      auto converge = node->access()->Import(name, io);
      if (!converge.Wait(bed.loop()) || !converge.value().status.ok()) {
        fail("convergence", node->host_name(),
             std::string("final import of ") + name + " failed");
        continue;
      }
      auto local = node->access()->ReadCommittedData(name);
      const std::string server_data = bed.server()->store()->Get(name)->data;
      if (!local.ok() || *local != server_data) {
        fail("convergence", node->host_name(),
             std::string(name) + " diverged: client [" +
                 (local.ok() ? *local : "<unreadable>") + "] server [" +
                 server_data + "]");
      }
    }
  }

  check.CheckQuiesced();
  outcome.violations.insert(outcome.violations.end(), check.violations().begin(),
                            check.violations().end());
  outcome.ok = outcome.violations.empty();
  if (!outcome.ok) {
    std::ostringstream report;
    report << "plan failed: " << FormatRepro(plan) << "\n";
    for (const auto& v : outcome.violations) {
      report << "  [" << v.invariant << "] " << v.node << ": " << v.detail << "\n";
    }
    report << "event trace (tail):\n" << check.TraceTail(100);
    outcome.report = report.str();
  }
  return outcome;
}

FuzzPlan ShrinkPlan(const FuzzPlan& plan, FuzzRunOptions options) {
  FuzzPlan current = plan;
  bool shrunk = true;
  while (shrunk && current.actions.size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < current.actions.size(); ++i) {
      FuzzPlan candidate = current;
      candidate.actions.erase(candidate.actions.begin() + i);
      if (!RunPlan(candidate, options).ok) {
        current = candidate;
        shrunk = true;
        break;  // restart the scan over the smaller plan
      }
    }
  }
  return current;
}

std::string FormatRepro(const FuzzPlan& plan) {
  std::ostringstream out;
  out << "SIMCHECK_REPRO seed=" << plan.seed << " plan=";
  for (size_t i = 0; i < plan.actions.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << KindToken(plan.actions[i]) << "@" << plan.actions[i].at_ms;
  }
  return out.str();
}

Result<FuzzPlan> ParseRepro(const std::string& line) {
  const std::string seed_tag = "seed=";
  const std::string plan_tag = "plan=";
  const size_t seed_pos = line.find(seed_tag);
  const size_t plan_pos = line.find(plan_tag);
  if (seed_pos == std::string::npos || plan_pos == std::string::npos) {
    return InvalidArgumentError("repro line missing seed= or plan=");
  }
  FuzzPlan plan;
  try {
    plan.seed = std::stoull(line.substr(seed_pos + seed_tag.size()));
  } catch (...) {
    return InvalidArgumentError("unparsable seed");
  }
  std::string actions = line.substr(plan_pos + plan_tag.size());
  if (const size_t space = actions.find(' '); space != std::string::npos) {
    actions = actions.substr(0, space);
  }
  std::istringstream stream(actions);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const size_t atpos = item.find('@');
    if (atpos == std::string::npos) {
      return InvalidArgumentError("action missing @time: " + item);
    }
    FuzzAction action;
    if (!KindFromToken(item.substr(0, atpos), &action)) {
      return InvalidArgumentError("unknown action kind: " + item);
    }
    try {
      action.at_ms = std::stoull(item.substr(atpos + 1));
    } catch (...) {
      return InvalidArgumentError("unparsable action time: " + item);
    }
    plan.actions.push_back(action);
  }
  if (plan.actions.empty()) {
    return InvalidArgumentError("empty plan");
  }
  return plan;
}

std::vector<uint64_t> ParseSeedSpec(const std::string& spec) {
  std::string items = spec;
  std::replace(items.begin(), items.end(), ',', ' ');
  std::istringstream stream(items);
  std::vector<uint64_t> seeds;
  std::string item;
  while (stream >> item) {
    const uint64_t lo = std::strtoull(item.c_str(), nullptr, 10);
    const size_t dash = item.find('-');
    const uint64_t hi =
        dash == std::string::npos ? lo : std::strtoull(item.c_str() + dash + 1, nullptr, 10);
    for (uint64_t s = lo; s <= hi; ++s) {
      seeds.push_back(s);
    }
  }
  return seeds;
}

std::vector<uint64_t> SeedsFromEnv(const char* var, uint64_t default_last) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv(var)) {
    seeds = ParseSeedSpec(env);
  }
  if (seeds.empty()) {
    for (uint64_t s = 1; s <= default_last; ++s) {
      seeds.push_back(s);
    }
  }
  return seeds;
}

}  // namespace check
}  // namespace rover
