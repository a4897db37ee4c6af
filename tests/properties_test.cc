// Property-style tests: parameterized sweeps asserting invariants under
// randomized (but seeded, deterministic) workloads -- reliability of QRPC
// under loss and flapping links, exactly-once execution, resolver algebra,
// interpreter-vs-C++ expression equivalence, cache bounds, and
// multi-client convergence.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/toolkit.h"
#include "src/store/conflict.h"
#include "src/util/crc32.h"
#include "src/util/delta.h"
#include "src/tclite/interp.h"
#include "src/tclite/value.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

// --- QRPC reliability: every call completes exactly once, whatever the
// --- network does.

struct NetworkChaos {
  uint64_t seed;
  double loss_prob;
  double mean_up_s;
  double mean_down_s;
};

class QrpcReliabilityTest : public ::testing::TestWithParam<NetworkChaos> {};

TEST_P(QrpcReliabilityTest, AllCallsCompleteExactlyOnce) {
  const NetworkChaos chaos = GetParam();
  Testbed bed;
  std::map<int64_t, int> executions;
  bed.server()->qrpc()->RegisterHandler(
      "record",
      [&](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        const int64_t id = std::get<int64_t>(req.args[0]);
        ++executions[id];
        RpcResponseBody body;
        body.result = id;
        respond(body);
      });

  LinkProfile profile = LinkProfile::WaveLan2();
  profile.loss_prob = chaos.loss_prob;
  Rng rng(chaos.seed);
  auto schedule = MakeRandomConnectivity(&rng, Duration::Seconds(chaos.mean_up_s),
                                         Duration::Seconds(chaos.mean_down_s),
                                         Duration::Seconds(36000));
  RoverClientNode* client = bed.AddClient("mobile", profile, std::move(schedule));

  constexpr int kCalls = 30;
  std::vector<QrpcCall> calls;
  Rng issue_rng(chaos.seed + 1);
  for (int i = 0; i < kCalls; ++i) {
    calls.push_back(client->qrpc()->Call("server", "record", {int64_t{i}}));
    bed.loop()->RunFor(Duration::Seconds(issue_rng.NextExponential(5.0)));
  }
  bed.loop()->set_event_limit(5'000'000);
  bed.Run();

  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(calls[static_cast<size_t>(i)].result.ready())
        << "call " << i << " never completed (seed " << chaos.seed << ")";
    const QrpcResult& r = calls[static_cast<size_t>(i)].result.value();
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(std::get<int64_t>(r.value), i);
    EXPECT_EQ(executions[i], 1) << "call " << i << " executed " << executions[i]
                                << " times";
  }
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);  // everything answered + truncated
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, QrpcReliabilityTest,
    ::testing::Values(NetworkChaos{1, 0.0, 30, 10}, NetworkChaos{2, 0.2, 30, 10},
                      NetworkChaos{3, 0.0, 2, 8}, NetworkChaos{4, 0.3, 5, 20},
                      NetworkChaos{5, 0.5, 60, 5}, NetworkChaos{6, 0.1, 1, 1},
                      NetworkChaos{7, 0.4, 10, 60}));

// --- set-merge resolver algebra ---

class SetMergeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SetMergeTest, MergePreservesClientIntent) {
  Rng rng(GetParam());
  // Build an ancestor set, then independent server and client edits.
  std::vector<std::string> ancestor;
  for (int i = 0; i < 12; ++i) {
    ancestor.push_back("item" + std::to_string(i));
  }
  auto edit = [&rng](std::vector<std::string> base, const std::string& tag) {
    std::vector<std::string> out;
    std::vector<std::string> removed;
    for (auto& e : base) {
      if (rng.NextBool(0.25)) {
        removed.push_back(e);
      } else {
        out.push_back(e);
      }
    }
    std::vector<std::string> added;
    const int n_add = static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < n_add; ++i) {
      added.push_back(tag + std::to_string(i));
      out.push_back(added.back());
    }
    return std::make_tuple(out, added, removed);
  };
  auto [server_set, server_added, server_removed] = edit(ancestor, "srv");
  auto [client_set, client_added, client_removed] = edit(ancestor, "cli");

  auto merged = SetMergeResolve(TclListJoin(ancestor), TclListJoin(server_set),
                                TclListJoin(client_set));
  ASSERT_TRUE(merged.ok());
  auto elems = TclListSplit(*merged);
  ASSERT_TRUE(elems.ok());
  const std::set<std::string> result(elems->begin(), elems->end());

  // Everything either side added is present.
  for (const auto& e : server_added) {
    EXPECT_TRUE(result.count(e)) << e;
  }
  for (const auto& e : client_added) {
    EXPECT_TRUE(result.count(e)) << e;
  }
  // Everything the client removed is absent (client removals win over the
  // server's retained copy), and elements neither side touched survive.
  for (const auto& e : client_removed) {
    EXPECT_FALSE(result.count(e)) << e;
  }
  const std::set<std::string> server_removed_set(server_removed.begin(),
                                                 server_removed.end());
  const std::set<std::string> client_removed_set(client_removed.begin(),
                                                 client_removed.end());
  for (const auto& e : ancestor) {
    if (server_removed_set.count(e) == 0 && client_removed_set.count(e) == 0) {
      EXPECT_TRUE(result.count(e)) << e;
    }
  }
  // No duplicates.
  EXPECT_EQ(result.size(), elems->size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetMergeTest, ::testing::Range(uint64_t{1}, uint64_t{13}));

// --- calendar resolver properties ---

class CalendarMergeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CalendarMergeTest, DisjointUpdatesAlwaysMergeSymmetrically) {
  Rng rng(GetParam());
  std::vector<std::string> base_kv;
  for (int i = 0; i < 6; ++i) {
    base_kv.push_back("slot" + std::to_string(i));
    base_kv.push_back("base" + std::to_string(i));
  }
  const std::string ancestor = TclListJoin(base_kv);
  // Side A edits even slots; side B edits odd slots: never overlapping.
  auto edit = [&](int parity, const char* tag) {
    std::vector<std::string> kv = base_kv;
    for (size_t i = 0; i + 1 < kv.size(); i += 2) {
      if ((static_cast<int>(i / 2) % 2) == parity && rng.NextBool(0.7)) {
        kv[i + 1] = std::string(tag) + std::to_string(i);
      }
    }
    return TclListJoin(kv);
  };
  const std::string a = edit(0, "A");
  const std::string b = edit(1, "B");

  auto ab = CalendarMergeResolve(ancestor, a, b);
  auto ba = CalendarMergeResolve(ancestor, b, a);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  // Merging is symmetric for disjoint edits.
  auto to_map = [](const std::string& s) {
    auto kv = *TclListSplit(s);
    std::map<std::string, std::string> m;
    for (size_t i = 0; i + 1 < kv.size(); i += 2) {
      m[kv[i]] = kv[i + 1];
    }
    return m;
  };
  EXPECT_EQ(to_map(*ab), to_map(*ba));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarMergeTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- text merge properties ---

class TextMergeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextMergeTest, OneSidedEditsMergeToThatSide) {
  Rng rng(GetParam());
  std::string ancestor;
  for (int i = 0; i < 20; ++i) {
    ancestor += "line " + std::to_string(i) + "\n";
  }
  // Random one-sided edit: delete some lines, insert some lines.
  std::vector<std::string> lines;
  std::string cur;
  for (char c : ancestor) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  std::string edited;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (rng.NextBool(0.2)) {
      continue;  // delete
    }
    edited += lines[i] + "\n";
    if (rng.NextBool(0.15)) {
      edited += "inserted " + std::to_string(i) + "\n";
    }
  }
  // Ancestor unchanged on one side: merge equals the edited side.
  auto m1 = TextMergeResolve(ancestor, ancestor, edited);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(*m1, edited);
  auto m2 = TextMergeResolve(ancestor, edited, ancestor);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(*m2, edited);
  // Identical edits on both sides collapse.
  auto m3 = TextMergeResolve(ancestor, edited, edited);
  ASSERT_TRUE(m3.ok());
  EXPECT_EQ(*m3, edited);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextMergeTest, ::testing::Range(uint64_t{1}, uint64_t{11}));

// --- interpreter arithmetic equivalence ---

class ExprEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// Builds a random integer expression tree, evaluating it in C++ alongside.
std::string BuildExpr(Rng* rng, int depth, int64_t* value) {
  if (depth == 0 || rng->NextBool(0.3)) {
    const int64_t v = rng->NextInRange(-50, 50);
    *value = v;
    // Negative literals are parenthesized to avoid `--` sequences.
    return v < 0 ? "(" + std::to_string(v) + ")" : std::to_string(v);
  }
  int64_t lhs = 0;
  int64_t rhs = 0;
  const std::string left = BuildExpr(rng, depth - 1, &lhs);
  const std::string right = BuildExpr(rng, depth - 1, &rhs);
  switch (rng->NextBelow(4)) {
    case 0:
      *value = lhs + rhs;
      return "(" + left + " + " + right + ")";
    case 1:
      *value = lhs - rhs;
      return "(" + left + " - " + right + ")";
    case 2:
      *value = lhs * rhs;
      return "(" + left + " * " + right + ")";
    default:
      if (rhs == 0) {
        *value = lhs + rhs;
        return "(" + left + " + " + right + ")";
      }
      *value = lhs / rhs;
      return "(" + left + " / " + right + ")";
  }
}

TEST_P(ExprEquivalenceTest, RandomIntExpressionsMatchCpp) {
  Rng rng(GetParam());
  Interp interp;
  for (int i = 0; i < 50; ++i) {
    int64_t expected = 0;
    const std::string expr = BuildExpr(&rng, 4, &expected);
    auto result = interp.Run("expr {" + expr + "}");
    ASSERT_TRUE(result.ok()) << expr << ": " << result.status();
    EXPECT_EQ(*result, std::to_string(expected)) << expr;
    interp.ResetBudget();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- Tcl list quoting round trip ---

class ListRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ListRoundTripTest, ArbitraryElementsSurviveJoinSplit) {
  Rng rng(GetParam());
  const std::string alphabet = "ab {}\"\\$[];\n\t";
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::string> elems;
    const size_t n = rng.NextBelow(6);
    for (size_t i = 0; i < n; ++i) {
      std::string e;
      const size_t len = rng.NextBelow(10);
      for (size_t k = 0; k < len; ++k) {
        e.push_back(alphabet[rng.NextBelow(alphabet.size())]);
      }
      elems.push_back(e);
    }
    auto split = TclListSplit(TclListJoin(elems));
    ASSERT_TRUE(split.ok()) << TclListJoin(elems);
    EXPECT_EQ(*split, elems);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListRoundTripTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- cache capacity invariant ---

class CacheBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheBoundTest, RandomWorkloadRespectsCapacity) {
  Testbed bed;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(bed.server()
                    ->rover()
                    ->CreateObject(MakeRdo("o/" + std::to_string(i), "lww",
                                           "proc get {} { global state; return $state }",
                                           std::string(100 + i * 20, 'd')))
                    .ok());
  }
  ClientNodeOptions options;
  options.access.cache_capacity_bytes = 4000;
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::Ethernet10(), nullptr, options);
  Rng rng(GetParam());
  for (int step = 0; step < 100; ++step) {
    const std::string name = "o/" + std::to_string(rng.NextBelow(30));
    client->access()->Import(name).Wait(bed.loop());
    // Cache never exceeds capacity while nothing is pinned/tentative.
    ASSERT_LE(client->access()->CacheBytes(), 4000u);
  }
  EXPECT_GT(Count(client->metrics(), "access_manager.evictions"), 0u);
  EXPECT_GT(Count(client->metrics(), "access_manager.cache_hits"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheBoundTest, ::testing::Range(uint64_t{1}, uint64_t{6}));

// --- multi-client convergence ---

class ConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvergenceTest, ConcurrentSetUpdatesAllReachTheServer) {
  const uint64_t seed = GetParam();
  Testbed bed;
  ASSERT_TRUE(bed.server()
                  ->rover()
                  ->CreateObject(MakeRdo(
                      "roster", "set",
                      "proc join {who} { global state; lappend state $who; return $state }",
                      ""))
                  .ok());

  constexpr int kClients = 4;
  constexpr int kItemsPerClient = 5;
  Rng rng(seed);
  std::vector<RoverClientNode*> clients;
  for (int c = 0; c < kClients; ++c) {
    auto schedule =
        MakeRandomConnectivity(&rng, Duration::Seconds(40), Duration::Seconds(20),
                               Duration::Seconds(36000));
    clients.push_back(bed.AddClient("client" + std::to_string(c),
                                    LinkProfile::WaveLan2(), std::move(schedule)));
  }
  // Each client imports, adds its items locally (whenever its link allows
  // the import to finish), and exports.
  for (int c = 0; c < kClients; ++c) {
    RoverClientNode* client = clients[static_cast<size_t>(c)];
    auto import = client->access()->Import("roster");
    import.OnReady([=, this_loop = bed.loop()](const ImportResult& r) {
      ASSERT_TRUE(r.status.ok());
      for (int i = 0; i < kItemsPerClient; ++i) {
        InvokeOptions opts;
        opts.force_site = ExecutionSite::kClient;
        client->access()->Invoke(
            "roster", "join", {"c" + std::to_string(c) + "-" + std::to_string(i)}, opts);
      }
      client->access()->Export("roster");
    });
  }
  bed.loop()->set_event_limit(5'000'000);
  bed.Run();

  auto final_set = TclListSplit(bed.server()->store()->Get("roster")->data);
  ASSERT_TRUE(final_set.ok());
  const std::set<std::string> result(final_set->begin(), final_set->end());
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kItemsPerClient; ++i) {
      EXPECT_TRUE(result.count("c" + std::to_string(c) + "-" + std::to_string(i)))
          << "missing item from client " << c << " (seed " << seed << ")";
    }
  }
  EXPECT_EQ(result.size(), static_cast<size_t>(kClients * kItemsPerClient));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceTest, ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace rover

namespace rover {
namespace {

// End-to-end robustness: QRPC completes exactly once even when frames are
// randomly corrupted in flight (the receiver silently drops damaged
// frames; the scheduler retransmits).
class CorruptionTest : public ::testing::TestWithParam<double> {};

TEST_P(CorruptionTest, QrpcSurvivesFrameCorruption) {
  Testbed bed;
  int executions = 0;
  bed.server()->qrpc()->RegisterHandler(
      "bump", [&](const RpcRequestBody&, const Message&, QrpcServer::Responder respond) {
        ++executions;
        respond(RpcResponseBody{});
      });
  LinkProfile profile = LinkProfile::WaveLan2();
  profile.corrupt_prob = GetParam();
  RoverClientNode* client = bed.AddClient("mobile", profile);
  std::vector<QrpcCall> calls;
  for (int i = 0; i < 10; ++i) {
    calls.push_back(client->qrpc()->Call("server", "bump", {int64_t{i}}));
  }
  bed.loop()->set_event_limit(5'000'000);
  bed.Run();
  for (auto& call : calls) {
    ASSERT_TRUE(call.result.ready());
    EXPECT_TRUE(call.result.value().status.ok());
  }
  EXPECT_EQ(executions, 10);
}

INSTANTIATE_TEST_SUITE_P(Rates, CorruptionTest, ::testing::Values(0.1, 0.3, 0.6));

}  // namespace
}  // namespace rover

namespace rover {
namespace {

// --- Delta codec: encode against an old version, apply it back, and never
// --- accept damaged input.

// Random byte string with enough repetition that matches exist.
Bytes RandomBase(Rng* rng, size_t size) {
  Bytes base(size);
  for (uint8_t& b : base) {
    b = static_cast<uint8_t>(rng->NextBelow(16) + 'a');
  }
  return base;
}

// A handful of splice edits (replace / insert / delete) of random spans.
Bytes RandomEdit(Rng* rng, const Bytes& base) {
  Bytes target = base;
  const int edits = static_cast<int>(rng->NextInRange(1, 5));
  for (int i = 0; i < edits && !target.empty(); ++i) {
    const size_t at = rng->NextBelow(target.size());
    const size_t span = rng->NextBelow(std::min<size_t>(64, target.size() - at)) + 1;
    switch (rng->NextBelow(3)) {
      case 0:  // replace
        for (size_t j = at; j < at + span; ++j) {
          target[j] = static_cast<uint8_t>(rng->NextBelow(256));
        }
        break;
      case 1:  // insert
        target.insert(target.begin() + static_cast<ptrdiff_t>(at), span,
                      static_cast<uint8_t>(rng->NextBelow(256)));
        break;
      default:  // delete
        target.erase(target.begin() + static_cast<ptrdiff_t>(at),
                     target.begin() + static_cast<ptrdiff_t>(at + span));
        break;
    }
  }
  return target;
}

class DeltaCodecTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaCodecTest, RandomEditsRoundTrip) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const Bytes base = RandomBase(&rng, rng.NextBelow(8192) + 1);
    const Bytes target = RandomEdit(&rng, base);
    const Bytes delta = DeltaEncode(base, target);
    auto applied = DeltaApply(base, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(*applied, target);
  }
  // Degenerate shapes.
  const Bytes base = RandomBase(&rng, 512);
  EXPECT_EQ(*DeltaApply(base, DeltaEncode(base, base)), base);
  EXPECT_EQ(*DeltaApply(base, DeltaEncode(base, Bytes{})), Bytes{});
  EXPECT_EQ(*DeltaApply(Bytes{}, DeltaEncode(Bytes{}, base)), base);
}

TEST_P(DeltaCodecTest, SmallEditsProduceSmallDeltas) {
  Rng rng(GetParam() + 1000);
  const Bytes base = RandomBase(&rng, 8192);
  Bytes target = base;
  // A ~32-byte edit in an 8 KiB object.
  for (size_t i = 100; i < 132; ++i) {
    target[i] = static_cast<uint8_t>(rng.NextBelow(256));
  }
  const Bytes delta = DeltaEncode(base, target);
  EXPECT_LT(delta.size(), target.size() / 4);
}

TEST_P(DeltaCodecTest, TruncatedOrCorruptDeltaNeverAppliesSilently) {
  Rng rng(GetParam() + 2000);
  const Bytes base = RandomBase(&rng, 2048);
  const Bytes target = RandomEdit(&rng, base);
  const Bytes delta = DeltaEncode(base, target);

  // Every truncation is rejected.
  for (size_t keep : {size_t{0}, size_t{1}, delta.size() / 2, delta.size() - 1}) {
    const Bytes cut(delta.begin(), delta.begin() + static_cast<ptrdiff_t>(keep));
    auto applied = DeltaApply(base, cut);
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kDataLoss);
  }

  // Single-byte corruption anywhere either fails loudly or (if it hit the
  // stored base CRC) reads as a base mismatch; it never yields wrong bytes.
  for (int trial = 0; trial < 50; ++trial) {
    Bytes damaged = delta;
    damaged[rng.NextBelow(damaged.size())] ^= static_cast<uint8_t>(rng.NextBelow(255) + 1);
    auto applied = DeltaApply(base, damaged);
    if (applied.ok()) {
      EXPECT_EQ(*applied, target);  // e.g. a flipped bit inside padding-free
                                    // copy lengths that still decodes -- must
                                    // still be CRC-exact to pass
    } else {
      EXPECT_TRUE(applied.status().code() == StatusCode::kDataLoss ||
                  applied.status().code() == StatusCode::kFailedPrecondition);
    }
  }
}

TEST(DeltaCodecEdgeTest, ImplausibleTargetLengthRejectedNotThrown) {
  const Bytes base = BytesFromString("0123456789abcdef");
  // Hand-build a header claiming a ~2^63-byte target: reserve() on that
  // value would throw std::length_error/std::bad_alloc and crash the
  // client; the codec must instead return kDataLoss so the import path
  // falls back to a full fetch.
  WireWriter w;
  w.WriteFixed32(0x314c4452u);  // "RDL1"
  w.WriteFixed32(Crc32(base.data(), base.size()));
  w.WriteFixed32(0);  // target CRC, never reached
  w.WriteVarint(uint64_t{1} << 63);
  auto applied = DeltaApply(base, w.data());
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kDataLoss);
}

TEST_P(DeltaCodecTest, MismatchedBaseIsFailedPrecondition) {
  Rng rng(GetParam() + 3000);
  const Bytes base = RandomBase(&rng, 1024);
  const Bytes target = RandomEdit(&rng, base);
  const Bytes delta = DeltaEncode(base, target);
  Bytes other = base;
  other[other.size() / 2] ^= 0x01;
  auto applied = DeltaApply(other, delta);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaCodecTest, ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace rover
