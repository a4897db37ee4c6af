#include <gtest/gtest.h>

#include <string>

#include "src/rdo/migration.h"
#include "src/rdo/rdo.h"
#include "src/sim/event_loop.h"

namespace rover {
namespace {

// A small counter RDO used throughout.
constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
proc reset {} { global state; set state 0; return 0 }
)";

RdoDescriptor CounterDescriptor(const std::string& name = "test/counter") {
  RdoDescriptor d;
  d.name = name;
  d.version = 3;
  d.type = "lww";
  d.code = kCounterCode;
  d.data = "10";
  d.metadata["content-type"] = "counter";
  return d;
}

TEST(RdoDescriptorTest, EncodeDecodeRoundTrip) {
  RdoDescriptor d = CounterDescriptor();
  auto decoded = RdoDescriptor::Decode(d.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, d.name);
  EXPECT_EQ(decoded->version, 3u);
  EXPECT_EQ(decoded->type, "lww");
  EXPECT_EQ(decoded->code, d.code);
  EXPECT_EQ(decoded->data, "10");
  EXPECT_EQ(decoded->metadata.at("content-type"), "counter");
}

TEST(RdoDescriptorTest, CorruptBytesRejected) {
  Bytes data = CounterDescriptor().Encode();
  data.resize(3);
  EXPECT_FALSE(RdoDescriptor::Decode(data).ok());
}

TEST(RdoDescriptorTest, ByteSizeCountsComponents) {
  RdoDescriptor d = CounterDescriptor();
  EXPECT_GT(d.ByteSize(), d.code.size() + d.data.size());
}

class RdoInstanceTest : public ::testing::Test {
 protected:
  RdoEnvironment Env() {
    RdoEnvironment env;
    env.host_name = "mobile";
    env.now = [this] { return loop_.now(); };
    env.log = [this](const std::string& line) { log_lines_.push_back(line); };
    return env;
  }

  EventLoop loop_;
  std::vector<std::string> log_lines_;
};

TEST_F(RdoInstanceTest, LoadAndInvoke) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(*(*instance)->Invoke("get", {}), "10");
  EXPECT_EQ(*(*instance)->Invoke("add", {"5"}), "15");
  EXPECT_EQ(*(*instance)->Invoke("get", {}), "15");
}

TEST_F(RdoInstanceTest, DirtyTracksMutation) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  EXPECT_FALSE((*instance)->dirty());
  ASSERT_TRUE((*instance)->Invoke("get", {}).ok());
  EXPECT_FALSE((*instance)->dirty());  // read-only method
  ASSERT_TRUE((*instance)->Invoke("add", {"1"}).ok());
  EXPECT_TRUE((*instance)->dirty());
}

TEST_F(RdoInstanceTest, SnapshotCapturesState) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE((*instance)->Invoke("add", {"32"}).ok());
  RdoDescriptor snap = (*instance)->Snapshot();
  EXPECT_EQ(snap.data, "42");
  EXPECT_EQ(snap.version, 3u);  // version assigned by the store, not here
  EXPECT_EQ(snap.code, std::string(kCounterCode));
}

TEST_F(RdoInstanceTest, WriteStateClearsDirty) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE((*instance)->Invoke("add", {"1"}).ok());
  (*instance)->WriteState("99");
  EXPECT_FALSE((*instance)->dirty());
  EXPECT_EQ(*(*instance)->Invoke("get", {}), "99");
}

TEST_F(RdoInstanceTest, UnknownMethodFails) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ((*instance)->Invoke("missing", {}).status().code(), StatusCode::kNotFound);
}

TEST_F(RdoInstanceTest, MethodErrorSurfaces) {
  RdoDescriptor d = CounterDescriptor();
  d.code = "proc boom {} { error kapow }";
  auto instance = RdoInstance::Create(d, Env());
  ASSERT_TRUE(instance.ok());
  auto r = (*instance)->Invoke("boom", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("kapow"), std::string::npos);
}

// A failed invocation leaves no trace in `state`, whatever stopped it, and
// touches neither dirty() nor the descriptor.
TEST_F(RdoInstanceTest, FailedInvokeRollsBackState) {
  ExecLimits limits;
  limits.max_commands = 2000;
  limits.max_storage_bytes = 4096;
  RdoDescriptor d = CounterDescriptor();
  d.code = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
proc bad {} { global state; set state 99; error oops }
proc spin {} { global state; set state 98; while {1} {} }
proc deep {{n 0}} { global state; set state $n; deep [expr {$n + 1}] }
proc hog {} { global state; set state [string repeat x 8192]; get }
)";
  auto instance = RdoInstance::Create(d, Env(), limits);
  ASSERT_TRUE(instance.ok());
  for (const char* method : {"bad", "spin", "deep", "hog"}) {
    EXPECT_FALSE((*instance)->Invoke(method, {}).ok()) << method;
    EXPECT_EQ((*instance)->ReadState(), "10") << method;
    EXPECT_FALSE((*instance)->dirty()) << method;
  }
  EXPECT_EQ((*instance)->descriptor().data, "10");

  // After a successful mutation, a failure rolls back to that mutation.
  ASSERT_TRUE((*instance)->Invoke("add", {"5"}).ok());
  EXPECT_FALSE((*instance)->Invoke("bad", {}).ok());
  EXPECT_EQ(*(*instance)->Invoke("get", {}), "15");
  EXPECT_TRUE((*instance)->dirty());
  EXPECT_EQ((*instance)->descriptor().data, "10");
}

// `puts` output is dropped after every call and may not grow past the
// storage cap within one call.
TEST_F(RdoInstanceTest, PutsOutputIsDiscardedAndCapped) {
  ExecLimits limits;
  limits.max_storage_bytes = 1 << 20;
  RdoDescriptor d = CounterDescriptor();
  d.code = R"(
proc spam {} { puts [string repeat x 1000]; return 1 }
proc flood {} { for {set i 0} {$i < 20000} {incr i} { puts [string repeat x 1000] }; return 1 }
)";
  auto instance = RdoInstance::Create(d, Env(), limits);
  ASSERT_TRUE(instance.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*instance)->Invoke("spam", {}).ok());
  }
  EXPECT_EQ((*instance)->interp()->output().size(), 0u);
  auto flood = (*instance)->Invoke("flood", {});
  ASSERT_FALSE(flood.ok());
  EXPECT_NE(flood.status().message().find("output storage limit exceeded"), std::string::npos);
  EXPECT_EQ((*instance)->interp()->output().size(), 0u);
}

// Rebase records the current state as committed without reloading: the
// interpreter's other globals survive.
TEST_F(RdoInstanceTest, RebaseCommitsStateInPlace) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  (*instance)->interp()->SetGlobal("scratch", "kept");
  ASSERT_TRUE((*instance)->Invoke("add", {"5"}).ok());
  ASSERT_TRUE((*instance)->dirty());
  (*instance)->Rebase(4);
  EXPECT_FALSE((*instance)->dirty());
  EXPECT_EQ((*instance)->base_version(), 4u);
  EXPECT_EQ((*instance)->descriptor().data, "15");
  EXPECT_EQ(*(*instance)->interp()->GetGlobal("scratch"), "kept");
}

// `info commands` on an RDO interpreter: builtins and the host commands in
// name order, each once, then the object's methods.
TEST_F(RdoInstanceTest, InfoCommandsListing) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(*(*instance)->interp()->Run("info commands"),
            "append break catch concat continue dict error eval expr for foreach format "
            "global if incr info join lappend lindex linsert list llength lrange lreplace "
            "lreverse lsearch lsort proc puts return rover-host rover-log rover-now set "
            "split string switch unset uplevel upvar while add get reset");
}

TEST_F(RdoInstanceTest, BadCodeFailsToLoad) {
  RdoDescriptor d = CounterDescriptor();
  d.code = "proc broken {";
  EXPECT_FALSE(RdoInstance::Create(d, Env()).ok());
}

TEST_F(RdoInstanceTest, HostCommandsAvailable) {
  RdoDescriptor d = CounterDescriptor();
  d.code = R"(
proc where {} { return [rover-host] }
proc when {} { return [rover-now] }
proc say {msg} { rover-log $msg; return ok }
)";
  loop_.ScheduleAt(TimePoint::FromMicros(5000), [] {});
  loop_.Run();
  auto instance = RdoInstance::Create(d, Env());
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(*(*instance)->Invoke("where", {}), "mobile");
  EXPECT_EQ(*(*instance)->Invoke("when", {}), "5000");
  EXPECT_EQ(*(*instance)->Invoke("say", {"hello"}), "ok");
  ASSERT_EQ(log_lines_.size(), 1u);
  EXPECT_EQ(log_lines_[0], "hello");
}

TEST_F(RdoInstanceTest, BudgetResetsPerInvocation) {
  ExecLimits limits;
  limits.max_commands = 2000;
  RdoDescriptor d = CounterDescriptor();
  d.code = R"(
proc spin {n} { for {set i 0} {$i < $n} {incr i} {}; return $i }
proc forever {} { while {1} {} }
)";
  auto instance = RdoInstance::Create(d, Env(), limits);
  ASSERT_TRUE(instance.ok());
  // Each call is within budget individually; many calls must all succeed.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*instance)->Invoke("spin", {"100"}).ok());
  }
  // A runaway method is stopped.
  EXPECT_FALSE((*instance)->Invoke("forever", {}).ok());
  // And the instance remains usable afterwards.
  EXPECT_TRUE((*instance)->Invoke("spin", {"10"}).ok());
}

TEST_F(RdoInstanceTest, InvokeCountsCommands) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE((*instance)->Invoke("add", {"1"}).ok());
  EXPECT_GT((*instance)->last_invoke_commands(), 0u);
  EXPECT_LT((*instance)->last_invoke_commands(), 50u);
}

TEST_F(RdoInstanceTest, MethodsListed) {
  auto instance = RdoInstance::Create(CounterDescriptor(), Env());
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE((*instance)->HasMethod("add"));
  EXPECT_FALSE((*instance)->HasMethod("multiply"));
  EXPECT_EQ((*instance)->Methods().size(), 3u);
}

TEST(MigrationPolicyTest, DisconnectedAlwaysClient) {
  MigrationPolicy policy;
  for (auto mode : {MigrationPolicy::Mode::kAlwaysClient,
                    MigrationPolicy::Mode::kAlwaysServer,
                    MigrationPolicy::Mode::kAdaptive}) {
    policy.mode = mode;
    EXPECT_EQ(policy.Decide(true, false, 0.0), ExecutionSite::kClient);
  }
}

TEST(MigrationPolicyTest, AdaptiveUsesThreshold) {
  MigrationPolicy policy;
  policy.mode = MigrationPolicy::Mode::kAdaptive;
  policy.client_threshold_bps = 5e6;
  // Slow link, cached -> client.
  EXPECT_EQ(policy.Decide(true, true, 14.4e3), ExecutionSite::kClient);
  EXPECT_EQ(policy.Decide(true, true, 2e6), ExecutionSite::kClient);
  // Fast LAN -> server.
  EXPECT_EQ(policy.Decide(true, true, 10e6), ExecutionSite::kServer);
  // Not cached -> server regardless of speed.
  EXPECT_EQ(policy.Decide(false, true, 14.4e3), ExecutionSite::kServer);
}

TEST(MigrationPolicyTest, FixedModes) {
  MigrationPolicy policy;
  policy.mode = MigrationPolicy::Mode::kAlwaysServer;
  EXPECT_EQ(policy.Decide(true, true, 14.4e3), ExecutionSite::kServer);
  policy.mode = MigrationPolicy::Mode::kAlwaysClient;
  EXPECT_EQ(policy.Decide(true, true, 10e6), ExecutionSite::kClient);
  EXPECT_EQ(policy.Decide(false, true, 10e6), ExecutionSite::kServer);  // nothing cached
}

}  // namespace
}  // namespace rover
