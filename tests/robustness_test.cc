// Decoder robustness: every wire-facing parser must reject arbitrary and
// mutated bytes with an error -- never crash, hang, or over-allocate.
// These are deterministic fuzz-style sweeps (seeded random buffers plus
// bit-flipped valid encodings).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/simcheck.h"
#include "src/core/toolkit.h"
#include "src/qrpc/marshal.h"
#include "src/rdo/rdo.h"
#include "src/store/server.h"
#include "src/tclite/parser.h"
#include "src/tclite/value.h"
#include "src/transport/message.h"
#include "src/transport/transport.h"
#include "src/util/compress.h"
#include "src/util/rng.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

Bytes RandomBytes(Rng* rng, size_t max_len) {
  Bytes out(rng->NextBelow(max_len + 1));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng->NextU64());
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

TEST_P(FuzzTest, RandomBytesNeverCrashDecoders) {
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes data = RandomBytes(&rng_, 512);
    // Each decoder either succeeds (rare, harmless) or errors cleanly.
    (void)Message::Decode(data);
    (void)DecodeFrame(data);
    (void)RdoDescriptor::Decode(data);
    (void)RpcRequestBody::Decode(data);
    (void)RpcResponseBody::Decode(data);
    (void)LzDecompress(data);
    (void)TransportManager::DecodeEnvelope(data);
    (void)DecodeInvalidation(data);
    WireReader reader(data);
    (void)reader.ReadVarint();
    (void)reader.ReadString();
  }
}

TEST_P(FuzzTest, BitFlippedMessagesRejectedOrEquivalent) {
  Message msg;
  msg.header.message_id = 1234;
  msg.header.type = MessageType::kRequest;
  msg.header.src = "mobile";
  msg.header.dst = "server";
  msg.header.auth = "token";
  msg.payload = BytesFromString("the quick brown fox");
  const Bytes valid = msg.Encode();
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = valid;
    const size_t flips = 1 + rng_.NextBelow(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng_.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng_.NextBelow(8));
    }
    auto decoded = Message::Decode(mutated);
    if (decoded.ok()) {
      // A flip that survives decoding must still produce a structurally
      // sane message (bounded enums).
      EXPECT_LE(static_cast<int>(decoded->header.type), 3);
      EXPECT_LT(static_cast<int>(decoded->header.priority), kNumPriorities);
    }
  }
}

TEST_P(FuzzTest, TruncatedRdoDescriptorsRejected) {
  RdoDescriptor d;
  d.name = "fuzz/object";
  d.type = "set";
  d.code = "proc get {} { global state; return $state }";
  d.data = std::string(200, 'q');
  d.metadata["k"] = "v";
  const Bytes valid = d.Encode();
  // Every strict prefix must be rejected.
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes prefix(valid.begin(), valid.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(RdoDescriptor::Decode(prefix).ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(RdoDescriptor::Decode(valid).ok());
}

TEST_P(FuzzTest, RandomScriptsNeverCrashParserOrInterp) {
  const std::string alphabet = "ab c{}[]$\"\\;\n#01+*<";
  ExecLimits limits;
  limits.max_commands = 5000;
  limits.max_depth = 16;
  for (int trial = 0; trial < 100; ++trial) {
    std::string script;
    const size_t len = rng_.NextBelow(60);
    for (size_t i = 0; i < len; ++i) {
      script.push_back(alphabet[rng_.NextBelow(alphabet.size())]);
    }
    (void)ParseScript(script);
    Interp interp(limits);
    (void)interp.Run(script);  // may error; must terminate
  }
}

TEST_P(FuzzTest, RandomListsEitherSplitOrErrorCleanly) {
  const std::string alphabet = "ab {}\"\\ \t\n\r\v\f";
  for (int trial = 0; trial < 200; ++trial) {
    std::string list;
    const size_t len = rng_.NextBelow(40);
    for (size_t i = 0; i < len; ++i) {
      list.push_back(alphabet[rng_.NextBelow(alphabet.size())]);
    }
    auto split = TclListSplit(list);
    if (split.ok()) {
      // Anything that splits must re-join and re-split to the same elements
      // (canonicalization is a fixed point).
      auto again = TclListSplit(TclListJoin(*split));
      ASSERT_TRUE(again.ok()) << list;
      EXPECT_EQ(*again, *split) << list;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(uint64_t{1}, uint64_t{7}));

// End-to-end containment of wire corruption: frames damaged by a noisy
// radio must die at the transport's CRC decode boundary -- counted by
// frames_corrupt_dropped -- and never surface to QRPC, whose retries then
// converge on the correct result.
TEST(CorruptionIsolationTest, DamagedFramesDropAtTransportNeverReachQrpc) {
  constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  LinkProfile noisy = LinkProfile::WaveLan2();
  noisy.corrupt_prob = 0.3;
  RoverClientNode* client = bed.AddClient("mobile", noisy);

  constexpr int kOps = 8;
  std::vector<Promise<InvokeResult>> results(kOps);
  for (int i = 0; i < kOps; ++i) {
    bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1 + i),
                           [&, i] {
                             InvokeOptions io;
                             io.force_site = ExecutionSite::kServer;
                             results[i] = client->access()->Invoke(
                                 "counter", "add", {"1"}, io);
                           });
  }
  bed.Run();

  for (auto& r : results) {
    ASSERT_TRUE(r.ready());
    EXPECT_TRUE(r.value().status.ok());
  }
  EXPECT_EQ(bed.server()->store()->Get("counter")->data,
            std::to_string(kOps));
  // Corruption really happened on the wire, and every damaged frame was
  // dropped at decode rather than handed upward.
  EXPECT_GT(Count(client->metrics(), "transport.frames_corrupt_dropped") +
                Count(bed.server()->metrics(), "transport.frames_corrupt_dropped"),
            0u);
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report();
}

}  // namespace
}  // namespace rover
