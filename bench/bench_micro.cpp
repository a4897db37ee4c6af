// E9 -- micro-benchmarks of the toolkit's building blocks (real CPU time,
// google-benchmark): TcLite dispatch and proc calls, expr evaluation, RDO
// load (with its heap footprint per instance) and invoke, wire
// marshalling, frame encode/decode, LZ compression, and stable-log append.
// These are the analogue of the paper's environment cost table and
// calibrate the simulated CPU cost models in RdoCostModel.

#include <benchmark/benchmark.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <memory>
#include <string>
#include <vector>

#include "src/qrpc/marshal.h"
#include "src/qrpc/stable_log.h"
#include "src/rdo/rdo.h"
#include "src/sim/event_loop.h"
#include "src/tclite/interp.h"
#include "src/sim/network.h"
#include "src/tclite/value.h"
#include "src/transport/message.h"
#include "src/transport/scheduler.h"
#include "src/transport/transport.h"
#include "src/util/buffer.h"
#include "src/util/compress.h"
#include "src/util/crc32.h"
#include "src/util/delta.h"

namespace rover {
namespace {

void BM_TcliteSetCommand(benchmark::State& state) {
  Interp interp;
  for (auto _ : state) {
    interp.ResetBudget();
    benchmark::DoNotOptimize(interp.Eval("set x 42"));
  }
}
BENCHMARK(BM_TcliteSetCommand);

void BM_TcliteProcCall(benchmark::State& state) {
  Interp interp;
  interp.Run("proc add {a b} { return [expr {$a + $b}] }");
  for (auto _ : state) {
    interp.ResetBudget();
    benchmark::DoNotOptimize(interp.Eval("add 17 25"));
  }
}
BENCHMARK(BM_TcliteProcCall);

void BM_TcliteExpr(benchmark::State& state) {
  Interp interp;
  interp.Run("set n 6");
  for (auto _ : state) {
    interp.ResetBudget();
    benchmark::DoNotOptimize(interp.Eval("expr {($n * 7 + 3) % 13 < 10 && $n > 2}"));
  }
}
BENCHMARK(BM_TcliteExpr);

void BM_TcliteLoop100(benchmark::State& state) {
  Interp interp;
  for (auto _ : state) {
    interp.ResetBudget();
    benchmark::DoNotOptimize(
        interp.Eval("for {set i 0} {$i < 100} {incr i} { set x $i }"));
  }
}
BENCHMARK(BM_TcliteLoop100);

void BM_TcliteListOps(benchmark::State& state) {
  Interp interp;
  interp.Run("set l {}; for {set i 0} {$i < 50} {incr i} { lappend l item$i }");
  for (auto _ : state) {
    interp.ResetBudget();
    benchmark::DoNotOptimize(interp.Eval("lsearch $l item25"));
  }
}
BENCHMARK(BM_TcliteListOps);

// Splits a mail folder as the benchmark's mobile_sync workload holds one:
// 32 messages of 255 bytes, each its id padded with 'x'.
void BM_TclListSplit(benchmark::State& state) {
  std::vector<std::string> messages;
  for (int k = 0; k < 32; ++k) {
    std::string m = "f7m" + std::to_string(k);
    m.resize(255, 'x');
    messages.push_back(std::move(m));
  }
  const std::string folder = TclListJoin(messages);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TclListSplit(folder));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(folder.size()));
}
BENCHMARK(BM_TclListSplit);

// Loads a flappy_fanout hot object (eight 63-byte messages under the
// benchmark harness's list methods) with a client's host bindings. The
// heap_bytes_per_instance counter is what a batch of live instances holds
// on the heap, per instance: the per-object cost of a client cache.
void BM_RdoLoad(benchmark::State& state) {
  RdoDescriptor d;
  d.name = "hot0";
  d.type = "set";
  d.code =
      "proc get {} { global state; return [llength $state] }\n"
      "proc put {m} { global state; lappend state $m; "
      "set state [lrange $state end-7 end]; return [llength $state] }\n";
  std::vector<std::string> messages;
  for (int k = 0; k < 8; ++k) {
    messages.push_back("h0m" + std::to_string(k));
    messages.back().resize(63, 'x');
  }
  d.data = TclListJoin(messages);
  RdoEnvironment env;
  env.host_name = "bench";
  env.now = [] { return TimePoint::Epoch(); };
  env.log = [](const std::string&) {};
  for (auto _ : state) {
    auto instance = RdoInstance::Create(d, env);
    benchmark::DoNotOptimize(instance);
  }
#ifdef __GLIBC__
  constexpr size_t kBatch = 256;
  std::vector<std::unique_ptr<RdoInstance>> batch;
  batch.reserve(kBatch);
  const size_t before = mallinfo2().uordblks;
  for (size_t i = 0; i < kBatch; ++i) {
    auto instance = RdoInstance::Create(d, env);
    batch.push_back(std::move(*instance));
  }
  const size_t after = mallinfo2().uordblks;
  state.counters["heap_bytes_per_instance"] =
      static_cast<double>(after - before) / static_cast<double>(kBatch);
#endif
}
BENCHMARK(BM_RdoLoad);

void BM_RdoInvoke(benchmark::State& state) {
  RdoDescriptor d;
  d.name = "bench";
  d.type = "lww";
  d.code = "proc add {n} { global state; set state [expr {$state + $n}]; return $state }";
  d.data = "0";
  RdoEnvironment env;
  env.host_name = "bench";
  auto instance = RdoInstance::Create(d, env);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*instance)->Invoke("add", {"1"}));
  }
}
BENCHMARK(BM_RdoInvoke);

void BM_MarshalRequest(benchmark::State& state) {
  RpcRequestBody body;
  body.method = "rover.invoke";
  body.args = {std::string("cal/adj"), std::string("book"),
               std::string("mon-10am {design review}")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(body.Encode());
  }
}
BENCHMARK(BM_MarshalRequest);

void BM_UnmarshalRequest(benchmark::State& state) {
  RpcRequestBody body;
  body.method = "rover.invoke";
  body.args = {std::string("cal/adj"), std::string("book"),
               std::string("mon-10am {design review}")};
  const Bytes encoded = body.Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RpcRequestBody::Decode(encoded));
  }
}
BENCHMARK(BM_UnmarshalRequest);

void BM_FrameEncode(benchmark::State& state) {
  std::vector<Message> msgs(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].header.message_id = i + 1;
    msgs[i].header.src = "mobile";
    msgs[i].header.dst = "server";
    msgs[i].payload = Bytes(256, 0x42);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeFrame(msgs));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(msgs.size() * 256));
}
BENCHMARK(BM_FrameEncode)->Arg(1)->Arg(16);

void BM_LzCompressText(benchmark::State& state) {
  std::string text;
  while (text.size() < static_cast<size_t>(state.range(0))) {
    text += "From: rover@lcs.mit.edu\nSubject: queued remote procedure call\n";
  }
  const Bytes input = BytesFromString(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCompress(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_LzCompressText)->Arg(4096)->Arg(65536);

void BM_LzDecompress(benchmark::State& state) {
  std::string text;
  while (text.size() < 65536) {
    text += "From: rover@lcs.mit.edu\nSubject: queued remote procedure call\n";
  }
  const Bytes packed = LzCompress(BytesFromString(text));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzDecompress(packed));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_LzDecompress);

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536);

// Delta codec over a typical re-import: an 8 KiB object with a small edit.
void BM_DeltaEncode(benchmark::State& state) {
  Bytes base(8192);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<uint8_t>('a' + (i * 31 % 17));
  }
  Bytes target = base;
  for (size_t i = 256; i < 384; ++i) {
    target[i] = static_cast<uint8_t>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeltaEncode(base, target));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target.size()));
}
BENCHMARK(BM_DeltaEncode);

void BM_DeltaApply(benchmark::State& state) {
  Bytes base(8192);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<uint8_t>('a' + (i * 31 % 17));
  }
  Bytes target = base;
  for (size_t i = 256; i < 384; ++i) {
    target[i] = static_cast<uint8_t>(i);
  }
  const Bytes delta = DeltaEncode(base, target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeltaApply(base, delta));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(target.size()));
}
BENCHMARK(BM_DeltaApply);

void BM_StableLogAppend(benchmark::State& state) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  const Bytes record(512, 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(record));
    if (log.RecordCount() > 10000) {
      state.PauseTiming();
      log.Truncate(UINT64_MAX);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_StableLogAppend);

// Buffer slice (refcount) vs the vector copy it replaced, at payload sizes
// from a QRPC header to a full frame. The gap is the per-hop cost the
// zero-copy refactor removed from every layer crossing.
void BM_BufferSlice(benchmark::State& state) {
  Buffer whole(Bytes(static_cast<size_t>(state.range(0)), 0x5a));
  for (auto _ : state) {
    Buffer slice = whole.Slice(1, whole.size() - 1);
    benchmark::DoNotOptimize(slice);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BufferSlice)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BytesCopy(benchmark::State& state) {
  const Bytes whole(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    Bytes copy(whole.begin() + 1, whole.end());
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BytesCopy)->Arg(256)->Arg(4096)->Arg(65536);

// Scheduler enqueue + cancel against a deep standing queue (10k messages to
// disconnected destinations). Pre-index both operations walked queues and
// recomputed depths by scanning every destination; now they are O(1).
void BM_SchedulerEnqueueCancel10k(benchmark::State& state) {
  EventLoop loop;
  Network net(&loop);
  const int kDests = 16;
  for (int d = 0; d < kDests; ++d) {
    net.Connect("mobile", "dest" + std::to_string(d), LinkProfile::WaveLan2(),
                std::make_unique<PeriodicConnectivity>(
                    Duration::Seconds(1e6), Duration::Zero(),
                    TimePoint::Epoch() + Duration::Seconds(1e6)));
  }
  obs::Registry metrics;
  TransportManager mobile(&loop, net.FindHost("mobile"), &metrics);
  NetworkScheduler* sched = mobile.scheduler();
  uint64_t id = 1;
  auto enqueue = [&](uint64_t message_id) {
    Message m;
    m.header.type = MessageType::kRequest;
    m.header.src = "mobile";
    m.header.dst = "dest" + std::to_string(message_id % kDests);
    m.header.message_id = message_id;
    m.payload = Bytes(256, 0x5a);
    sched->Enqueue(std::move(m));
  };
  for (; id <= 10000; ++id) {
    enqueue(id);
  }
  for (auto _ : state) {
    enqueue(id);
    benchmark::DoNotOptimize(
        sched->CancelMessage("dest" + std::to_string(id % kDests), id));
    ++id;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SchedulerEnqueueCancel10k);

// Arg 0: schedule and run 1000 near events. Arg 1: the deadline/TTL shape
// of flappy_fanout -- arm a 15 s timer, then cancel it, with 30 000 far
// timers standing. Arg 1 is the ablation row for timer storage: a wheel
// (or any other far-timer structure) must beat the plain heap here.
void BM_EventLoopDispatch(benchmark::State& state) {
  if (state.range(0) == 0) {
    for (auto _ : state) {
      EventLoop loop;
      for (int i = 0; i < 1000; ++i) {
        loop.ScheduleAfter(Duration::Micros(i), [] {});
      }
      loop.Run();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
    return;
  }
  EventLoop loop;
  for (int i = 0; i < 30'000; ++i) {
    loop.ScheduleAfter(Duration::Seconds(60 + i % 3600), [] {});
  }
  for (auto _ : state) {
    const EventId id = loop.ScheduleAfter(Duration::Seconds(15), [] {});
    benchmark::DoNotOptimize(loop.Cancel(id));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLoopDispatch)->Arg(0)->Arg(1);

}  // namespace
}  // namespace rover

BENCHMARK_MAIN();
