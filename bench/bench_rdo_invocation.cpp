// E3 -- Cached-RDO local invocation vs. RPC (paper §7 claim 3).
//
// "Caching RDOs reduces latency and bandwidth consumption. A local
// invocation on an RDO is 56 times faster than sending an RPC over a
// TCP/CSLIP14.4 connection."
//
// For each network: the cost of invoking a method on a locally cached RDO
// (interpreter execution only) vs. shipping the same invocation to the
// server. The absolute ratio depends on interpreter speed and the CPU cost
// model; the paper's shape -- local invocation is orders of magnitude
// cheaper, with the gap widening as bandwidth falls -- is the check.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/toolkit.h"

using namespace rover;

namespace {

constexpr char kObjectCode[] = R"(
proc lookup {key} {
  global state
  if {[dict exists $state $key]} { return [dict get $state $key] }
  return ""
}
)";

struct Sample {
  double local_s = 0;
  double remote_s = 0;
  double bytes_per_remote = 0;
};

Sample Measure(const LinkProfile& profile, const RdoCostModel& cpu, int iterations) {
  Testbed bed;
  bed.server()->rover()->CreateObject(
      MakeRdo("config", "lww", kObjectCode, "color blue size large"));
  ClientNodeOptions options;
  options.access.rdo_costs = cpu;
  RoverClientNode* client = bed.AddClient("mobile", profile, nullptr, options);
  client->access()->Import("config").Wait(bed.loop());

  std::vector<double> local;
  std::vector<double> remote;
  const uint64_t bytes_before = client->metrics()->CounterValue("scheduler.bytes_sent");

  for (int i = 0; i < iterations; ++i) {
    {
      InvokeOptions opts;
      opts.force_site = ExecutionSite::kClient;
      const TimePoint start = bed.loop()->now();
      auto p = client->access()->Invoke("config", "lookup", {"color"}, opts);
      p.Wait(bed.loop());
      local.push_back((bed.loop()->now() - start).seconds());
    }
    {
      InvokeOptions opts;
      opts.force_site = ExecutionSite::kServer;
      const TimePoint start = bed.loop()->now();
      auto p = client->access()->Invoke("config", "lookup", {"color"}, opts);
      p.Wait(bed.loop());
      remote.push_back((bed.loop()->now() - start).seconds());
    }
  }
  const uint64_t bytes =
      client->metrics()->CounterValue("scheduler.bytes_sent") - bytes_before;
  return Sample{Mean(local), Mean(remote),
                static_cast<double>(bytes) / iterations};
}

}  // namespace

int main() {
  std::printf("E3: local invocation on a cached RDO vs RPC (paper §7 claim 3)\n");
  std::printf("workload: dict lookup method, 20 iterations per cell\n");

  struct Cpu {
    const char* name;
    RdoCostModel model;
  };
  // The paper's clients interpreted Tcl on a 25/75 MHz i486; its 56x
  // figure reflects a ~ms-scale local invocation. We report both that
  // calibration and a modern-CPU one.
  const Cpu cpus[] = {
      {"1995 i486 + Tcl (0.5 ms/command)",
       {Duration::Micros(500), Duration::Millis(5)}},
      {"modern CPU (2 us/command, default)", RdoCostModel{}},
  };
  for (const Cpu& cpu : cpus) {
    BenchTable table(std::string("Invocation cost -- ") + cpu.name,
                     {"network", "local invoke", "remote RPC", "local speedup",
                      "wire bytes/RPC"});
    for (const LinkProfile& profile : LinkProfile::PaperNetworks()) {
      Sample s = Measure(profile, cpu.model, 20);
      char bytes[32];
      std::snprintf(bytes, sizeof(bytes), "%.0f", s.bytes_per_remote);
      table.AddRow({profile.name, FmtSeconds(s.local_s), FmtSeconds(s.remote_s),
                    FmtRatio(s.remote_s / s.local_s), bytes});
    }
    table.Print();
  }

  // Disconnected row: the remote column is not a number -- it never
  // completes. Local invocation is the only option and still works.
  {
    Testbed bed;
    bed.server()->rover()->CreateObject(
        MakeRdo("config", "lww", kObjectCode, "color blue"));
    bed.AddClient("mobile", LinkProfile::WaveLan2(),
                  std::make_unique<IntervalConnectivity>(
                      std::vector<IntervalConnectivity::Interval>{
                          {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(5)}}));
    RoverClientNode* client = bed.client("mobile");
    client->access()->Import("config").Wait(bed.loop());
    bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(10));
    InvokeOptions opts;
    opts.force_site = ExecutionSite::kClient;
    const TimePoint start = bed.loop()->now();
    auto p = client->access()->Invoke("config", "lookup", {"color"}, opts);
    p.Wait(bed.loop());
    std::printf("\ndisconnected: local invoke still completes in %s; an RPC would\n"
                "block until reconnection.\n",
                FmtSeconds((bed.loop()->now() - start).seconds()).c_str());
  }

  std::printf(
      "\nShape check: the paper reports 56x vs TCP/CSLIP-14.4 with its\n"
      "Tcl-based prototype; the exact multiple depends on interpreter\n"
      "speed, but the ordering (Ethernet < WaveLAN << CSLIP links) and the\n"
      "orders-of-magnitude local win reproduce.\n");
  return 0;
}
