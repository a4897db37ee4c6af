// Rover benchmark harness.
//
// Runs one of four seeded workloads against an in-process Testbed and
// reports, end to end, what a mobile user waits for (simulated latency,
// failures, bytes on the wire) and what the host pays for it (process CPU
// per operation, set-up time, memory). A traced run adds a per-layer
// breakdown measured only from outside the toolkit: it times calls into the
// public API, drives the event loop step by step, and reads existing
// counters, each client's RpcTracer and obs::CpuAttribution.
//
// Host CPU and simulated time are independent in this simulator: a pure CPU
// optimisation leaves every simulated metric bit-identical, which the
// "sim_digest" in the output makes checkable.
//
//   rover_bench --workload NAME [--seed N] [--seconds S] [--trace]
//               [--trace-out FILE]
//   rover_bench --smoke        every workload at toy size under SimCheck
//
// The last line on stdout is one JSON object with every metric;
// run_benchmark.py turns it into the benchmark's result line. The exit code
// is non-zero when any correctness check failed.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/apps/workload.h"
#include "src/check/simcheck.h"
#include "src/core/fault_plan.h"
#include "src/core/toolkit.h"
#include "src/obs/cpu_scope.h"
#include "src/sim/network.h"
#include "src/tclite/value.h"
#include "src/util/buffer.h"

using namespace rover;

namespace {

// ---------------------------------------------------------------------------
// Host-side measurement helpers

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Derives independent seeds for each input stream from the run's seed.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Nearest-rank quantile of an ascending vector.
template <typename T>
T Quantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) {
    return T{};
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct Spread {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  size_t n = 0;
};

// Median and quartiles as Python's statistics.quantiles(v, n=4) gives them.
Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 2) {
    const double x = n == 0 ? 0 : v[0];
    return Spread{x, x, x, n};
  }
  auto at = [&](double pos) {  // 1-based fractional position, clamped
    pos = std::clamp(pos, 1.0, static_cast<double>(n));
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    return lo >= n ? v[n - 1] : v[lo - 1] + frac * (v[lo] - v[lo - 1]);
  };
  const double m = static_cast<double>(n + 1);
  return Spread{at(m * 0.5), at(m * 0.25), at(m * 0.75), n};
}

// ---------------------------------------------------------------------------
// Timers around public API calls (traced reps only). The simulator is
// single-threaded, so wall time inside a call is the CPU the call burns.

enum class Api { kAddClient, kQrpcCall, kImport, kInvoke, kExport, kCount };
constexpr size_t kNumApis = static_cast<size_t>(Api::kCount);

struct ApiTotal {
  uint64_t count = 0;
  int64_t total_ns = 0;
  std::vector<int64_t> samples_ns;  // for the per-call median
};

class CallTimers {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  template <typename F>
  auto Time(Api api, F&& call) {
    if (!enabled_) {
      return call();
    }
    const int64_t t0 = WallNs();
    auto result = call();
    const int64_t ns = WallNs() - t0;
    ApiTotal& t = totals_[static_cast<size_t>(api)];
    ++t.count;
    t.total_ns += ns;
    t.samples_ns.push_back(ns);
    return result;
  }

  ApiTotal& total(Api api) { return totals_[static_cast<size_t>(api)]; }
  void Reset() {
    for (ApiTotal& t : totals_) {
      t = ApiTotal{};
    }
  }

 private:
  bool enabled_ = false;
  ApiTotal totals_[kNumApis];
};

// ---------------------------------------------------------------------------
// Operations and their traced boundaries

constexpr int64_t kUnset = INT64_MAX;  // simulated micros never reached

// One user-visible operation, in simulated microseconds.
struct Op {
  int64_t issued = kUnset;
  int64_t returned = kUnset;   // the caller regained control
  int64_t completed = kUnset;  // the final result arrived
  uint64_t rpc_id = 0;         // RPC whose response finishes the op; 0 = none
  uint32_t client = 0;
  uint32_t resolutions = 0;
  StatusCode code = StatusCode::kOk;
  bool ok = false;
};

// Boundaries of an op's final RPC, read from the issuing client's RpcTracer
// and the bench-owned handler (simulated micros; -1 = absent).
struct Boundaries {
  int64_t enqueued = -1;
  int64_t flushed = -1;
  int64_t first_tx = -1;
  int64_t entry = -1;    // bench handler entered (server side)
  int64_t respond = -1;  // bench handler called respond()
  int64_t last_tx = -1;
  int64_t responded = -1;
  uint32_t attempts = 0;  // transmissions of the final RPC
};

struct Context {
  uint64_t seed = 1;
  bool smoke = false;
  bool traced = false;  // this rep records boundaries and call timings
  CallTimers* timers = nullptr;
  check::SimCheck* simcheck = nullptr;
};

std::string ClientName(size_t i) { return "c" + std::to_string(i); }

// Server used by every workload: durable, with an SSD-class journal (1 ms
// sync, 100 MB/s) so that concurrent clients share one group-committed
// resource instead of an idealised zero-cost NVRAM.
ServerNodeOptions BenchServerOptions() {
  ServerNodeOptions o;
  o.stable_store.wal_costs.flush_base = Duration::Millis(1);
  o.stable_store.wal_costs.write_bytes_per_sec = 100e6;
  return o;
}

InvokeOptions AtSite(ExecutionSite site) {
  InvokeOptions o;
  o.force_site = site;
  return o;
}

// Mail folders and hot objects: a Tcl list of fixed-size messages, merged
// as a set on concurrent exports. `put` appends a message and keeps the
// newest `keep`, so objects hold their size however long the run.
std::string ListCode(size_t keep) {
  return "proc get {} { global state; return [llength $state] }\n"
         "proc put {m} { global state; lappend state $m; "
         "set state [lrange $state end-" + std::to_string(keep - 1) +
         " end]; return [llength $state] }\n";
}

constexpr char kCounterCode[] = R"(
proc incr {} { global state; set state [expr {$state + 1}]; return $state }
)";

// A message: its id padded with 'x' to `bytes`. Ids never end in 'x'.
std::string Padded(const std::string& id, size_t bytes) {
  std::string m = id;
  m.resize(std::max(bytes, id.size()), 'x');
  return m;
}

std::string MessageId(const std::string& message) {
  return message.substr(0, message.find_last_not_of('x') + 1);
}

std::vector<std::string> PaddedList(const std::string& prefix, size_t count, size_t bytes) {
  std::vector<std::string> out;
  for (size_t k = 0; k < count; ++k) {
    out.push_back(Padded(prefix + "m" + std::to_string(k), bytes));
  }
  return out;
}

struct Flapping {
  Duration mean_up;
  Duration min_up;
  Duration mean_down;
  Duration max_down;
};

struct Window {
  TimePoint from;
  TimePoint until;
};

// Seeded connectivity that flaps inside each window and is up everywhere
// else: up periods ~ Exp(mean_up) (at least min_up) alternate with outages
// ~ Exp(mean_down) clamped to [200 ms, max_down] and cut off at the
// window's end. Capping outages bounds how long a queued operation can wait,
// which keeps the latency tail a property of the workload rather than of
// one unlucky draw.
std::unique_ptr<IntervalConnectivity> FlappyLink(Rng* rng, const Flapping& f,
                                                 const std::vector<Window>& windows) {
  std::vector<IntervalConnectivity::Interval> up;
  TimePoint up_start = TimePoint::Epoch();
  for (const Window& w : windows) {
    TimePoint t = std::max(w.from, up_start);
    for (;;) {
      const TimePoint up_end =
          t + std::max(f.min_up, Duration::Seconds(rng->NextExponential(f.mean_up.seconds())));
      if (up_end >= w.until) {
        break;
      }
      up.push_back({up_start, up_end});
      t = std::min(w.until,
                   up_end + std::clamp(Duration::Seconds(rng->NextExponential(
                                           f.mean_down.seconds())),
                                       Duration::Millis(200), f.max_down));
      up_start = t;
    }
  }
  up.push_back({up_start, TimePoint::FromMicros(INT64_MAX)});
  return std::make_unique<IntervalConnectivity>(std::move(up));
}

std::string EchoPayload(size_t op, size_t bytes) {
  std::string s = std::to_string(op);
  s.push_back(':');
  s.resize(bytes, static_cast<char>('a' + op % 26));
  return s;
}

// ---------------------------------------------------------------------------
// Workload base

class Workload {
 public:
  explicit Workload(Context ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the bed (nodes, links, objects) and runs the warm-up.
  virtual void Setup() = 0;
  // Measured rounds per bed; every bed replays the same rounds.
  virtual int Rounds() const { return 1; }
  // Schedules round `round` (1-based); the harness then drives the loop.
  virtual void IssueRound(int round) = 0;
  // Post-run correctness checks; may run the loop further.
  virtual void Verify() = 0;
  // Primary kill -> first completion served by the backup.
  virtual std::optional<double> UnavailSeconds() const { return std::nullopt; }
  // Workload-held counters for the per-layer ratios.
  virtual void AddCounters(std::map<std::string, double>* counters) const {}
  // Sizes recorded with the result.
  virtual std::string SizesJson() const = 0;

  Testbed* bed() { return bed_.get(); }
  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<Boundaries>& boundaries() const { return bounds_; }
  const std::vector<std::string>& violations() const { return violations_; }

 protected:
  EventLoop* loop() { return bed_->loop(); }
  int64_t Now() { return loop()->now().micros(); }

  void MakeBed(ServerNodeOptions server) {
    Testbed::Options options;
    options.server = std::move(server);
    bed_ = std::make_unique<Testbed>(std::move(options));
    if (ctx_.simcheck != nullptr) {
      ctx_.simcheck->Attach(bed_.get());
    }
  }

  // User clients carry heterogeneous stable-log devices (sync 6-10 ms,
  // seeded), so client-side latencies form a continuous distribution that
  // moves with the seed instead of one value shared by every client.
  RoverClientNode* AddUserClient(LinkProfile profile,
                                 std::unique_ptr<ConnectivitySchedule> schedule = nullptr,
                                 ClientNodeOptions options = {}) {
    options.log_costs.flush_base =
        Duration::Micros(6000 + static_cast<int64_t>(disk_rng_.NextBelow(4001)));
    const std::string name = ClientName(clients_.size());
    RoverClientNode* node = ctx_.timers->Time(Api::kAddClient, [&] {
      return bed_->AddClient(name, std::move(profile), std::move(schedule), std::move(options));
    });
    client_index_[name] = static_cast<uint32_t>(clients_.size());
    clients_.push_back(node);
    return node;
  }

  size_t NewOp(uint32_t client) {
    Op op;
    op.issued = Now();
    op.client = client;
    ops_.push_back(op);
    return ops_.size() - 1;
  }

  void SetRpc(size_t i, uint64_t rpc_id) { ops_[i].rpc_id = rpc_id; }

  void Returned(size_t i, int64_t at) {
    if (ops_[i].returned == kUnset) {
      ops_[i].returned = at;
    }
  }

  void Completed(size_t i, const Status& status) {
    Op& op = ops_[i];
    if (++op.resolutions > 1) {
      return;  // reported by Verify
    }
    op.completed = Now();
    op.ok = status.ok();
    op.code = status.code();
    if (ctx_.traced) {
      CaptureBoundaries(i);
    }
  }

  // Warm-up ops are not measured.
  void ResetOps() {
    ops_.clear();
    bounds_.clear();
    handler_times_.clear();
  }

  void Violation(const std::string& what) {
    if (violations_.size() < 20) {
      violations_.push_back(what);
    } else if (violations_.size() == 20) {
      violations_.push_back("... further violations suppressed");
    }
  }

  // Every op resolved exactly once, OK or (when allowed) past its deadline.
  void CheckResolutions(bool deadline_allowed) {
    for (size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (op.resolutions != 1) {
        Violation("op " + std::to_string(i) + " resolved " +
                  std::to_string(op.resolutions) + " times");
      } else if (!op.ok && !(deadline_allowed && op.code == StatusCode::kDeadlineExceeded)) {
        Violation("op " + std::to_string(i) + " failed: " +
                  std::string(StatusCodeName(op.code)));
      }
    }
  }

  // Bench-owned QRPC method: echoes its first argument. In traced reps it
  // records when the handler ran and when it responded, keyed by the
  // client's rpc id -- the identifier the client's tracer shares.
  QrpcServer::Handler EchoHandler() {
    return [this](const RpcRequestBody& req, const Message& envelope,
                  QrpcServer::Responder respond) {
      RpcResponseBody body;
      if (!req.args.empty()) {
        body.result = req.args[0];
      }
      if (ctx_.traced) {
        auto it = client_index_.find(envelope.header.src);
        if (it != client_index_.end()) {
          const int64_t now = Now();
          handler_times_[HandlerKey(it->second, envelope.header.message_id)] = {now, now};
        }
      }
      respond(body);
    };
  }

  // Issues one echo QRPC from user client `c` as a new op.
  void IssueEcho(uint32_t c, size_t bytes, QrpcCallOptions options = {}) {
    const size_t op = NewOp(c);
    QrpcCall call = ctx_.timers->Time(Api::kQrpcCall, [&] {
      return clients_[c]->qrpc()->Call("server", "echo", {EchoPayload(op, bytes)},
                                       std::move(options));
    });
    ops_[op].rpc_id = call.rpc_id;
    call.committed.OnReady([this, op](const TimePoint& at) { Returned(op, at.micros()); });
    call.result.OnReady([this, op, bytes](const QrpcResult& r) {
      if (r.status.ok()) {
        auto value = RpcValueAsString(r.value);
        if (!value.ok() || *value != EchoPayload(op, bytes)) {
          Violation("echo result differs from its argument (op " + std::to_string(op) + ")");
        }
      }
      Completed(op, r.status);
    });
  }

  Context ctx_;
  std::unique_ptr<Testbed> bed_;
  std::vector<RoverClientNode*> clients_;  // user clients, indexed by Op::client

 private:
  static uint64_t HandlerKey(uint32_t client, uint64_t rpc_id) {
    return (static_cast<uint64_t>(client) << 40) | rpc_id;
  }

  void CaptureBoundaries(size_t i) {
    if (bounds_.size() < ops_.size()) {
      bounds_.resize(ops_.size());
    }
    const Op& op = ops_[i];
    if (op.rpc_id == 0) {
      return;
    }
    const obs::RpcSpan* span = clients_[op.client]->tracer()->Find(op.rpc_id);
    if (span == nullptr) {
      return;
    }
    Boundaries& b = bounds_[i];
    for (const obs::RpcSpanEvent& e : span->events) {
      const int64_t at = e.at.micros();
      switch (e.event) {
        case obs::RpcEvent::kEnqueued:
          if (b.enqueued < 0) b.enqueued = at;
          break;
        case obs::RpcEvent::kFlushedDurable:
          if (b.flushed < 0) b.flushed = at;
          break;
        case obs::RpcEvent::kTransmitted:
          if (b.first_tx < 0) b.first_tx = at;
          b.last_tx = at;
          ++b.attempts;
          break;
        case obs::RpcEvent::kResponded:
          if (b.responded < 0) b.responded = at;
          break;
        default:
          break;
      }
    }
    auto h = handler_times_.find(HandlerKey(op.client, op.rpc_id));
    if (h != handler_times_.end()) {
      b.entry = h->second.first;
      b.respond = h->second.second;
    }
  }

  Rng disk_rng_{Mix(ctx_.seed, 9)};
  std::unordered_map<std::string, uint32_t> client_index_;
  std::vector<Op> ops_;
  std::vector<Boundaries> bounds_;
  std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> handler_times_;
  std::vector<std::string> violations_;
};

// ---------------------------------------------------------------------------
// fanin_echo: the per-op host-CPU hot path at fan-in. Always-up WaveLAN
// clients each send a burst of logged echo QRPCs at a seeded instant within
// one simulated second; the bed drains to quiescence after every round.

class FaninEcho : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    clients_n_ = ctx_.smoke ? 40 : 5000;
    MakeBed(BenchServerOptions());
    bed_->server()->qrpc()->RegisterHandler("echo", EchoHandler());
    clients_.reserve(clients_n_);
    for (size_t i = 0; i < clients_n_; ++i) {
      AddUserClient(LinkProfile::WaveLan2());
    }
    IssueRound(0);  // warm-up: fills logs, dup caches and allocator pools
    bed_->Run();
    ResetOps();
  }

  int Rounds() const override { return ctx_.smoke ? 1 : 3; }

  // Argument sizes are drawn around 256 B (every 8th around 2 KiB) so that
  // flush and transfer times, and with them every latency, vary by seed.
  void IssueRound(int round) override {
    Rng rng(Mix(ctx_.seed, static_cast<uint64_t>(round)));
    const TimePoint start = loop()->now() + Duration::Millis(100);
    for (size_t i = 0; i < clients_.size(); ++i) {
      const Duration offset = Duration::Micros(static_cast<int64_t>(rng.NextBelow(1'000'000)));
      std::array<size_t, kBurst> sizes;
      for (int k = 0; k < kBurst; ++k) {
        sizes[k] = k % 8 == 7 ? 1536 + rng.NextBelow(1025) : 192 + rng.NextBelow(129);
      }
      loop()->ScheduleAt(start + offset, [this, i, sizes] {
        for (size_t bytes : sizes) {
          IssueEcho(static_cast<uint32_t>(i), bytes);
        }
      });
    }
  }

  void Verify() override { CheckResolutions(/*deadline_allowed=*/false); }

  std::string SizesJson() const override {
    return "{\"clients\": " + std::to_string(clients_n_) + ", \"burst\": " +
           std::to_string(kBurst) + ", \"rounds_per_bed\": " + std::to_string(Rounds()) + "}";
  }

 private:
  static constexpr int kBurst = 8;
  size_t clients_n_ = 0;
};

// ---------------------------------------------------------------------------
// mobile_sync: the paper's own use case -- mail folders over dial-up with
// disconnection. Closed-loop users read (import + local get) or edit
// (import + local put + export; one edit in four is a 3-deep burst) Zipf-
// popular folders; the server edits a random folder every 10 s. Set-up
// fills every cache with the most popular folders, so the measured rounds
// run in steady state. The two hours of use are split into 30-minute
// rounds, each drained before the next, so one bed yields several CPU
// samples.

class MobileSync : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    const bool smoke = ctx_.smoke;
    users_ = smoke ? 6 : 64;
    objects_ = smoke ? 12 : 128;
    round_ = Duration::Seconds(smoke ? 20 * 60 : 30 * 60);
    const size_t cache_bytes = smoke ? 40 * 1024 : 512 * 1024;
    // Dial-up sessions: up ~10 min, outages ~5 min (at most 10 min) during
    // each round; every user is back online when a round ends, so the
    // drain measures the backlog the session left behind.
    const Flapping dialup{Duration::Seconds(600), Duration::Seconds(60), Duration::Seconds(300),
                          Duration::Seconds(600)};
    std::vector<Window> sessions;
    for (int r = 1; r <= Rounds(); ++r) {
      sessions.push_back({RoundStart(r), RoundStart(r) + round_});
    }

    MakeBed(BenchServerOptions());
    ObjectStore* store = bed_->server()->store();
    for (size_t o = 0; o < objects_; ++o) {
      // Each folder arrives with a full revision history, as on a server
      // that has been running a while: snapshot and delta costs start at
      // their steady-state size.
      const std::string prefix = "f" + std::to_string(o);
      std::vector<std::string> messages = PaddedList(prefix, kMessages, kMessageBytes);
      RdoDescriptor folder =
          MakeRdo(FolderName(o), "set", ListCode(kMessages), TclListJoin(messages));
      bool ok = bed_->server()->rover()->CreateObject(folder).ok();
      for (int v = 0; v < kHistory && ok; ++v) {
        messages.erase(messages.begin());
        messages.push_back(Padded(prefix + "r" + std::to_string(v), kMessageBytes));
        folder.data = TclListJoin(messages);
        ok = store->Put(folder).ok();
      }
      if (!ok) {
        Violation("create " + FolderName(o) + " failed");
      }
    }
    editor_ = bed_->AddClient("editor", LinkProfile::Ethernet10());

    ClientNodeOptions copts;
    copts.access.cache_capacity_bytes = cache_bytes;
    copts.access.subscribe_on_import = true;
    clients_.reserve(users_);
    for (size_t i = 0; i < users_; ++i) {
      Rng link_rng(Mix(ctx_.seed, 300 + i));
      AddUserClient(LinkProfile::Cslip144(), FlappyLink(&link_rng, dialup, sessions), copts);
      agents_.push_back(Agent{Rng(Mix(ctx_.seed, 100 + i)),
                              ZipfSampler(objects_, 0.9, Mix(ctx_.seed, 200 + i))});
    }
    acked_.assign(objects_, {});
    // Warm-up: every cache takes the most popular folders that fit.
    const size_t folder_bytes = bed_->server()->store()->Get(FolderName(0))->ByteSize();
    const size_t warm = std::min(objects_, cache_bytes / folder_bytes - 1);
    for (RoverClientNode* node : clients_) {
      for (size_t o = 0; o < warm; ++o) {
        node->access()->Import(FolderName(o));
      }
    }
    bed_->Run();
  }

  int Rounds() const override { return ctx_.smoke ? 1 : 4; }

  void IssueRound(int round) override {
    const TimePoint start = RoundStart(round);
    if (loop()->now() > start) {
      Violation("round " + std::to_string(round) + " could not start on time");
    }
    end_ = start + round_;
    loop()->ScheduleAt(start, [this] {
      for (uint32_t c = 0; c < users_; ++c) {
        Think(c);
      }
    });
    Rng editor_rng(Mix(ctx_.seed, 2 + static_cast<uint64_t>(round)));
    for (TimePoint t = start + Duration::Seconds(10); t < end_; t += Duration::Seconds(10)) {
      const size_t obj = editor_rng.NextBelow(objects_);
      const std::string id = "ed" + std::to_string(editor_edits_++);
      loop()->ScheduleAt(t, [this, obj, id] {
        editor_->access()
            ->Invoke(FolderName(obj), "put", {Padded(id, kMessageBytes)},
                     AtSite(ExecutionSite::kServer))
            .OnReady([this, obj, id](const InvokeResult& r) {
              if (r.status.ok()) {
                acked_[obj].insert(id);
              } else {
                Violation("server edit failed: " + r.status.ToString());
              }
            });
      });
    }
  }

  void Verify() override {
    CheckResolutions(/*deadline_allowed=*/false);
    // Every message a folder holds is an original one or an acknowledged
    // edit, and none is held twice.
    RoverServer* server = bed_->server()->rover();
    for (size_t o = 0; o < objects_; ++o) {
      auto committed = server->store()->Get(FolderName(o));
      auto messages = committed.ok() ? TclListSplit(committed->data)
                                     : Result<std::vector<std::string>>(committed.status());
      if (!messages.ok()) {
        Violation(FolderName(o) + " unreadable at the server");
        continue;
      }
      std::set<std::string> seen;
      const std::string prefix = "f" + std::to_string(o);
      for (const std::string& m : *messages) {
        const std::string id = MessageId(m);
        if (!seen.insert(id).second) {
          Violation(FolderName(o) + " holds message " + id + " twice");
        }
        const bool original = id.rfind(prefix + "m", 0) == 0 || id.rfind(prefix + "r", 0) == 0;
        if (!original && acked_[o].count(id) == 0) {
          Violation(FolderName(o) + " holds " + id + ", which no acknowledged edit wrote");
        }
      }
    }
    // Reconnected users refresh what they cache; every committed view must
    // then match the server exactly.
    for (RoverClientNode* node : clients_) {
      if (node->access()->TentativeCount() != 0) {
        Violation(node->host_name() + " still holds tentative objects");
      }
      for (size_t o = 0; o < objects_; ++o) {
        if (node->access()->HasCached(FolderName(o))) {
          ImportOptions fresh;
          fresh.allow_cached = false;
          node->access()->Import(FolderName(o), fresh);
        }
      }
    }
    bed_->Run();
    for (RoverClientNode* node : clients_) {
      for (size_t o = 0; o < objects_; ++o) {
        const std::string name = FolderName(o);
        if (!node->access()->HasCached(name)) {
          continue;
        }
        auto server_copy = server->store()->Get(name);
        auto data = node->access()->ReadCommittedData(name);
        auto version = node->access()->CachedVersion(name);
        if (!server_copy.ok() || !data.ok() || !version.ok() || *data != server_copy->data ||
            *version != server_copy->version) {
          Violation(node->host_name() + " committed view of " + name + " differs from the server");
        }
      }
    }
  }

  void AddCounters(std::map<std::string, double>* counters) const override {
    (*counters)["exports_issued"] += static_cast<double>(exports_issued_);
  }

  std::string SizesJson() const override {
    return "{\"clients\": " + std::to_string(users_) + ", \"objects\": " +
           std::to_string(objects_) + ", \"rounds\": " + std::to_string(Rounds()) +
           ", \"round_s\": " + std::to_string(static_cast<int64_t>(round_.seconds())) + "}";
  }

 private:
  struct Agent {
    Rng rng;
    ZipfSampler zipf;
    uint64_t next_edit = 0;
  };
  // The export rpcs of one edit burst, in issue order.
  struct Burst {
    size_t obj = 0;
    std::vector<uint64_t> rpcs;
    int outstanding = 0;
    bool issued_all = false;
  };

  static constexpr int kHistory = 16;  // ObjectStore's default history depth
  static constexpr size_t kMessages = 32;  // per folder: 32 x 255 B = 8 KiB
  static constexpr size_t kMessageBytes = 255;

  static std::string FolderName(size_t o) { return "folder" + std::to_string(o); }

  // Rounds start at fixed times: 15 minutes for the warm-up to fill the
  // caches, then a round every round_ + 10 minutes, which leaves the drain
  // ample time on steady links.
  TimePoint RoundStart(int round) const {
    return TimePoint::Epoch() + Duration::Seconds(900) +
           (round_ + Duration::Seconds(600)) * static_cast<double>(round - 1);
  }

  void Think(uint32_t c) {
    const Duration think = Duration::Seconds(agents_[c].rng.NextExponential(20.0));
    loop()->ScheduleAfter(think, [this, c] { NextOp(c); });
  }

  void NextOp(uint32_t c) {
    if (loop()->now() >= end_) {
      return;  // session over: this user goes idle
    }
    Agent& a = agents_[c];
    const size_t obj = a.zipf.Next();
    if (a.rng.NextDouble() < 0.75) {
      Read(c, obj);
    } else {
      Edit(c, obj, a.rng.NextDouble() < 0.25 ? 3 : 1);
    }
  }

  void Read(uint32_t c, size_t obj) {
    RoverClientNode* node = clients_[c];
    const size_t op = NewOp(c);
    const uint64_t first_rpc = node->qrpc()->next_rpc_id();
    auto imported =
        ctx_.timers->Time(Api::kImport, [&] { return node->access()->Import(FolderName(obj)); });
    imported.OnReady([this, c, op, obj, first_rpc](const ImportResult& r) {
      if (!r.status.ok()) {
        Completed(op, r.status);
        Think(c);
        return;
      }
      if (ctx_.traced) {
        SetFinalImportRpc(op, c, first_rpc);
      }
      auto got = ctx_.timers->Time(Api::kInvoke, [&] {
        return clients_[c]->access()->Invoke(FolderName(obj), "get", {},
                                             AtSite(ExecutionSite::kClient));
      });
      got.OnReady([this, c, op](const InvokeResult& ir) {
        Returned(op, Now());
        Completed(op, ir.status);
        Think(c);
      });
    });
  }

  void Edit(uint32_t c, size_t obj, int edits) {
    auto burst = std::make_shared<Burst>();
    burst->obj = obj;
    const size_t op = NewOp(c);
    auto imported = ctx_.timers->Time(
        Api::kImport, [&] { return clients_[c]->access()->Import(FolderName(obj)); });
    imported.OnReady([this, c, op, burst, edits](const ImportResult& r) {
      if (!r.status.ok()) {
        Completed(op, r.status);
        Think(c);
        return;
      }
      PutAndExport(c, op, burst, edits - 1);
    });
  }

  // One edit: local put, then export once the put returns. `remaining`
  // further edits of the burst follow back to back.
  void PutAndExport(uint32_t c, size_t op, std::shared_ptr<Burst> burst, int remaining) {
    const std::string name = FolderName(burst->obj);
    const std::string id = "c" + std::to_string(c) + "e" + std::to_string(agents_[c].next_edit++);
    auto put = ctx_.timers->Time(Api::kInvoke, [&] {
      return clients_[c]->access()->Invoke(name, "put", {Padded(id, kMessageBytes)},
                                           AtSite(ExecutionSite::kClient));
    });
    put.OnReady([this, c, op, burst, remaining, name, id](const InvokeResult& ir) {
      Returned(op, Now());
      if (!ir.status.ok()) {
        Completed(op, ir.status);
      } else {
        const size_t idx = burst->rpcs.size();
        burst->rpcs.push_back(clients_[c]->qrpc()->next_rpc_id());
        ++burst->outstanding;
        ++exports_issued_;
        auto exported = ctx_.timers->Time(
            Api::kExport, [&] { return clients_[c]->access()->Export(name); });
        exported.OnReady([this, c, op, burst, idx, id](const ExportResult& er) {
          if (er.status.ok()) {
            acked_[burst->obj].insert(id);
          }
          if (ctx_.traced) {
            SetFinalExportRpc(op, c, *burst, idx);
          }
          Completed(op, er.status);
          if (--burst->outstanding == 0 && burst->issued_all) {
            Think(c);
          }
        });
      }
      if (remaining > 0) {
        PutAndExport(c, NewOp(c), burst, remaining - 1);
        return;
      }
      burst->issued_all = true;
      if (burst->outstanding == 0) {
        Think(c);
      }
    });
  }

  // A read's final RPC is its last import request that got a response (a
  // delta fallback re-requests); later ids may be unsubscribes from
  // evictions. Cache hits have none.
  void SetFinalImportRpc(size_t op, uint32_t c, uint64_t first_rpc) {
    const obs::RpcTracer* tracer = clients_[c]->tracer();
    for (uint64_t id = clients_[c]->qrpc()->next_rpc_id(); id-- > first_rpc;) {
      const obs::RpcSpan* span = tracer->Find(id);
      if (span != nullptr && span->Has(obs::RpcEvent::kResponded)) {
        SetRpc(op, id);
        return;
      }
    }
  }

  // A coalesced export is answered by the first later export of its burst
  // that reached the wire.
  void SetFinalExportRpc(size_t op, uint32_t c, const Burst& burst, size_t idx) {
    const obs::RpcTracer* tracer = clients_[c]->tracer();
    for (size_t j = idx; j < burst.rpcs.size(); ++j) {
      const obs::RpcSpan* span = tracer->Find(burst.rpcs[j]);
      if (span != nullptr && !span->Has(obs::RpcEvent::kCoalesced)) {
        SetRpc(op, burst.rpcs[j]);
        return;
      }
    }
  }

  size_t users_ = 0;
  size_t objects_ = 0;
  Duration round_;
  TimePoint end_;
  RoverClientNode* editor_ = nullptr;
  uint64_t editor_edits_ = 0;
  std::vector<Agent> agents_;
  std::vector<std::set<std::string>> acked_;  // per folder: ids of acknowledged edits
  uint64_t exports_issued_ = 0;
};

// ---------------------------------------------------------------------------
// replicated_writes: the write path. Poisson server-site increments on 64
// counters through a primary that ships every transaction to a warm backup.
// The 60 s of load run as six drained 10 s rounds; the primary dies in the
// middle of the last one and the backup serves the rest, so the other
// rounds sample the replicated steady state.

class ReplicatedWrites : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    const bool smoke = ctx_.smoke;
    users_ = smoke ? 8 : 256;
    counters_ = smoke ? 8 : 64;
    rate_ = smoke ? 50 : 2000;
    round_ = Duration::Seconds(smoke ? 6 : 10);

    MakeBed(BenchServerOptions());
    backup_ = bed_->AddBackup("backup", LinkProfile::Ethernet10(), BenchServerOptions());
    for (size_t k = 0; k < counters_; ++k) {
      if (!bed_->server()->rover()->CreateObject(
              MakeRdo(CounterName(k), "lww", kCounterCode, "0")).ok()) {
        Violation("create " + CounterName(k) + " failed");
      }
    }
    ClientNodeOptions copts;
    copts.qrpc.failover_primary = "server";
    copts.qrpc.failover_backup = "backup";
    clients_.reserve(users_);
    for (size_t i = 0; i < users_; ++i) {
      AddUserClient(LinkProfile::WaveLan2(), nullptr, copts);
      bed_->AddLink(ClientName(i), "backup", LinkProfile::WaveLan2());
    }
    bed_->Run();  // backup attach handshake + initial object shipping
    IssueRound(0);  // warm-up: one second of load fills logs, WALs and dup caches
    bed_->Run();
    for (const Op& op : ops()) {
      warm_acked_ += op.ok ? 1 : 0;
    }
    ResetOps();
  }

  int Rounds() const override { return ctx_.smoke ? 1 : 6; }

  void IssueRound(int round) override {
    const TimePoint start = loop()->now() + Duration::Millis(100);
    const Duration length = round == 0 ? Duration::Seconds(1) : round_;
    if (round == Rounds()) {
      kill_at_ = start + round_ * 0.5;
      plan_ = std::make_unique<FaultPlan>(loop(), Mix(ctx_.seed, 3));
      FailoverOptions fopts;
      fopts.at = kill_at_;
      fopts.detection_delay = kDetection;
      plan_->ScheduleFailover(bed_->server(), backup_, clients_, fopts);
      // The sender dies with the primary: read its totals just before.
      loop()->ScheduleAt(kill_at_ - Duration::Micros(1), [this] {
        if (const ReplicationSender* s = bed_->server()->replication_sender()) {
          repl_ = s->stats();
        }
      });
    }
    Rng rng(Mix(ctx_.seed, 10 + static_cast<uint64_t>(round)));
    const double mean_gap_s = 1.0 / static_cast<double>(rate_);
    for (TimePoint t = start + Duration::Seconds(rng.NextExponential(mean_gap_s));
         t < start + length; t += Duration::Seconds(rng.NextExponential(mean_gap_s))) {
      const uint32_t c = static_cast<uint32_t>(rng.NextBelow(users_));
      const size_t k = rng.NextBelow(counters_);
      loop()->ScheduleAt(t, [this, c, k] { Increment(c, k); });
    }
  }

  void Verify() override {
    CheckResolutions(/*deadline_allowed=*/false);
    uint64_t acked = warm_acked_;
    for (const Op& op : ops()) {
      acked += op.ok ? 1 : 0;
    }
    int64_t sum = 0;
    for (size_t k = 0; k < counters_; ++k) {
      auto committed = backup_->store()->Get(CounterName(k));
      if (!committed.ok()) {
        Violation(CounterName(k) + " missing at the backup");
        continue;
      }
      sum += std::strtoll(committed->data.c_str(), nullptr, 10);
    }
    if (sum != static_cast<int64_t>(acked)) {
      Violation("backup counters sum to " + std::to_string(sum) + " but " +
                std::to_string(acked) + " increments were acknowledged");
    }
  }

  std::optional<double> UnavailSeconds() const override {
    const int64_t kill = kill_at_.micros();
    const int64_t served_from = (kill_at_ + kDetection).micros();
    int64_t first = kUnset;
    for (const Op& op : ops()) {
      if (op.ok && op.completed >= served_from) {
        first = std::min(first, op.completed);
      }
    }
    if (first == kUnset) {
      return std::nullopt;
    }
    return static_cast<double>(first - kill) / 1e6;
  }

  void AddCounters(std::map<std::string, double>* counters) const override {
    const ReplicationSender* live = bed_->server()->replication_sender();
    const ReplicationSenderStats& s = live != nullptr ? live->stats() : repl_;
    (*counters)["repl.bytes_shipped"] += static_cast<double>(s.bytes_shipped);
    (*counters)["repl.txns_shipped"] += static_cast<double>(s.transactions_shipped);
    (*counters)["repl.sync_degrades"] += static_cast<double>(s.sync_degrades);
  }

  std::string SizesJson() const override {
    return "{\"clients\": " + std::to_string(users_) + ", \"counters\": " +
           std::to_string(counters_) + ", \"ops_per_s\": " + std::to_string(rate_) +
           ", \"rounds\": " + std::to_string(Rounds()) + ", \"round_s\": " +
           std::to_string(static_cast<int64_t>(round_.seconds())) + "}";
  }

 private:
  static constexpr Duration kDetection = Duration::Millis(200);

  static std::string CounterName(size_t k) { return "ctr" + std::to_string(k); }

  void Increment(uint32_t c, size_t k) {
    RoverClientNode* node = clients_[c];
    const size_t op = NewOp(c);
    // Server-site invoke issues exactly one QRPC, with the next rpc id.
    const uint64_t rpc = node->qrpc()->next_rpc_id();
    SetRpc(op, rpc);
    auto done = ctx_.timers->Time(Api::kInvoke, [&] {
      return node->access()->Invoke(CounterName(k), "incr", {}, AtSite(ExecutionSite::kServer));
    });
    done.OnReady([this, c, op, rpc](const InvokeResult& r) {
      // The caller regains control at the invoke's commit point: the flush
      // of its stable-log record, as for the committed promise of a call.
      const obs::RpcSpan* span = clients_[c]->tracer()->Find(rpc);
      if (span != nullptr && span->Has(obs::RpcEvent::kFlushedDurable)) {
        Returned(op, span->FirstTime(obs::RpcEvent::kFlushedDurable).micros());
      }
      Completed(op, r.status);
    });
  }

  size_t users_ = 0;
  size_t counters_ = 0;
  size_t rate_ = 0;
  Duration round_;
  TimePoint kill_at_;
  RoverServerNode* backup_ = nullptr;
  std::unique_ptr<FaultPlan> plan_;
  ReplicationSenderStats repl_;  // the primary's totals just before it died
  uint64_t warm_acked_ = 0;      // increments acknowledged during the warm-up
};

// ---------------------------------------------------------------------------
// flappy_fanout: far timers, cancel churn and parked queues. WaveLAN users
// on seeded up/down links subscribe to hot objects and send deadline-bound
// logged QRPCs while the server edits a hot object every 200 ms, fanning out
// TTL-bound invalidations to hundreds of subscribers. The 120 s of load run
// as six drained 20 s rounds while the links keep flapping.

class FlappyFanout : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    const bool smoke = ctx_.smoke;
    users_ = smoke ? 40 : 2000;
    objects_ = smoke ? 8 : 32;
    round_ = Duration::Seconds(smoke ? 30 : 20);

    ServerNodeOptions server = BenchServerOptions();
    server.rover.invalidation_ttl = Duration::Seconds(10);
    // Keep every subscription for the whole window so the fan-out width
    // stays what the workload configures.
    server.rover.subscriber_drop_after_failures = 0;
    MakeBed(std::move(server));
    bed_->server()->qrpc()->RegisterHandler("echo", EchoHandler());
    for (size_t o = 0; o < objects_; ++o) {
      const std::vector<std::string> messages =
          PaddedList("h" + std::to_string(o), kMessages, kMessageBytes);
      if (!bed_->server()->rover()->CreateObject(
              MakeRdo(HotName(o), "set", ListCode(kMessages), TclListJoin(messages))).ok()) {
        Violation("create " + HotName(o) + " failed");
      }
    }
    editor_ = bed_->AddClient("editor", LinkProfile::Ethernet10());

    // Up ~20 s, outages ~8 s capped at 12 s, so a 15 s deadline is never
    // missed; a round plus its drain takes under 40 s.
    const Flapping wireless{Duration::Seconds(20), Duration::Seconds(2), Duration::Seconds(8),
                            Duration::Seconds(12)};
    const std::vector<Window> window = {
        {WindowStart(), WindowStart() + Duration::Seconds(40) * Rounds()}};
    ClientNodeOptions copts;
    copts.access.subscribe_on_import = true;
    clients_.reserve(users_);
    for (size_t i = 0; i < users_; ++i) {
      Rng rng(Mix(ctx_.seed, 1000 + i));
      AddUserClient(LinkProfile::WaveLan2(), FlappyLink(&rng, wireless, window), copts);
    }
    // Warm-up: every user imports (and so subscribes to) its hot objects.
    ZipfSampler zipf(objects_, 0.9, Mix(ctx_.seed, 5));
    for (RoverClientNode* node : clients_) {
      std::vector<size_t> mine;
      while (mine.size() < kSubscriptions) {
        const size_t o = zipf.Next();
        if (std::find(mine.begin(), mine.end(), o) == mine.end()) {
          mine.push_back(o);
        }
      }
      for (size_t o : mine) {
        node->access()->Import(HotName(o));
      }
    }
    bed_->Run();
    for (RoverClientNode* node : clients_) {
      if (node->access()->CachedObjectCount() != kSubscriptions) {
        Violation(node->host_name() + " did not import its hot objects");
      }
    }
    if (loop()->now() >= WindowStart()) {
      Violation("warm-up ran past the start of the measured window");
    }
  }

  int Rounds() const override { return ctx_.smoke ? 1 : 6; }

  void IssueRound(int round) override {
    const TimePoint start = std::max(WindowStart(), loop()->now() + Duration::Millis(100));
    const TimePoint end = start + round_;
    Rng rng(Mix(ctx_.seed, 20 + static_cast<uint64_t>(round)));
    QrpcCallOptions options;
    options.deadline = Duration::Seconds(15);
    for (uint32_t c = 0; c < users_; ++c) {
      const Duration phase = Duration::Micros(static_cast<int64_t>(rng.NextBelow(5'000'000)));
      for (TimePoint t = start + phase; t < end; t += Duration::Seconds(5)) {
        const size_t bytes = 96 + rng.NextBelow(65);
        loop()->ScheduleAt(t, [this, c, bytes, options] { IssueEcho(c, bytes, options); });
      }
    }
    ZipfSampler zipf(objects_, 0.9, Mix(ctx_.seed, 40 + static_cast<uint64_t>(round)));
    for (TimePoint t = start + Duration::Millis(200); t < end; t += Duration::Millis(200)) {
      const std::string name = HotName(zipf.Next());
      const std::string message = Padded("ed" + std::to_string(editor_edits_++), kMessageBytes);
      loop()->ScheduleAt(t, [this, name, message] {
        editor_->access()
            ->Invoke(name, "put", {message}, AtSite(ExecutionSite::kServer))
            .OnReady([this](const InvokeResult& r) {
              if (!r.status.ok()) {
                Violation("server edit failed: " + r.status.ToString());
              }
            });
      });
    }
  }

  void Verify() override { CheckResolutions(/*deadline_allowed=*/true); }

  std::string SizesJson() const override {
    return "{\"clients\": " + std::to_string(users_) + ", \"hot_objects\": " +
           std::to_string(objects_) + ", \"rounds\": " + std::to_string(Rounds()) +
           ", \"round_s\": " + std::to_string(static_cast<int64_t>(round_.seconds())) + "}";
  }

 private:
  static constexpr size_t kSubscriptions = 4;
  static constexpr size_t kMessages = 8;  // per hot object: 8 x 63 B = 512 B
  static constexpr size_t kMessageBytes = 63;

  static std::string HotName(size_t o) { return "hot" + std::to_string(o); }
  // The warm-up runs on steady links; flapping starts here.
  static TimePoint WindowStart() { return TimePoint::Epoch() + Duration::Seconds(30); }

  size_t users_ = 0;
  size_t objects_ = 0;
  Duration round_;
  RoverClientNode* editor_ = nullptr;
  uint64_t editor_edits_ = 0;
};

// ---------------------------------------------------------------------------
// Harness

const char* const kWorkloads[] = {"fanin_echo", "mobile_sync", "replicated_writes",
                                  "flappy_fanout"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Context ctx) {
  if (name == "fanin_echo") return std::make_unique<FaninEcho>(ctx);
  if (name == "mobile_sync") return std::make_unique<MobileSync>(ctx);
  if (name == "replicated_writes") return std::make_unique<ReplicatedWrites>(ctx);
  if (name == "flappy_fanout") return std::make_unique<FlappyFanout>(ctx);
  return nullptr;
}

using Counters = std::map<std::string, double>;

// Sums the counters the per-layer ratios need over every node and link.
Counters CaptureCounters(Workload& w) {
  Testbed* bed = w.bed();
  static const char* const kNodeCounters[] = {
      "scheduler.messages_enqueued", "scheduler.messages_expired", "scheduler.messages_shed",
      "scheduler.frames_sent",       "scheduler.retries",          "stable_log.appends",
      "stable_log.flushes",          "qrpc_client.coalesced",      "qrpc_server.duplicates",
      "access_manager.cache_hits",   "access_manager.cache_misses", "access_manager.delta_hits",
      "access_manager.delta_full",   "access_manager.delta_fallbacks"};
  constexpr size_t kNum = sizeof(kNodeCounters) / sizeof(kNodeCounters[0]);
  double sums[kNum] = {};
  auto add_node = [&](const obs::Registry* registry) {
    for (size_t k = 0; k < kNum; ++k) {
      sums[k] += static_cast<double>(registry->CounterValue(kNodeCounters[k]));
    }
  };
  Counters c;
  for (RoverClientNode* node : bed->AllClients()) {
    add_node(node->metrics());
  }
  for (RoverServerNode* node : bed->AllServers()) {
    add_node(node->metrics());
    c["wal.flushes"] += static_cast<double>(node->stable_store()->wal()->stats().flushes);
    c["wal.txns"] += static_cast<double>(node->stable_store()->stats().transactions_logged);
    if (!node->dead()) {
      const RoverServerStats& rs = node->rover()->stats();
      c["invalidations_sent"] += static_cast<double>(rs.invalidations_sent);
      c["invalidations_expired"] += static_cast<double>(rs.invalidations_expired);
    }
  }
  for (size_t k = 0; k < kNum; ++k) {
    c[kNodeCounters[k]] = sums[k];
  }
  for (const auto& link : bed->network()->all_links()) {
    c["wire_bytes"] += static_cast<double>(link->stats().wire_bytes);
  }
  c["copy_bytes"] = static_cast<double>(PayloadCopyBytes());
  c["scan_steps"] = static_cast<double>(HostLinkScanSteps());
  w.AddCounters(&c);
  return c;
}

struct LoopStats {
  uint64_t events = 0;
  int64_t step_ns = 0;  // traced: time inside EventLoop::Step
  size_t wheel_max = 0;
  size_t heap_max = 0;
};

// Runs the loop to quiescence. A traced drive steps one event at a time so
// it can time the loop and sample its wheel and heap occupancy; both drives
// execute the identical event sequence.
void Drive(EventLoop* loop, bool traced, LoopStats* stats) {
  if (!traced) {
    stats->events += loop->Run();
    return;
  }
  const int64_t t0 = WallNs();
  uint64_t n = 0;
  while (loop->Step()) {
    if ((++n & 63) == 0) {
      stats->wheel_max = std::max(stats->wheel_max, loop->wheel_resident_events());
      stats->heap_max = std::max(stats->heap_max, loop->heap_physical_size());
    }
  }
  stats->step_ns += WallNs() - t0;
  stats->events += n;
}

constexpr size_t kNumZones = static_cast<size_t>(obs::CpuZone::kCount);

// Everything one run learns. Simulated results come from the first rep
// (every rep must reproduce them bit for bit); host timings pool all reps.
struct Measurement {
  std::string sizes;
  std::vector<std::string> violations;
  int reps = 0;
  int traced_reps = 0;
  double peak_rss_mib = 0;
  std::vector<double> setup_s;
  std::vector<double> ops_per_cpu_untraced;
  std::vector<double> ops_per_cpu_traced;

  uint64_t digest = 0;
  std::vector<Op> ops;
  std::vector<std::pair<size_t, size_t>> rounds;  // op index ranges
  Counters delta;                                  // measured rounds only
  uint64_t events = 0;
  std::optional<double> unavail_s;

  // Traced reps.
  std::vector<Boundaries> bounds;  // first traced rep, parallel to `ops`
  ApiTotal api[kNumApis];
  LoopStats loop;
  double traced_cpu_s = 0;
  uint64_t traced_ops = 0;
  uint64_t zone_cycles[kNumZones] = {};
};

uint64_t Fnv(uint64_t h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Fingerprint of every simulated result of a rep.
uint64_t SimDigest(const std::vector<Op>& ops, const Counters& delta, uint64_t events) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Op& op : ops) {
    h = Fnv(h, op.issued);
    h = Fnv(h, op.returned);
    h = Fnv(h, op.completed);
    h = Fnv(h, static_cast<int64_t>(op.code));
  }
  h = Fnv(h, static_cast<int64_t>(delta.at("wire_bytes")));
  return Fnv(h, static_cast<int64_t>(events));
}

void Accumulate(ApiTotal* into, const ApiTotal& from) {
  into->count += from.count;
  into->total_ns += from.total_ns;
  into->samples_ns.insert(into->samples_ns.end(), from.samples_ns.begin(),
                          from.samples_ns.end());
}

// One bed: set-up (timed), the measured rounds, then the correctness checks.
void RunRep(const std::string& name, uint64_t seed, bool smoke, bool traced, Measurement* m) {
  CallTimers timers;
  timers.set_enabled(traced);
  check::SimCheck simcheck;
  Context ctx{seed, smoke, traced, &timers, smoke ? &simcheck : nullptr};
  std::unique_ptr<Workload> w = MakeWorkload(name, ctx);

  const double setup_cpu0 = ProcessCpuSeconds();
  w->Setup();
  m->setup_s.push_back(ProcessCpuSeconds() - setup_cpu0);
  if (traced) {
    Accumulate(&m->api[static_cast<size_t>(Api::kAddClient)], timers.total(Api::kAddClient));
  }
  timers.Reset();

  auto& attr = obs::CpuAttribution::Instance();
  const Counters before = CaptureCounters(*w);
  LoopStats loop;
  std::vector<std::pair<size_t, size_t>> rounds;
  for (int r = 1; r <= w->Rounds(); ++r) {
    const size_t first = w->ops().size();
    if (traced) {
      attr.Reset();
      attr.set_enabled(true);
    }
    const double cpu0 = ProcessCpuSeconds();
    w->IssueRound(r);
    Drive(w->bed()->loop(), traced, &loop);
    const double cpu = ProcessCpuSeconds() - cpu0;
    uint64_t ok = 0;
    for (size_t i = first; i < w->ops().size(); ++i) {
      ok += w->ops()[i].ok ? 1 : 0;
    }
    if (traced) {
      attr.set_enabled(false);
      for (size_t z = 0; z < kNumZones; ++z) {
        m->zone_cycles[z] += attr.totals(static_cast<obs::CpuZone>(z)).cycles;
      }
      m->traced_cpu_s += cpu;
      m->traced_ops += w->ops().size() - first;
      m->ops_per_cpu_traced.push_back(static_cast<double>(ok) / cpu);
    } else {
      m->ops_per_cpu_untraced.push_back(static_cast<double>(ok) / cpu);
    }
    rounds.emplace_back(first, w->ops().size());
  }
  timers.set_enabled(false);
  if (m->reps == 0) {
    m->peak_rss_mib = PeakRssMib();  // one bed, before later reps add allocator churn
  }
  Counters delta = CaptureCounters(*w);
  for (auto& [key, value] : delta) {
    value -= before.count(key) > 0 ? before.at(key) : 0;
  }
  const uint64_t digest = SimDigest(w->ops(), delta, loop.events);

  w->Verify();
  if (smoke) {
    simcheck.CheckQuiesced();
    if (!simcheck.ok()) {
      m->violations.push_back("SimCheck: " + simcheck.Report());
    }
  }
  for (const std::string& v : w->violations()) {
    m->violations.push_back(v);
  }

  if (m->reps == 0) {
    m->sizes = w->SizesJson();
    m->digest = digest;
    m->ops = w->ops();
    m->rounds = rounds;
    m->delta = delta;
    m->events = loop.events;
    m->unavail_s = w->UnavailSeconds();
  } else if (digest != m->digest) {
    m->violations.push_back("simulated results differ between reps of one seed (rep " +
                            std::to_string(m->reps) + ")");
  }
  if (traced) {
    if (m->traced_reps == 0) {
      m->bounds = w->boundaries();
      m->bounds.resize(w->ops().size());
    }
    for (size_t a = 0; a < kNumApis; ++a) {
      if (static_cast<Api>(a) != Api::kAddClient) {
        Accumulate(&m->api[a], timers.total(static_cast<Api>(a)));
      }
    }
    m->loop.step_ns += loop.step_ns;
    m->loop.wheel_max = std::max(m->loop.wheel_max, loop.wheel_max);
    m->loop.heap_max = std::max(m->loop.heap_max, loop.heap_max);
    ++m->traced_reps;
  }
  ++m->reps;
}

// Set-up only: one more setup_s sample for workloads whose set-up is short.
void RunSetupOnly(const std::string& name, uint64_t seed, Measurement* m) {
  CallTimers timers;
  Context ctx{seed, false, false, &timers, nullptr};
  std::unique_ptr<Workload> w = MakeWorkload(name, ctx);
  const double cpu0 = ProcessCpuSeconds();
  w->Setup();
  m->setup_s.push_back(ProcessCpuSeconds() - cpu0);
}

// ---------------------------------------------------------------------------
// Metrics

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out.push_back(ch);
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string extra;  // further JSON members, e.g. sample counts
};

struct Latency {
  double p50_ms = 0;
  double p999_ms = 0;
  size_t n = 0;
  size_t beyond_p999 = 0;
};

// Simulated-latency percentiles; kUnset samples (failed or never resolved)
// count as missing any limit.
Latency LatencyOf(std::vector<int64_t> us) {
  std::sort(us.begin(), us.end());
  Latency l;
  l.n = us.size();
  if (us.empty()) {
    return l;
  }
  auto ms = [](int64_t v) {
    return v == kUnset ? std::numeric_limits<double>::infinity() : static_cast<double>(v) / 1e3;
  };
  l.p50_ms = ms(Quantile(us, 0.5));
  l.p999_ms = ms(Quantile(us, 0.999));
  l.beyond_p999 = us.size() - static_cast<size_t>(std::ceil(0.999 * static_cast<double>(us.size())));
  return l;
}

std::string SampleExtra(const Latency& l) {
  return "\"samples\": " + std::to_string(l.n) + ", \"beyond_p999\": " +
         std::to_string(l.beyond_p999);
}

std::string SpreadExtra(const Spread& s) {
  return "\"samples\": " + std::to_string(s.n) + ", \"q1\": " + Num(s.q1) + ", \"q3\": " +
         Num(s.q3);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEnd(const Measurement& m) {
  std::vector<Metric> out;
  const Spread setup = SpreadOf(m.setup_s);
  out.push_back({"setup_s", setup.median, "s", SpreadExtra(setup)});
  if (!m.ops_per_cpu_untraced.empty()) {
    const Spread cpu = SpreadOf(m.ops_per_cpu_untraced);
    out.push_back({"ops_per_cpu_s", cpu.median, "ops/s", SpreadExtra(cpu)});
  }
  out.push_back({"peak_rss_mib", m.peak_rss_mib, "MiB", ""});

  std::vector<int64_t> op_us;
  std::vector<int64_t> return_us;
  uint64_t failed = 0;
  for (const Op& op : m.ops) {
    const bool done = op.ok && op.completed != kUnset;
    failed += done ? 0 : 1;
    op_us.push_back(done ? op.completed - op.issued : kUnset);
    return_us.push_back(op.returned != kUnset ? op.returned - op.issued : kUnset);
  }
  const Latency op_lat = LatencyOf(op_us);
  const Latency ret_lat = LatencyOf(return_us);
  out.push_back({"op_p50_ms", op_lat.p50_ms, "ms", SampleExtra(op_lat)});
  out.push_back({"op_p999_ms", op_lat.p999_ms, "ms", SampleExtra(op_lat)});
  out.push_back({"return_p50_ms", ret_lat.p50_ms, "ms", SampleExtra(ret_lat)});
  out.push_back({"return_p999_ms", ret_lat.p999_ms, "ms", SampleExtra(ret_lat)});
  const double attempted = static_cast<double>(m.ops.size());
  out.push_back({"failed_frac", Ratio(static_cast<double>(failed), attempted), "ratio",
                 "\"failed\": " + std::to_string(failed)});
  out.push_back({"wire_bytes_per_op", Ratio(m.delta.at("wire_bytes"), attempted), "B", ""});

  double drain_sum = 0;
  for (const auto& [first, end] : m.rounds) {
    int64_t last_issue = 0;
    int64_t last_done = 0;
    for (size_t i = first; i < end; ++i) {
      last_issue = std::max(last_issue, m.ops[i].issued);
      if (m.ops[i].completed != kUnset) {
        last_done = std::max(last_done, m.ops[i].completed);
      }
    }
    drain_sum += static_cast<double>(last_done - last_issue) / 1e6;
  }
  out.push_back({"drain_s", Ratio(drain_sum, static_cast<double>(m.rounds.size())), "s",
                 "\"rounds\": " + std::to_string(m.rounds.size())});
  if (m.unavail_s.has_value()) {
    out.push_back({"unavail_s", *m.unavail_s, "s", ""});
  }
  return out;
}

// Per-op chain of layer intervals: pre (client work before the final RPC),
// log wait, queue wait, then either uplink/execute/release around the bench
// handler or retry/remote, and post (install after the response). The
// parts telescope, so any residual means a boundary is missing or out of
// order.
struct LayerSamples {
  std::vector<int64_t> log_wait, queue_wait, uplink, release, remote;
  uint64_t rpc_ops = 0;
  uint64_t attempts = 0;
  int64_t max_residual = 0;
};

LayerSamples Layers(const Measurement& m) {
  LayerSamples s;
  for (size_t i = 0; i < m.ops.size() && i < m.bounds.size(); ++i) {
    const Op& op = m.ops[i];
    const Boundaries& b = m.bounds[i];
    if (op.completed == kUnset) {
      continue;
    }
    const int64_t total = op.completed - op.issued;
    if (op.rpc_id == 0) {
      continue;  // served locally: the whole op is client time
    }
    if (b.enqueued < 0 || b.flushed < 0 || b.first_tx < 0 || b.responded < 0) {
      s.max_residual = std::max(s.max_residual, total);
      continue;
    }
    std::vector<int64_t> parts = {b.enqueued - op.issued, b.flushed - b.enqueued,
                                  b.first_tx - b.flushed};
    if (b.entry >= 0) {
      parts.push_back(b.entry - b.first_tx);
      parts.push_back(b.respond - b.entry);
      parts.push_back(b.responded - b.respond);
      s.uplink.push_back(b.entry - b.first_tx);
      s.release.push_back(b.responded - b.respond);
    } else {
      parts.push_back(b.last_tx - b.first_tx);
      parts.push_back(b.responded - b.last_tx);
    }
    parts.push_back(op.completed - b.responded);
    int64_t attributed = 0;
    for (int64_t p : parts) {
      attributed += std::max<int64_t>(p, 0);
    }
    s.max_residual = std::max(s.max_residual, std::abs(total - attributed));
    s.log_wait.push_back(b.flushed - b.enqueued);
    s.queue_wait.push_back(b.first_tx - b.flushed);
    s.remote.push_back(b.responded - b.last_tx);
    ++s.rpc_ops;
    s.attempts += b.attempts;
  }
  return s;
}

std::vector<Metric> PerLayer(const Measurement& m) {
  std::vector<Metric> out;
  const double ops = static_cast<double>(m.traced_ops);
  const Counters& d = m.delta;
  auto api_mean = [&](Api api, double scale) {
    const ApiTotal& t = m.api[static_cast<size_t>(api)];
    return Ratio(static_cast<double>(t.total_ns), static_cast<double>(t.count)) / scale;
  };
  auto api_extra = [&](Api api) {
    ApiTotal t = m.api[static_cast<size_t>(api)];
    std::sort(t.samples_ns.begin(), t.samples_ns.end());
    return "\"calls\": " + std::to_string(t.count) + ", \"total_ns\": " +
           std::to_string(t.total_ns) + ", \"p50_ns\": " +
           std::to_string(Quantile(t.samples_ns, 0.5));
  };
  out.push_back({"core.add_client_us", api_mean(Api::kAddClient, 1e3), "us",
                 api_extra(Api::kAddClient)});
  out.push_back({"qrpc.call_ns", api_mean(Api::kQrpcCall, 1), "ns", api_extra(Api::kQrpcCall)});
  out.push_back({"cache.import_ns", api_mean(Api::kImport, 1), "ns", api_extra(Api::kImport)});
  out.push_back({"cache.invoke_ns", api_mean(Api::kInvoke, 1), "ns", api_extra(Api::kInvoke)});
  out.push_back({"cache.export_ns", api_mean(Api::kExport, 1), "ns", api_extra(Api::kExport)});
  int64_t api_ns = 0;
  for (Api api : {Api::kQrpcCall, Api::kImport, Api::kInvoke, Api::kExport}) {
    api_ns += m.api[static_cast<size_t>(api)].total_ns;
  }
  out.push_back({"client.api_ns_per_op", Ratio(static_cast<double>(api_ns), ops), "ns", ""});

  const double cpu_ns_per_op = Ratio(m.traced_cpu_s * 1e9, ops);
  out.push_back({"sim.step_ns_per_op", Ratio(static_cast<double>(m.loop.step_ns), ops), "ns",
                 ""});
  out.push_back({"sim.events_per_op",
                 Ratio(static_cast<double>(m.events), static_cast<double>(m.ops.size())), "count",
                 ""});
  static const std::pair<obs::CpuZone, const char*> kZones[] = {
      {obs::CpuZone::kEventLoopPop, "sim.pop_ns_per_op"},
      {obs::CpuZone::kConnectivity, "sim.connectivity_ns_per_op"},
      {obs::CpuZone::kSchedulerDispatch, "transport.dispatch_ns_per_op"},
      {obs::CpuZone::kMarshal, "transport.marshal_ns_per_op"},
      {obs::CpuZone::kWalFlush, "qrpc.wal_flush_ns_per_op"},
      {obs::CpuZone::kInvalidationFanout, "store.fanout_ns_per_op"}};
  const double cps = obs::CpuAttribution::Instance().CyclesPerSecond();
  double attributed = 0;
  for (const auto& [zone, metric] : kZones) {
    const double ns = Ratio(static_cast<double>(m.zone_cycles[static_cast<size_t>(zone)]) /
                                cps * 1e9,
                            ops);
    attributed += ns;
    out.push_back({metric, ns, "ns", ""});
  }
  out.push_back({"cpu_ns_per_op", cpu_ns_per_op, "ns", ""});
  out.push_back({"cpu_residual_ns_per_op", cpu_ns_per_op - attributed, "ns", ""});

  const double sim_ops = static_cast<double>(m.ops.size());
  out.push_back({"sim.link_scan_steps_per_op", Ratio(d.at("scan_steps"), sim_ops), "count", ""});
  out.push_back({"sim.wheel_resident_max", static_cast<double>(m.loop.wheel_max), "count", ""});
  out.push_back({"sim.heap_physical_max", static_cast<double>(m.loop.heap_max), "count", ""});
  out.push_back({"util.copy_bytes_per_op", Ratio(d.at("copy_bytes"), sim_ops), "B", ""});

  const LayerSamples s = Layers(m);
  const Latency log_wait = LatencyOf(s.log_wait);
  const Latency queue_wait = LatencyOf(s.queue_wait);
  const Latency uplink = LatencyOf(s.uplink);
  const Latency release = LatencyOf(s.release);
  const Latency remote = LatencyOf(s.remote);
  out.push_back({"qrpc.log_wait_ms_p50", log_wait.p50_ms, "ms", SampleExtra(log_wait)});
  out.push_back({"qrpc.log_wait_ms_p999", log_wait.p999_ms, "ms", SampleExtra(log_wait)});
  out.push_back({"qrpc.log_flushes_per_append",
                 Ratio(d.at("stable_log.flushes"), d.at("stable_log.appends")), "ratio", ""});
  out.push_back({"transport.queue_wait_ms_p50", queue_wait.p50_ms, "ms", SampleExtra(queue_wait)});
  out.push_back({"transport.queue_wait_ms_p999", queue_wait.p999_ms, "ms",
                 SampleExtra(queue_wait)});
  out.push_back({"transport.uplink_ms_p50", uplink.p50_ms, "ms", SampleExtra(uplink)});
  out.push_back({"store.release_ms_p50", release.p50_ms, "ms", SampleExtra(release)});
  out.push_back({"store.release_ms_p999", release.p999_ms, "ms", SampleExtra(release)});
  out.push_back({"qrpc.remote_ms_p50", remote.p50_ms, "ms", SampleExtra(remote)});
  out.push_back({"qrpc.remote_ms_p999", remote.p999_ms, "ms", SampleExtra(remote)});
  out.push_back({"breakdown_residual_ms", static_cast<double>(s.max_residual) / 1e3, "ms",
                 "\"rpc_ops\": " + std::to_string(s.rpc_ops)});

  out.push_back({"transport.attempts_per_op",
                 Ratio(static_cast<double>(s.attempts), static_cast<double>(s.rpc_ops)), "count",
                 ""});
  out.push_back({"transport.retries_per_op", Ratio(d.at("scheduler.retries"), sim_ops), "count",
                 ""});
  out.push_back({"transport.frames_per_op", Ratio(d.at("scheduler.frames_sent"), sim_ops),
                 "count", ""});
  out.push_back({"transport.expired_frac",
                 Ratio(d.at("scheduler.messages_expired"), d.at("scheduler.messages_enqueued")),
                 "ratio", ""});
  out.push_back({"transport.shed_frac",
                 Ratio(d.at("scheduler.messages_shed"), d.at("scheduler.messages_enqueued")),
                 "ratio", ""});
  const double hits = d.at("access_manager.cache_hits");
  out.push_back({"cache.hit_ratio", Ratio(hits, hits + d.at("access_manager.cache_misses")),
                 "ratio", ""});
  const double delta_hits = d.at("access_manager.delta_hits");
  out.push_back({"cache.delta_hit_ratio",
                 Ratio(delta_hits, delta_hits + d.at("access_manager.delta_full") +
                                       d.at("access_manager.delta_fallbacks")),
                 "ratio", ""});
  const double exports = d.count("exports_issued") > 0 ? d.at("exports_issued") : 0;
  out.push_back({"qrpc.coalesced_per_export", Ratio(d.at("qrpc_client.coalesced"), exports),
                 "ratio", ""});
  out.push_back({"store.wal_flushes_per_txn", Ratio(d.at("wal.flushes"), d.at("wal.txns")),
                 "ratio", ""});
  const double repl_txns = d.count("repl.txns_shipped") > 0 ? d.at("repl.txns_shipped") : 0;
  const double repl_bytes = d.count("repl.bytes_shipped") > 0 ? d.at("repl.bytes_shipped") : 0;
  out.push_back({"store.repl_bytes_per_txn", Ratio(repl_bytes, repl_txns), "B", ""});
  out.push_back({"store.repl_sync_degrades",
                 d.count("repl.sync_degrades") > 0 ? d.at("repl.sync_degrades") : 0, "count", ""});
  out.push_back({"qrpc.server_duplicates_per_op", Ratio(d.at("qrpc_server.duplicates"), sim_ops),
                 "count", ""});
  const double inval = d.count("invalidations_sent") > 0 ? d.at("invalidations_sent") : 0;
  const double inval_expired =
      d.count("invalidations_expired") > 0 ? d.at("invalidations_expired") : 0;
  out.push_back({"store.invalidations_per_op", Ratio(inval, sim_ops), "count", ""});
  out.push_back({"store.invalidation_expired_frac", Ratio(inval_expired, inval), "ratio", ""});
  if (!m.ops_per_cpu_untraced.empty() && !m.ops_per_cpu_traced.empty()) {
    out.push_back({"trace.overhead_ratio",
                   SpreadOf(m.ops_per_cpu_untraced).median / SpreadOf(m.ops_per_cpu_traced).median,
                   "ratio", ""});
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& mt = metrics[i];
    out += (i == 0 ? "" : ", ") + Quote(mt.name) + ": {\"value\": " + Num(mt.value) +
           ", \"unit\": " + Quote(mt.unit) + (mt.extra.empty() ? "" : ", " + mt.extra) + "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& mt : metrics) {
    std::printf("  %-34s %16.6f %-6s %s\n", mt.name.c_str(), mt.value, mt.unit.c_str(),
                mt.extra.c_str());
  }
}

// Per-op boundaries of the first traced rep: each op's child spans are the
// intervals between consecutive present boundaries, its parent the op.
bool WriteTrace(const std::string& path, const std::string& workload, uint64_t seed,
                const Measurement& m) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\"workload\": %s, \"seed\": %llu, \"time_unit\": \"simulated us\",\n"
               " \"fields\": [\"client\", \"rpc_id\", \"issued\", \"enqueued\", "
               "\"flushed_durable\", \"first_transmitted\", \"handler_entry\", "
               "\"handler_respond\", \"last_transmitted\", \"responded\", \"returned\", "
               "\"completed\", \"ok\"],\n \"ops\": [\n",
               Quote(workload).c_str(), static_cast<unsigned long long>(seed));
  auto t = [](int64_t v) { return v == kUnset ? int64_t{-1} : v; };
  for (size_t i = 0; i < m.ops.size(); ++i) {
    const Op& op = m.ops[i];
    const Boundaries b = i < m.bounds.size() ? m.bounds[i] : Boundaries{};
    std::fprintf(f, "  [%u, %llu, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %d]%s\n",
                 op.client, static_cast<unsigned long long>(op.rpc_id),
                 static_cast<long long>(op.issued), static_cast<long long>(b.enqueued),
                 static_cast<long long>(b.flushed), static_cast<long long>(b.first_tx),
                 static_cast<long long>(b.entry), static_cast<long long>(b.respond),
                 static_cast<long long>(b.last_tx), static_cast<long long>(b.responded),
                 static_cast<long long>(t(op.returned)), static_cast<long long>(t(op.completed)),
                 op.ok ? 1 : 0, i + 1 == m.ops.size() ? "" : ",");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Entry points

constexpr int kMinReps = 2;
constexpr int kMaxReps = 40;
constexpr size_t kMinSetupSamples = 3;
constexpr size_t kMaxSetupSamples = 50;
constexpr double kSetupCpuTarget = 1.0;  // s of summed set-up CPU
// Every workload must give p99.9 at least ten samples beyond it.
constexpr size_t kMinOps = 10000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

int RunBenchmark(const Options& opt) {
  if (opt.trace) {
    obs::CpuAttribution::Instance().CyclesPerSecond();  // calibrate outside any window
  }
  Measurement m;
  const int64_t start = WallNs();
  // Reps repeat the same seed until the time budget is spent. Traced runs
  // alternate traced and untraced reps so the overhead is measured too.
  while (m.reps < kMinReps ||
         (m.reps < kMaxReps && static_cast<double>(WallNs() - start) / 1e9 < opt.seconds)) {
    RunRep(opt.workload, opt.seed, /*smoke=*/false, opt.trace && m.reps % 2 == 0, &m);
  }
  double setup_total = 0;
  for (double s : m.setup_s) {
    setup_total += s;
  }
  while (m.setup_s.size() < kMinSetupSamples ||
         (m.setup_s.size() < kMaxSetupSamples && setup_total < kSetupCpuTarget)) {
    RunSetupOnly(opt.workload, opt.seed, &m);
    setup_total += m.setup_s.back();
  }
  if (m.ops.size() < kMinOps) {
    m.violations.push_back("only " + std::to_string(m.ops.size()) + " ops measured; need " +
                           std::to_string(kMinOps) + " for p99.9");
  }

  const std::vector<Metric> e2e = EndToEnd(m);
  std::vector<Metric> layers;
  if (opt.trace) {
    layers = PerLayer(m);
    for (const Metric& mt : layers) {
      if (mt.name == "breakdown_residual_ms" && mt.value != 0) {
        m.violations.push_back("per-layer parts do not sum to the op latency");
      }
    }
  }
  uint64_t failed = 0;
  for (const Op& op : m.ops) {
    failed += op.ok ? 0 : 1;
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(m.digest));

  std::printf("workload %s  seed %llu  reps %d (traced %d)  sizes %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), m.reps, m.traced_reps, m.sizes.c_str());
  PrintTable("end-to-end:", e2e);
  if (opt.trace) {
    PrintTable("per-layer:", layers);
  }
  for (const std::string& v : m.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  if (opt.trace && !opt.trace_out.empty() && !WriteTrace(opt.trace_out, opt.workload, opt.seed, m)) {
    m.violations.push_back("could not write " + opt.trace_out);
  }

  std::string violations = "[";
  for (size_t i = 0; i < m.violations.size(); ++i) {
    violations += (i == 0 ? "" : ", ") + Quote(m.violations[i]);
  }
  violations += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"correct\": %s, \"attempted\": %zu, "
      "\"failed\": %llu, \"reps\": %d, \"traced_reps\": %d, \"events\": %llu, "
      "\"sim_digest\": \"%s\", \"sizes\": %s, \"violations\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s}\n",
      Quote(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? "true" : "false", m.violations.empty() ? "true" : "false", m.ops.size(),
      static_cast<unsigned long long>(failed), m.reps, m.traced_reps,
      static_cast<unsigned long long>(m.events), digest, m.sizes.c_str(), violations.c_str(),
      MetricsJson(e2e).c_str(), MetricsJson(layers).c_str());
  return m.violations.empty() ? 0 : 1;
}

// Every workload at toy size, traced, with SimCheck attached: a fast
// end-to-end check of the harness and of the toolkit's invariants.
int RunSmoke() {
  obs::CpuAttribution::Instance().CyclesPerSecond();
  int failures = 0;
  for (const char* name : kWorkloads) {
    Measurement m;
    RunRep(name, /*seed=*/1, /*smoke=*/true, /*traced=*/true, &m);
    RunRep(name, /*seed=*/1, /*smoke=*/true, /*traced=*/false, &m);
    const bool ok = m.violations.empty() && !m.ops.empty();
    std::printf("%-18s %s  ops %zu  digest %016llx\n", name, ok ? "PASS" : "FAIL", m.ops.size(),
                static_cast<unsigned long long>(m.digest));
    for (const std::string& v : m.violations) {
      std::printf("  VIOLATION: %s\n", v.c_str());
    }
    failures += ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rover_bench --workload NAME [--seed N] [--seconds S] [--trace] "
               "[--trace-out FILE]\n       rover_bench --smoke\n"
               "workloads: fanin_echo mobile_sync replicated_writes flappy_fanout\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (smoke) {
    return RunSmoke();
  }
  if (MakeWorkload(opt.workload, Context{}) == nullptr) {
    return Usage();
  }
  return RunBenchmark(opt);
}
