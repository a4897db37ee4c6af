// Observability walkthrough: runs a mobile client through a disconnect/
// reconnect cycle and dumps the unified metrics registry (text and JSON)
// plus the per-RPC lifecycle trace. Each QRPC's span shows the queued-RPC
// pipeline from the paper: enqueued -> logged -> flushed (durable) ->
// transmitted (once per send attempt) -> responded. The workload also
// exercises the bandwidth hot path so the delta-import and operation-
// coalescing counters show live values.

#include <cstdio>

#include "src/core/toolkit.h"

using namespace rover;

int main() {
  Testbed bed;

  // WaveLAN coverage for the first 5 seconds, a 25-second dead zone, then
  // coverage again. Calls issued during the outage queue at the scheduler.
  auto at = [](double s) { return TimePoint::Epoch() + Duration::Seconds(s); };
  std::vector<IntervalConnectivity::Interval> up = {
      {at(0), at(5)},
      {at(30), at(600)},
  };
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::WaveLan2(),
                    std::make_unique<IntervalConnectivity>(up));

  // An object to import/edit/re-import: its second fetch arrives as a
  // delta against the cached copy.
  std::string body(2048, 'm');
  bed.server()->rover()->CreateObject(MakeRdo(
      "inbox", "lww",
      "proc read {} { global state; return $state }\n"
      "proc put {s} { global state; set state $s; return ok }",
      body));

  bed.server()->qrpc()->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        body.result = req.args.empty() ? RpcValue(std::string("")) : req.args[0];
        respond(body);
      });

  // One call while connected, two while disconnected (they ride out the
  // outage in the stable log + scheduler queue).
  client->qrpc()->Call("server", "echo", {std::string("while connected")});
  bed.loop()->ScheduleAt(at(10), [client] {
    client->qrpc()->Call("server", "echo", {std::string("queued during outage")});
    client->qrpc()->Call("server", "echo", {std::string("also queued")});
  });

  // Import while connected, then re-import after a server-side edit: the
  // refetch negotiates a delta against the cached version.
  client->access()->Import("inbox");
  bed.loop()->ScheduleAt(at(2), [&bed, body] {
    RdoDescriptor next = *bed.server()->store()->Get("inbox");
    next.data = "From: new-message\n" + body;
    bed.server()->store()->Put(next);
  });
  bed.loop()->ScheduleAt(at(3), [client] {
    ImportOptions refetch;
    refetch.allow_cached = false;
    client->access()->Import("inbox", refetch);
  });

  // During the outage, two supersedable edits of the same object: the
  // queued predecessor export is coalesced away.
  bed.loop()->ScheduleAt(at(12), [client] {
    client->access()->Invoke("inbox", "put", {std::string("draft one")});
    client->access()->Export("inbox");
  });
  bed.loop()->ScheduleAt(at(13), [client] {
    client->access()->Invoke("inbox", "put", {std::string("draft two")});
    client->access()->Export("inbox");
  });

  bed.RunFor(Duration::Seconds(120));

  std::printf("== client metrics (text) ==\n%s\n",
              client->metrics()->Render(obs::RenderFormat::kText).c_str());
  std::printf("== client metrics (json) ==\n%s\n\n",
              client->metrics()->Render(obs::RenderFormat::kJson).c_str());
  std::printf("== server metrics (text) ==\n%s\n",
              bed.server()->metrics()->Render(obs::RenderFormat::kText).c_str());
  std::printf("== rpc lifecycle trace ==\n%s",
              client->tracer()->Render().c_str());
  return 0;
}
