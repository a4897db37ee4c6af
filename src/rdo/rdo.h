// Relocatable Dynamic Objects (paper §3.3, §4). An RDO bundles code
// (TcLite procs), data (the object's state), and a version; it can be
// shipped in either direction between client and server and invoked where
// it lands. The descriptor is the wire/storage form; an instance is a
// descriptor loaded into a sandboxed interpreter.
//
// Conventions an RDO follows:
//   * its code defines procs (the object's methods);
//   * object state lives in the global TcLite variable `state`
//     (methods access it with `global state`);
//   * a method returns its result as a string.

#ifndef ROVER_SRC_RDO_RDO_H_
#define ROVER_SRC_RDO_RDO_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/tclite/interp.h"
#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/util/time.h"

namespace rover {

struct RdoDescriptor {
  std::string name;     // unique object name (URN-style), e.g. "mail/inbox/7"
  uint64_t version = 0; // committed version this descriptor reflects
  std::string type;     // resolver key: "lww", "set", "calendar", "text", ...
  std::string code;     // TcLite source defining the object's methods
  std::string data;     // serialized state (assigned to global `state`)
  std::map<std::string, std::string> metadata;

  size_t ByteSize() const;  // approximate in-memory/cache footprint

  Bytes Encode() const;
  size_t EncodedSize() const;  // == Encode().size(), without encoding
  static Result<RdoDescriptor> Decode(const Bytes& bytes);
};

// Host capabilities exposed to RDO code. All are optional; absent hooks
// leave the corresponding TcLite commands returning errors.
struct RdoEnvironment {
  std::string host_name;                          // bound as [rover-host]
  std::function<TimePoint()> now;                 // bound as [rover-now] (micros)
  std::function<void(const std::string&)> log;    // bound as `rover-log msg`
};

// Cost model: invoking interpreted code consumes simulated CPU.
struct RdoCostModel {
  Duration per_command = Duration::Micros(2);  // per interpreted command
  Duration load_fixed = Duration::Micros(200); // interp setup + code eval
};

class RdoInstance {
 public:
  // Loads `descriptor` into a fresh sandboxed interpreter: evaluates the
  // code (defining methods) and installs the state.
  static Result<std::unique_ptr<RdoInstance>> Create(const RdoDescriptor& descriptor,
                                                     const RdoEnvironment& env,
                                                     ExecLimits limits = {});

  const std::string& name() const { return descriptor_.name; }
  uint64_t base_version() const { return descriptor_.version; }
  const RdoDescriptor& descriptor() const { return descriptor_; }

  // Invokes method `method` with `args`. Returns the method's result.
  // The command budget is reset per invocation, so one runaway method
  // cannot starve later ones. A failed invocation (method error, command
  // budget, depth or storage limit) rolls `state` back to its value before
  // the call. Output from `puts` is discarded; `rover-log` is the RDO's
  // logging channel.
  Result<std::string> Invoke(const std::string& method,
                             const std::vector<std::string>& args);

  // Interpreted commands executed by the most recent Invoke (drives the
  // simulated CPU charge).
  uint64_t last_invoke_commands() const { return last_invoke_commands_; }

  // True if any invocation has (possibly) modified the state since load,
  // WriteState or Rebase.
  bool dirty() const { return dirty_; }

  // Current state serialized back into a descriptor (same code, fresh
  // data, version unchanged -- the caller assigns the new version).
  RdoDescriptor Snapshot() const;

  // Directly reads/replaces the state variable (used by reconciliation).
  std::string ReadState() const;
  void WriteState(const std::string& state);

  // Records that the current state is now committed as `version`: the
  // descriptor takes the state and version, and dirty() clears. The
  // interpreter stays loaded, so the server's cached instance survives its
  // own commits.
  void Rebase(uint64_t version);

  bool HasMethod(const std::string& method) const;
  std::vector<std::string> Methods() const;

  Interp* interp() { return &interp_; }

 private:
  RdoInstance(const RdoDescriptor& descriptor, ExecLimits limits)
      : descriptor_(descriptor), interp_(limits) {}

  RdoDescriptor descriptor_;
  Interp interp_;
  uint64_t last_invoke_commands_ = 0;
  bool dirty_ = false;
};

}  // namespace rover

#endif  // ROVER_SRC_RDO_RDO_H_
