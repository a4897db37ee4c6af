// TcLite interpreter. A sandboxed, embeddable Tcl-like language: RDO
// methods are TcLite procs; the hosting environment (Rover client or
// server) exposes capabilities as registered host commands. Safety comes
// from the execution limits: a command budget, a recursion-depth cap, and
// a cap on total variable storage, so imported code cannot spin or exhaust
// the host (the paper's "safe execution" goal, §4).

#ifndef ROVER_SRC_TCLITE_INTERP_H_
#define ROVER_SRC_TCLITE_INTERP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/tclite/parser.h"
#include "src/tclite/value.h"
#include "src/util/rng.h"

namespace rover {

// Outcome of evaluating a script or command. `flow` distinguishes normal
// completion from errors and the loop/proc control transfers.
struct EvalResult {
  enum class Flow {
    kOk = 0,
    kError = 1,
    kReturn = 2,
    kBreak = 3,
    kContinue = 4,
  };

  Flow flow = Flow::kOk;
  std::string value;  // result value (or return value)
  std::string error;  // message when flow == kError

  static EvalResult Ok(std::string v = "") {
    return EvalResult{Flow::kOk, std::move(v), ""};
  }
  static EvalResult MakeError(std::string message) {
    return EvalResult{Flow::kError, "", std::move(message)};
  }
  static EvalResult Return(std::string v) {
    return EvalResult{Flow::kReturn, std::move(v), ""};
  }
  static EvalResult Break() { return EvalResult{Flow::kBreak, "", ""}; }
  static EvalResult Continue() { return EvalResult{Flow::kContinue, "", ""}; }

  bool ok() const { return flow == Flow::kOk; }
};

struct ExecLimits {
  uint64_t max_commands = 1'000'000;  // commands per budget window
  int max_depth = 128;                // proc/eval nesting
  size_t max_storage_bytes = 8 << 20; // total variable bytes per frame set
};

struct InterpStats {
  uint64_t commands_executed = 0;  // cumulative, never reset
  uint64_t scripts_parsed = 0;
  uint64_t parse_cache_hits = 0;
};

class Interp {
 public:
  using HostCommand =
      std::function<EvalResult(Interp* interp, const std::vector<std::string>& args)>;

  explicit Interp(ExecLimits limits = {});
  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  // --- Evaluation ---

  // Evaluates a script in the current frame. kBreak/kContinue escaping to
  // the top level become errors, matching Tcl.
  EvalResult Eval(const std::string& script);

  // Convenience wrapper: kOk/kReturn produce the value, anything else an
  // error status.
  Result<std::string> Run(const std::string& script);

  // Invokes a command (proc, builtin, or host command) with pre-evaluated
  // arguments. args[0] is the command name.
  EvalResult Invoke(const std::vector<std::string>& args);

  // --- Variables (current frame) ---

  void SetVar(const std::string& name, std::string value);
  Result<std::string> GetVar(const std::string& name) const;
  bool HasVar(const std::string& name) const;
  bool UnsetVar(const std::string& name);

  // Global (frame 0) accessors, used by the embedding to seed state.
  void SetGlobal(const std::string& name, std::string value);
  Result<std::string> GetGlobal(const std::string& name) const;

  // Marks `name` in the current frame as an alias of the global variable.
  void LinkGlobal(const std::string& name);

  // upvar: aliases `local_name` in the current frame to `target_name` in
  // the frame `level` calls up (level 1 = caller; -1 = global frame).
  Status LinkUpvar(const std::string& local_name, int level,
                   const std::string& target_name);

  // uplevel: evaluates `script` in the frame `level` calls up.
  EvalResult EvalInFrame(int level, const std::string& script);

  // Current proc-call depth (0 at top level).
  int FrameDepth() const { return static_cast<int>(frames_.size()) - 1; }

  // --- Commands ---

  void RegisterCommand(const std::string& name, HostCommand command);
  std::vector<std::string> CommandNames() const;

  // Procs defined by `proc`; exposed so RDOs can serialize their methods.
  struct ProcDef {
    std::vector<std::string> params;          // parameter names
    std::vector<std::optional<std::string>> defaults;  // per-parameter default
    bool varargs = false;                     // last param is `args`
    std::string body;
  };
  const std::map<std::string, ProcDef>& procs() const { return procs_; }
  void DefineProc(const std::string& name, ProcDef def);

  // --- Budget / limits ---

  const ExecLimits& limits() const { return limits_; }
  // Resets the per-window command budget (call before each untrusted entry).
  void ResetBudget() { budget_used_ = 0; }

  // Charges one unit against the command budget; false once exhausted.
  // Loop builtins call this per iteration so that empty or expr-only loop
  // bodies cannot spin for free.
  bool ConsumeBudget() { return ++budget_used_ <= limits_.max_commands; }

  const InterpStats& stats() const { return stats_; }

  // --- Output ---

  // `puts` appends here; the embedding drains it (e.g. to a UI).
  std::string TakeOutput() { return std::move(output_); }
  const std::string& output() const { return output_; }
  void AppendOutput(const std::string& text) { output_ += text; }

  // Deterministic RNG backing expr's rand()/srand().
  Rng* rng() { return &rng_; }
  void ReseedRng(uint64_t seed) { rng_ = Rng(seed); }

 private:
  friend struct BuiltinRegistrar;

  struct Frame {
    std::map<std::string, std::string> vars;
    // Aliases installed by `global` and `upvar`: local name ->
    // (frame index, name there). Resolution follows chains.
    std::map<std::string, std::pair<size_t, std::string>> links;
  };

  // Follows alias chains from (frame, name) to the owning frame/name.
  std::pair<size_t, std::string> ResolveVar(size_t frame, const std::string& name) const;

  EvalResult EvalParsed(const ParsedScript& script);
  EvalResult EvalCommand(const ParsedCommand& cmd);
  EvalResult SubstituteWord(const Word& word, std::string* out);
  EvalResult CallProc(const std::string& name, const ProcDef& proc,
                      const std::vector<std::string>& args);
  const ParsedScript* GetParsed(const std::string& script, Status* error);
  size_t StorageBytes() const;

  Frame& CurrentFrame() { return frames_.back(); }
  const Frame& CurrentFrame() const { return frames_.back(); }

  ExecLimits limits_;
  InterpStats stats_;
  uint64_t budget_used_ = 0;
  int depth_ = 0;
  std::vector<Frame> frames_;
  std::map<std::string, HostCommand> commands_;
  std::map<std::string, ProcDef> procs_;
  std::map<std::string, std::unique_ptr<ParsedScript>> parse_cache_;
  std::string output_;
  Rng rng_;
};

// Evaluates an expr expression string in `interp` (used by the `expr`,
// `if`, `while`, and `for` builtins). Defined in expr.cc.
EvalResult EvalExpr(Interp* interp, const std::string& expression);

}  // namespace rover

#endif  // ROVER_SRC_TCLITE_INTERP_H_
