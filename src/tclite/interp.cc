#include "src/tclite/interp.h"

#include <utility>

namespace rover {

// Defined in builtins.cc; installs the standard command set.
void RegisterBuiltins(Interp* interp);

Interp::Interp(ExecLimits limits) : limits_(limits), rng_(0x524f564552ULL) {  // "ROVER"
  frames_.emplace_back();
  RegisterBuiltins(this);
}

Result<std::string> Interp::Run(const std::string& script) {
  EvalResult r = Eval(script);
  switch (r.flow) {
    case EvalResult::Flow::kOk:
    case EvalResult::Flow::kReturn:
      return r.value;
    case EvalResult::Flow::kError:
      return InvalidArgumentError(r.error);
    case EvalResult::Flow::kBreak:
      return InvalidArgumentError("invoked \"break\" outside of a loop");
    case EvalResult::Flow::kContinue:
      return InvalidArgumentError("invoked \"continue\" outside of a loop");
  }
  return InternalError("unreachable");
}

const ParsedScript* Interp::GetParsed(const std::string& script, Status* error) {
  auto it = parse_cache_.find(script);
  if (it != parse_cache_.end()) {
    ++stats_.parse_cache_hits;
    return it->second.get();
  }
  auto parsed = ParseScript(script);
  if (!parsed.ok()) {
    *error = parsed.status();
    return nullptr;
  }
  ++stats_.scripts_parsed;
  // Bound the cache; dropping it entirely on overflow is simple and rare.
  if (parse_cache_.size() >= 4096) {
    parse_cache_.clear();
  }
  auto owned = std::make_unique<ParsedScript>(std::move(*parsed));
  const ParsedScript* raw = owned.get();
  parse_cache_.emplace(script, std::move(owned));
  return raw;
}

EvalResult Interp::Eval(const std::string& script) {
  Status parse_error;
  const ParsedScript* parsed = GetParsed(script, &parse_error);
  if (parsed == nullptr) {
    return EvalResult::MakeError(parse_error.message());
  }
  return EvalParsed(*parsed);
}

EvalResult Interp::EvalParsed(const ParsedScript& script) {
  if (++depth_ > limits_.max_depth) {
    --depth_;
    return EvalResult::MakeError("recursion limit exceeded");
  }
  EvalResult result = EvalResult::Ok();
  for (const ParsedCommand& cmd : script.commands) {
    result = EvalCommand(cmd);
    if (result.flow != EvalResult::Flow::kOk) {
      break;
    }
  }
  --depth_;
  return result;
}

EvalResult Interp::EvalCommand(const ParsedCommand& cmd) {
  if (++budget_used_ > limits_.max_commands) {
    return EvalResult::MakeError("command budget exceeded");
  }
  ++stats_.commands_executed;

  std::vector<std::string> args;
  args.reserve(cmd.words.size());
  for (const Word& word : cmd.words) {
    std::string value;
    EvalResult r = SubstituteWord(word, &value);
    if (r.flow != EvalResult::Flow::kOk) {
      if (r.flow != EvalResult::Flow::kError) {
        // break/continue/return inside a substitution propagate (Tcl-ish).
        return r;
      }
      r.error += " (line " + std::to_string(cmd.line) + ")";
      return r;
    }
    args.push_back(std::move(value));
  }
  if (args.empty()) {
    return EvalResult::Ok();
  }
  return Invoke(args);
}

EvalResult Interp::SubstituteWord(const Word& word, std::string* out) {
  if (word.IsPureLiteral()) {
    *out = word.parts[0].text;
    return EvalResult::Ok();
  }
  std::string value;
  for (const WordPart& part : word.parts) {
    switch (part.kind) {
      case WordPart::Kind::kLiteral:
        value += part.text;
        break;
      case WordPart::Kind::kVariable: {
        auto v = GetVar(part.text);
        if (!v.ok()) {
          return EvalResult::MakeError("can't read \"" + part.text +
                                       "\": no such variable");
        }
        value += *v;
        break;
      }
      case WordPart::Kind::kScript: {
        EvalResult r = Eval(part.text);
        if (r.flow == EvalResult::Flow::kReturn) {
          r.flow = EvalResult::Flow::kOk;  // [return x] yields x
        }
        if (r.flow != EvalResult::Flow::kOk) {
          return r;
        }
        value += r.value;
        break;
      }
    }
  }
  *out = std::move(value);
  return EvalResult::Ok();
}

EvalResult Interp::Invoke(const std::vector<std::string>& args) {
  const std::string& name = args[0];
  auto proc_it = procs_.find(name);
  if (proc_it != procs_.end()) {
    return CallProc(name, proc_it->second, args);
  }
  auto cmd_it = commands_.find(name);
  if (cmd_it != commands_.end()) {
    return cmd_it->second(this, args);
  }
  return EvalResult::MakeError("invalid command name \"" + name + "\"");
}

EvalResult Interp::CallProc(const std::string& name, const ProcDef& proc,
                            const std::vector<std::string>& args) {
  const size_t given = args.size() - 1;
  const size_t fixed = proc.params.size() - (proc.varargs ? 1 : 0);

  Frame frame;
  size_t ai = 1;
  for (size_t pi = 0; pi < fixed; ++pi) {
    if (ai < args.size()) {
      frame.vars[proc.params[pi]] = args[ai++];
    } else if (proc.defaults[pi].has_value()) {
      frame.vars[proc.params[pi]] = *proc.defaults[pi];
    } else {
      return EvalResult::MakeError("wrong # args: should be \"" + name + " " +
                                   TclListJoin(proc.params) + "\"");
    }
  }
  if (proc.varargs) {
    std::vector<std::string> rest(args.begin() + static_cast<ptrdiff_t>(ai), args.end());
    frame.vars["args"] = TclListJoin(rest);
  } else if (ai < args.size()) {
    return EvalResult::MakeError("wrong # args: should be \"" + name + " " +
                                 TclListJoin(proc.params) + "\" (got " +
                                 std::to_string(given) + ")");
  }

  if (StorageBytes() > limits_.max_storage_bytes) {
    return EvalResult::MakeError("variable storage limit exceeded");
  }

  frames_.push_back(std::move(frame));
  EvalResult r = Eval(proc.body);
  frames_.pop_back();

  if (r.flow == EvalResult::Flow::kReturn) {
    r.flow = EvalResult::Flow::kOk;
  } else if (r.flow == EvalResult::Flow::kBreak ||
             r.flow == EvalResult::Flow::kContinue) {
    return EvalResult::MakeError("invoked \"break\" or \"continue\" outside of a loop");
  }
  return r;
}

size_t Interp::StorageBytes() const {
  size_t total = 0;
  for (const Frame& f : frames_) {
    for (const auto& [k, v] : f.vars) {
      total += k.size() + v.size() + 32;
    }
  }
  return total;
}

std::pair<size_t, std::string> Interp::ResolveVar(size_t frame, const std::string& name) const {
  size_t f = frame;
  std::string n = name;
  // Alias chains are short; the hop bound guards against cycles.
  for (int hops = 0; hops < 16; ++hops) {
    auto it = frames_[f].links.find(n);
    if (it == frames_[f].links.end()) {
      return {f, n};
    }
    f = it->second.first;
    n = it->second.second;
  }
  return {f, n};
}

void Interp::SetVar(const std::string& name, std::string value) {
  auto [f, n] = ResolveVar(frames_.size() - 1, name);
  frames_[f].vars[n] = std::move(value);
}

Result<std::string> Interp::GetVar(const std::string& name) const {
  auto [f, n] = ResolveVar(frames_.size() - 1, name);
  auto it = frames_[f].vars.find(n);
  if (it == frames_[f].vars.end()) {
    return NotFoundError("no such variable: " + name);
  }
  return it->second;
}

bool Interp::HasVar(const std::string& name) const {
  auto [f, n] = ResolveVar(frames_.size() - 1, name);
  return frames_[f].vars.count(n) > 0;
}

bool Interp::UnsetVar(const std::string& name) {
  auto [f, n] = ResolveVar(frames_.size() - 1, name);
  return frames_[f].vars.erase(n) > 0;
}

Status Interp::LinkUpvar(const std::string& local_name, int level,
                         const std::string& target_name) {
  const int depth = FrameDepth();
  size_t target_frame;
  if (level < 0) {
    target_frame = 0;  // #0: the global frame
  } else {
    if (level > depth) {
      return InvalidArgumentError("upvar level " + std::to_string(level) +
                                  " exceeds call depth " + std::to_string(depth));
    }
    target_frame = static_cast<size_t>(depth - level);
  }
  // Resolve the target through its own aliases so chains stay short.
  auto [f, n] = ResolveVar(target_frame, target_name);
  if (f == frames_.size() - 1 && n == local_name) {
    return InvalidArgumentError("upvar: cannot alias a variable to itself");
  }
  CurrentFrame().links[local_name] = {f, n};
  return Status::Ok();
}

EvalResult Interp::EvalInFrame(int level, const std::string& script) {
  const int depth = FrameDepth();
  int target;
  if (level < 0) {
    target = 0;
  } else {
    if (level > depth) {
      return EvalResult::MakeError("uplevel level " + std::to_string(level) +
                                   " exceeds call depth " + std::to_string(depth));
    }
    target = depth - level;
  }
  // Temporarily shorten the frame stack to the target, evaluate, restore.
  std::vector<Frame> saved(std::make_move_iterator(frames_.begin() + target + 1),
                           std::make_move_iterator(frames_.end()));
  frames_.resize(static_cast<size_t>(target + 1));
  EvalResult result = Eval(script);
  for (Frame& f : saved) {
    frames_.push_back(std::move(f));
  }
  return result;
}

void Interp::SetGlobal(const std::string& name, std::string value) {
  frames_.front().vars[name] = std::move(value);
}

Result<std::string> Interp::GetGlobal(const std::string& name) const {
  auto it = frames_.front().vars.find(name);
  if (it == frames_.front().vars.end()) {
    return NotFoundError("no such global: " + name);
  }
  return it->second;
}

void Interp::LinkGlobal(const std::string& name) {
  if (frames_.size() == 1) {
    return;  // already in the global frame
  }
  CurrentFrame().links[name] = {0, name};
}

void Interp::RegisterCommand(const std::string& name, HostCommand command) {
  commands_[name] = std::move(command);
}

std::vector<std::string> Interp::CommandNames() const {
  std::vector<std::string> names;
  names.reserve(commands_.size() + procs_.size());
  for (const auto& [name, cmd] : commands_) {
    names.push_back(name);
  }
  for (const auto& [name, proc] : procs_) {
    names.push_back(name);
  }
  return names;
}

void Interp::DefineProc(const std::string& name, ProcDef def) {
  procs_[name] = std::move(def);
}

}  // namespace rover
