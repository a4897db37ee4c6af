#include "src/rdo/rdo.h"

#include <utility>

namespace rover {

size_t RdoDescriptor::ByteSize() const {
  size_t total = name.size() + type.size() + code.size() + data.size() + 64;
  for (const auto& [k, v] : metadata) {
    total += k.size() + v.size() + 16;
  }
  return total;
}

Bytes RdoDescriptor::Encode() const {
  WireWriter writer;
  writer.WriteString(name);
  writer.WriteVarint(version);
  writer.WriteString(type);
  writer.WriteString(code);
  writer.WriteString(data);
  writer.WriteVarint(metadata.size());
  for (const auto& [k, v] : metadata) {
    writer.WriteString(k);
    writer.WriteString(v);
  }
  return writer.TakeData();
}

size_t RdoDescriptor::EncodedSize() const {
  size_t total = LengthPrefixedSize(name.size()) + VarintSize(version) +
                 LengthPrefixedSize(type.size()) + LengthPrefixedSize(code.size()) +
                 LengthPrefixedSize(data.size()) + VarintSize(metadata.size());
  for (const auto& [k, v] : metadata) {
    total += LengthPrefixedSize(k.size()) + LengthPrefixedSize(v.size());
  }
  return total;
}

Result<RdoDescriptor> RdoDescriptor::Decode(const Bytes& bytes) {
  WireReader reader(bytes);
  RdoDescriptor d;
  ROVER_ASSIGN_OR_RETURN(d.name, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(d.version, reader.ReadVarint());
  ROVER_ASSIGN_OR_RETURN(d.type, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(d.code, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(d.data, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
  if (n > reader.remaining() + 1) {
    return DataLossError("RDO metadata count implausible");
  }
  for (uint64_t i = 0; i < n; ++i) {
    ROVER_ASSIGN_OR_RETURN(std::string k, reader.ReadString());
    ROVER_ASSIGN_OR_RETURN(std::string v, reader.ReadString());
    d.metadata.emplace(std::move(k), std::move(v));
  }
  return d;
}

Result<std::unique_ptr<RdoInstance>> RdoInstance::Create(const RdoDescriptor& descriptor,
                                                         const RdoEnvironment& env,
                                                         ExecLimits limits) {
  auto instance = std::unique_ptr<RdoInstance>(new RdoInstance(descriptor, limits));
  Interp* interp = &instance->interp_;

  // Host capability bindings.
  const std::string host_name = env.host_name;
  interp->RegisterCommand(
      "rover-host", [host_name](Interp*, const std::vector<std::string>&) {
        return EvalResult::Ok(host_name);
      });
  if (env.now) {
    auto now = env.now;
    interp->RegisterCommand("rover-now", [now](Interp*, const std::vector<std::string>&) {
      return EvalResult::Ok(std::to_string(now().micros()));
    });
  }
  if (env.log) {
    auto log = env.log;
    interp->RegisterCommand(
        "rover-log", [log](Interp*, const std::vector<std::string>& args) {
          std::string line;
          for (size_t i = 1; i < args.size(); ++i) {
            if (i > 1) {
              line.push_back(' ');
            }
            line += args[i];
          }
          log(line);
          return EvalResult::Ok();
        });
  }

  // Evaluate the code (method definitions) under the sandbox budget.
  interp->ResetBudget();
  auto code_result = interp->Run(descriptor.code);
  interp->TakeOutput();
  if (!code_result.ok()) {
    return InvalidArgumentError("RDO " + descriptor.name +
                                ": code failed to load: " + code_result.status().message());
  }
  interp->SetGlobal("state", descriptor.data);
  return instance;
}

Result<std::string> RdoInstance::Invoke(const std::string& method,
                                        const std::vector<std::string>& args) {
  if (!HasMethod(method)) {
    return NotFoundError("RDO " + descriptor_.name + ": no method \"" + method + "\"");
  }
  std::string before = ReadState();
  interp_.ResetBudget();
  const uint64_t commands_before = interp_.stats().commands_executed;

  std::vector<std::string> call;
  call.reserve(args.size() + 1);
  call.push_back(method);
  call.insert(call.end(), args.begin(), args.end());
  EvalResult r = interp_.Invoke(call);

  last_invoke_commands_ = interp_.stats().commands_executed - commands_before;
  interp_.TakeOutput();  // nothing reads it; left buffered it would pile up
  if (r.flow == EvalResult::Flow::kError) {
    interp_.SetGlobal("state", std::move(before));
    return InvalidArgumentError("RDO " + descriptor_.name + "." + method + ": " + r.error);
  }
  if (ReadState() != before) {
    dirty_ = true;
  }
  return r.value;
}

RdoDescriptor RdoInstance::Snapshot() const {
  RdoDescriptor d = descriptor_;
  d.data = ReadState();
  return d;
}

std::string RdoInstance::ReadState() const {
  auto v = interp_.GetGlobal("state");
  return v.ok() ? *v : "";
}

void RdoInstance::WriteState(const std::string& state) {
  interp_.SetGlobal("state", state);
  descriptor_.data = state;
  dirty_ = false;
}

void RdoInstance::Rebase(uint64_t version) {
  descriptor_.version = version;
  descriptor_.data = ReadState();
  dirty_ = false;
}

bool RdoInstance::HasMethod(const std::string& method) const {
  return interp_.procs().count(method) > 0;
}

std::vector<std::string> RdoInstance::Methods() const {
  std::vector<std::string> out;
  for (const auto& [name, def] : interp_.procs()) {
    out.push_back(name);
  }
  return out;
}

}  // namespace rover
