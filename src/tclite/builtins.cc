// Standard TcLite command set. Each builtin receives fully substituted
// arguments (args[0] is the command name); control structures receive
// their bodies as unsubstituted braced strings and evaluate them, exactly
// as in Tcl. The set is one immutable table (kBuiltins, at the end) that
// every interpreter shares.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "src/tclite/interp.h"
#include "src/tclite/value.h"

namespace rover {
namespace {

using Args = std::vector<std::string>;

EvalResult ArityError(const std::string& usage) {
  return EvalResult::MakeError("wrong # args: should be \"" + usage + "\"");
}

bool TruthyCondition(Interp* interp, const std::string& expression, EvalResult* failure) {
  EvalResult r = EvalExpr(interp, expression);
  if (r.flow != EvalResult::Flow::kOk) {
    *failure = r;
    return false;
  }
  auto b = TclParseBool(r.value);
  if (!b.has_value()) {
    *failure = EvalResult::MakeError("expected boolean value but got \"" + r.value + "\"");
    return false;
  }
  if (!*b) {
    failure->flow = EvalResult::Flow::kOk;
  }
  return *b;
}

// --- variables ---

EvalResult CmdSet(Interp* interp, const Args& args) {
  if (args.size() == 2) {
    auto v = interp->GetVar(args[1]);
    if (!v.ok()) {
      return EvalResult::MakeError("can't read \"" + args[1] + "\": no such variable");
    }
    return EvalResult::Ok(*v);
  }
  if (args.size() == 3) {
    interp->SetVar(args[1], args[2]);
    return EvalResult::Ok(args[2]);
  }
  return ArityError("set varName ?newValue?");
}

EvalResult CmdUnset(Interp* interp, const Args& args) {
  if (args.size() < 2) {
    return ArityError("unset varName ?varName ...?");
  }
  for (size_t i = 1; i < args.size(); ++i) {
    interp->UnsetVar(args[i]);
  }
  return EvalResult::Ok();
}

EvalResult CmdIncr(Interp* interp, const Args& args) {
  if (args.size() != 2 && args.size() != 3) {
    return ArityError("incr varName ?increment?");
  }
  int64_t delta = 1;
  if (args.size() == 3) {
    auto d = TclParseInt(args[2]);
    if (!d.has_value()) {
      return EvalResult::MakeError("expected integer but got \"" + args[2] + "\"");
    }
    delta = *d;
  }
  int64_t current = 0;
  if (interp->HasVar(args[1])) {
    auto v = interp->GetVar(args[1]);
    auto i = TclParseInt(*v);
    if (!i.has_value()) {
      return EvalResult::MakeError("expected integer but got \"" + *v + "\"");
    }
    current = *i;
  }
  const std::string result = TclFromInt(current + delta);
  interp->SetVar(args[1], result);
  return EvalResult::Ok(result);
}

EvalResult CmdAppend(Interp* interp, const Args& args) {
  if (args.size() < 2) {
    return ArityError("append varName ?value ...?");
  }
  std::string value;
  if (interp->HasVar(args[1])) {
    value = *interp->GetVar(args[1]);
  }
  for (size_t i = 2; i < args.size(); ++i) {
    value += args[i];
  }
  interp->SetVar(args[1], value);
  return EvalResult::Ok(value);
}

// upvar ?level? otherVar myVar ?otherVar myVar ...?
EvalResult CmdUpvar(Interp* interp, const Args& args) {
  size_t i = 1;
  int level = 1;
  if (args.size() > 1) {
    const std::string& first = args[1];
    if (first == "#0") {
      level = -1;
      ++i;
    } else if (auto lv = TclParseInt(first); lv.has_value() && args.size() % 2 == 0) {
      level = static_cast<int>(*lv);
      ++i;
    }
  }
  if (i >= args.size() || (args.size() - i) % 2 != 0) {
    return ArityError("upvar ?level? otherVar myVar ?otherVar myVar ...?");
  }
  for (; i + 1 < args.size(); i += 2) {
    Status status = interp->LinkUpvar(args[i + 1], level, args[i]);
    if (!status.ok()) {
      return EvalResult::MakeError(std::string(status.message()));
    }
  }
  return EvalResult::Ok();
}

// uplevel ?level? arg ?arg ...?
EvalResult CmdUplevel(Interp* interp, const Args& args) {
  size_t i = 1;
  int level = 1;
  if (args.size() > 2) {
    if (args[1] == "#0") {
      level = -1;
      ++i;
    } else if (auto lv = TclParseInt(args[1]); lv.has_value()) {
      level = static_cast<int>(*lv);
      ++i;
    }
  }
  if (i >= args.size()) {
    return ArityError("uplevel ?level? arg ?arg ...?");
  }
  std::string script;
  for (; i < args.size(); ++i) {
    if (!script.empty()) {
      script.push_back(' ');
    }
    script += args[i];
  }
  return interp->EvalInFrame(level, script);
}

EvalResult CmdGlobal(Interp* interp, const Args& args) {
  if (args.size() < 2) {
    return ArityError("global varName ?varName ...?");
  }
  for (size_t i = 1; i < args.size(); ++i) {
    interp->LinkGlobal(args[i]);
  }
  return EvalResult::Ok();
}

// --- control flow ---

EvalResult CmdIf(Interp* interp, const Args& args) {
  // if cond ?then? body ?elseif cond ?then? body ...? ?else? ?body?
  size_t i = 1;
  while (i < args.size()) {
    if (i + 1 >= args.size()) {
      return EvalResult::MakeError("wrong # args: no expression after \"if\" clause");
    }
    const std::string& cond = args[i];
    size_t body_index = i + 1;
    if (body_index < args.size() && args[body_index] == "then") {
      ++body_index;
    }
    if (body_index >= args.size()) {
      return EvalResult::MakeError("wrong # args: no script after \"if\" condition");
    }
    EvalResult failure = EvalResult::Ok();
    if (TruthyCondition(interp, cond, &failure)) {
      return interp->Eval(args[body_index]);
    }
    if (failure.flow != EvalResult::Flow::kOk) {
      return failure;
    }
    i = body_index + 1;
    if (i >= args.size()) {
      return EvalResult::Ok();
    }
    if (args[i] == "elseif") {
      ++i;
      continue;
    }
    if (args[i] == "else") {
      ++i;
      if (i >= args.size()) {
        return EvalResult::MakeError("wrong # args: no script after \"else\"");
      }
      return interp->Eval(args[i]);
    }
    // Bare trailing body acts as else (Tcl compatibility).
    return interp->Eval(args[i]);
  }
  return EvalResult::Ok();
}

EvalResult CmdWhile(Interp* interp, const Args& args) {
  if (args.size() != 3) {
    return ArityError("while test command");
  }
  for (;;) {
    if (!interp->ConsumeBudget()) {
      return EvalResult::MakeError("command budget exceeded");
    }
    EvalResult failure = EvalResult::Ok();
    if (!TruthyCondition(interp, args[1], &failure)) {
      return failure.flow == EvalResult::Flow::kOk ? EvalResult::Ok() : failure;
    }
    EvalResult r = interp->Eval(args[2]);
    if (r.flow == EvalResult::Flow::kBreak) {
      return EvalResult::Ok();
    }
    if (r.flow == EvalResult::Flow::kContinue || r.flow == EvalResult::Flow::kOk) {
      continue;
    }
    return r;  // error or return
  }
}

EvalResult CmdFor(Interp* interp, const Args& args) {
  if (args.size() != 5) {
    return ArityError("for start test next command");
  }
  EvalResult r = interp->Eval(args[1]);
  if (r.flow != EvalResult::Flow::kOk) {
    return r;
  }
  for (;;) {
    if (!interp->ConsumeBudget()) {
      return EvalResult::MakeError("command budget exceeded");
    }
    EvalResult failure = EvalResult::Ok();
    if (!TruthyCondition(interp, args[2], &failure)) {
      return failure.flow == EvalResult::Flow::kOk ? EvalResult::Ok() : failure;
    }
    r = interp->Eval(args[4]);
    if (r.flow == EvalResult::Flow::kBreak) {
      return EvalResult::Ok();
    }
    if (r.flow != EvalResult::Flow::kContinue && r.flow != EvalResult::Flow::kOk) {
      return r;
    }
    r = interp->Eval(args[3]);
    if (r.flow != EvalResult::Flow::kOk) {
      return r;
    }
  }
}

EvalResult CmdForeach(Interp* interp, const Args& args) {
  if (args.size() != 4) {
    return ArityError("foreach varList list body");
  }
  auto names = TclListSplit(args[1]);
  auto values = TclListSplit(args[2]);
  if (!names.ok() || names->empty()) {
    return EvalResult::MakeError("foreach: bad variable list");
  }
  if (!values.ok()) {
    return EvalResult::MakeError("foreach: bad value list");
  }
  size_t i = 0;
  while (i < values->size()) {
    if (!interp->ConsumeBudget()) {
      return EvalResult::MakeError("command budget exceeded");
    }
    for (const std::string& name : *names) {
      interp->SetVar(name, i < values->size() ? (*values)[i] : "");
      ++i;
    }
    EvalResult r = interp->Eval(args[3]);
    if (r.flow == EvalResult::Flow::kBreak) {
      return EvalResult::Ok();
    }
    if (r.flow != EvalResult::Flow::kContinue && r.flow != EvalResult::Flow::kOk) {
      return r;
    }
  }
  return EvalResult::Ok();
}

EvalResult CmdBreak(Interp* interp, const Args& args) { return EvalResult::Break(); }
EvalResult CmdContinue(Interp* interp, const Args& args) { return EvalResult::Continue(); }

EvalResult CmdReturn(Interp* interp, const Args& args) {
  if (args.size() > 2) {
    return ArityError("return ?value?");
  }
  return EvalResult::Return(args.size() == 2 ? args[1] : "");
}

EvalResult CmdError(Interp* interp, const Args& args) {
  if (args.size() != 2) {
    return ArityError("error message");
  }
  return EvalResult::MakeError(args[1]);
}

EvalResult CmdCatch(Interp* interp, const Args& args) {
  if (args.size() != 2 && args.size() != 3) {
    return ArityError("catch script ?resultVarName?");
  }
  EvalResult r = interp->Eval(args[1]);
  std::string code = "0";
  std::string value = r.value;
  switch (r.flow) {
    case EvalResult::Flow::kOk:
      code = "0";
      break;
    case EvalResult::Flow::kError:
      code = "1";
      value = r.error;
      break;
    case EvalResult::Flow::kReturn:
      code = "2";
      break;
    case EvalResult::Flow::kBreak:
      code = "3";
      break;
    case EvalResult::Flow::kContinue:
      code = "4";
      break;
  }
  if (args.size() == 3) {
    interp->SetVar(args[2], value);
  }
  return EvalResult::Ok(code);
}

EvalResult CmdEval(Interp* interp, const Args& args) {
  if (args.size() < 2) {
    return ArityError("eval arg ?arg ...?");
  }
  std::string script;
  for (size_t i = 1; i < args.size(); ++i) {
    if (i > 1) {
      script.push_back(' ');
    }
    script += args[i];
  }
  return interp->Eval(script);
}

EvalResult CmdProc(Interp* interp, const Args& args) {
  if (args.size() != 4) {
    return ArityError("proc name params body");
  }
  auto params = TclListSplit(args[2]);
  if (!params.ok()) {
    return EvalResult::MakeError("proc: bad parameter list");
  }
  Interp::ProcDef def;
  for (size_t i = 0; i < params->size(); ++i) {
    const std::string& p = (*params)[i];
    // A parameter may be {name default}.
    auto parts = TclListSplit(p);
    if (parts.ok() && parts->size() == 2) {
      def.params.push_back((*parts)[0]);
      def.defaults.push_back((*parts)[1]);
    } else {
      def.params.push_back(p);
      def.defaults.push_back(std::nullopt);
    }
    if (i == params->size() - 1 && def.params.back() == "args") {
      def.varargs = true;
    }
  }
  def.body = args[3];
  interp->DefineProc(args[1], std::move(def));
  return EvalResult::Ok();
}

// --- expr ---

EvalResult CmdExpr(Interp* interp, const Args& args) {
  if (args.size() < 2) {
    return ArityError("expr arg ?arg ...?");
  }
  std::string expression;
  for (size_t i = 1; i < args.size(); ++i) {
    if (i > 1) {
      expression.push_back(' ');
    }
    expression += args[i];
  }
  return EvalExpr(interp, expression);
}

// --- lists ---

EvalResult CmdList(Interp* interp, const Args& args) {
  std::vector<std::string> elems(args.begin() + 1, args.end());
  return EvalResult::Ok(TclListJoin(elems));
}

EvalResult CmdLindex(Interp* interp, const Args& args) {
  if (args.size() != 3) {
    return ArityError("lindex list index");
  }
  auto elems = TclListSplit(args[1]);
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  int64_t index = 0;
  if (args[2] == "end") {
    index = static_cast<int64_t>(elems->size()) - 1;
  } else if (auto i = TclParseInt(args[2])) {
    index = *i;
  } else {
    return EvalResult::MakeError("bad index \"" + args[2] + "\"");
  }
  if (index < 0 || index >= static_cast<int64_t>(elems->size())) {
    return EvalResult::Ok("");
  }
  return EvalResult::Ok((*elems)[static_cast<size_t>(index)]);
}

EvalResult CmdLlength(Interp* interp, const Args& args) {
  if (args.size() != 2) {
    return ArityError("llength list");
  }
  auto elems = TclListSplit(args[1]);
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  return EvalResult::Ok(TclFromInt(static_cast<int64_t>(elems->size())));
}

EvalResult CmdLappend(Interp* interp, const Args& args) {
  if (args.size() < 2) {
    return ArityError("lappend varName ?value ...?");
  }
  std::string list;
  if (interp->HasVar(args[1])) {
    list = *interp->GetVar(args[1]);
  }
  for (size_t i = 2; i < args.size(); ++i) {
    if (!list.empty()) {
      list.push_back(' ');
    }
    list += TclQuoteElement(args[i]);
  }
  interp->SetVar(args[1], list);
  return EvalResult::Ok(list);
}

EvalResult CmdLrange(Interp* interp, const Args& args) {
  if (args.size() != 4) {
    return ArityError("lrange list first last");
  }
  auto elems = TclListSplit(args[1]);
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  const int64_t n = static_cast<int64_t>(elems->size());
  auto parse_index = [n](const std::string& s) -> int64_t {
    if (s == "end") {
      return n - 1;
    }
    if (s.rfind("end-", 0) == 0) {
      auto off = TclParseInt(s.substr(4));
      return n - 1 - off.value_or(0);
    }
    return TclParseInt(s).value_or(0);
  };
  int64_t first = std::max<int64_t>(0, parse_index(args[2]));
  int64_t last = std::min(n - 1, parse_index(args[3]));
  std::vector<std::string> out;
  for (int64_t i = first; i <= last; ++i) {
    out.push_back((*elems)[static_cast<size_t>(i)]);
  }
  return EvalResult::Ok(TclListJoin(out));
}

EvalResult CmdLsearch(Interp* interp, const Args& args) {
  if (args.size() != 3) {
    return ArityError("lsearch list pattern");
  }
  auto elems = TclListSplit(args[1]);
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  for (size_t i = 0; i < elems->size(); ++i) {
    if ((*elems)[i] == args[2]) {
      return EvalResult::Ok(TclFromInt(static_cast<int64_t>(i)));
    }
  }
  return EvalResult::Ok("-1");
}

EvalResult CmdLsort(Interp* interp, const Args& args) {
  // lsort ?-integer? ?-decreasing? list
  if (args.size() < 2) {
    return ArityError("lsort ?options? list");
  }
  bool numeric = false;
  bool decreasing = false;
  for (size_t i = 1; i + 1 < args.size(); ++i) {
    if (args[i] == "-integer") {
      numeric = true;
    } else if (args[i] == "-decreasing") {
      decreasing = true;
    } else if (args[i] == "-increasing") {
      decreasing = false;
    } else {
      return EvalResult::MakeError("lsort: bad option \"" + args[i] + "\"");
    }
  }
  auto elems = TclListSplit(args.back());
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  std::stable_sort(elems->begin(), elems->end(),
                   [numeric](const std::string& a, const std::string& b) {
                     if (numeric) {
                       return TclParseInt(a).value_or(0) < TclParseInt(b).value_or(0);
                     }
                     return a < b;
                   });
  if (decreasing) {
    std::reverse(elems->begin(), elems->end());
  }
  return EvalResult::Ok(TclListJoin(*elems));
}

EvalResult CmdConcat(Interp* interp, const Args& args) {
  std::string out;
  for (size_t i = 1; i < args.size(); ++i) {
    std::string trimmed = args[i];
    while (!trimmed.empty() && std::isspace(static_cast<unsigned char>(trimmed.front()))) {
      trimmed.erase(trimmed.begin());
    }
    while (!trimmed.empty() && std::isspace(static_cast<unsigned char>(trimmed.back()))) {
      trimmed.pop_back();
    }
    if (trimmed.empty()) {
      continue;
    }
    if (!out.empty()) {
      out.push_back(' ');
    }
    out += trimmed;
  }
  return EvalResult::Ok(out);
}

EvalResult CmdJoin(Interp* interp, const Args& args) {
  if (args.size() != 2 && args.size() != 3) {
    return ArityError("join list ?joinString?");
  }
  auto elems = TclListSplit(args[1]);
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  const std::string sep = args.size() == 3 ? args[2] : " ";
  std::string out;
  for (size_t i = 0; i < elems->size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += (*elems)[i];
  }
  return EvalResult::Ok(out);
}

EvalResult CmdSplit(Interp* interp, const Args& args) {
  if (args.size() != 2 && args.size() != 3) {
    return ArityError("split string ?splitChars?");
  }
  const std::string& s = args[1];
  const std::string chars = args.size() == 3 ? args[2] : " \t\n\r";
  std::vector<std::string> parts;
  if (chars.empty()) {
    for (char c : s) {
      parts.emplace_back(1, c);
    }
  } else {
    std::string current;
    for (char c : s) {
      if (chars.find(c) != std::string::npos) {
        parts.push_back(std::move(current));
        current.clear();
      } else {
        current.push_back(c);
      }
    }
    parts.push_back(std::move(current));
  }
  return EvalResult::Ok(TclListJoin(parts));
}

bool GlobMatch(std::string_view pattern, std::string_view text);

EvalResult CmdLreverse(Interp* interp, const Args& args) {
  if (args.size() != 2) {
    return ArityError("lreverse list");
  }
  auto elems = TclListSplit(args[1]);
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  std::reverse(elems->begin(), elems->end());
  return EvalResult::Ok(TclListJoin(*elems));
}

EvalResult CmdLinsert(Interp* interp, const Args& args) {
  if (args.size() < 4) {
    return ArityError("linsert list index element ?element ...?");
  }
  auto elems = TclListSplit(args[1]);
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  const int64_t n = static_cast<int64_t>(elems->size());
  int64_t index = args[2] == "end" ? n : TclParseInt(args[2]).value_or(0);
  index = std::max<int64_t>(0, std::min(index, n));
  elems->insert(elems->begin() + static_cast<ptrdiff_t>(index), args.begin() + 3,
                args.end());
  return EvalResult::Ok(TclListJoin(*elems));
}

EvalResult CmdLreplace(Interp* interp, const Args& args) {
  if (args.size() < 4) {
    return ArityError("lreplace list first last ?element ...?");
  }
  auto elems = TclListSplit(args[1]);
  if (!elems.ok()) {
    return EvalResult::MakeError(std::string(elems.status().message()));
  }
  const int64_t n = static_cast<int64_t>(elems->size());
  auto parse_index = [n](const std::string& sidx) -> int64_t {
    if (sidx == "end") {
      return n - 1;
    }
    if (sidx.rfind("end-", 0) == 0) {
      return n - 1 - TclParseInt(sidx.substr(4)).value_or(0);
    }
    return TclParseInt(sidx).value_or(0);
  };
  const int64_t first = std::max<int64_t>(0, parse_index(args[2]));
  const int64_t last = std::min(n - 1, parse_index(args[3]));
  std::vector<std::string> out;
  for (int64_t i = 0; i < std::min(first, n); ++i) {
    out.push_back((*elems)[static_cast<size_t>(i)]);
  }
  out.insert(out.end(), args.begin() + 4, args.end());
  for (int64_t i = std::max(last + 1, first); i < n; ++i) {
    out.push_back((*elems)[static_cast<size_t>(i)]);
  }
  return EvalResult::Ok(TclListJoin(out));
}

// switch ?-exact|-glob? value {pattern body ?pattern body ...?}
// or inline: switch value pattern body ?pattern body ...? ?default body?
EvalResult CmdSwitch(Interp* interp, const Args& args) {
  size_t i = 1;
  bool glob = false;
  while (i < args.size() && !args[i].empty() && args[i][0] == '-') {
    if (args[i] == "-glob") {
      glob = true;
    } else if (args[i] == "-exact") {
      glob = false;
    } else if (args[i] == "--") {
      ++i;
      break;
    } else {
      return EvalResult::MakeError("switch: bad option "" + args[i] + """);
    }
    ++i;
  }
  if (i >= args.size()) {
    return ArityError("switch ?options? value pattern body ...");
  }
  const std::string value = args[i++];
  std::vector<std::string> clauses;
  if (args.size() - i == 1) {
    auto split = TclListSplit(args[i]);
    if (!split.ok()) {
      return EvalResult::MakeError("switch: bad pattern/body list");
    }
    clauses = std::move(*split);
  } else {
    clauses.assign(args.begin() + static_cast<ptrdiff_t>(i), args.end());
  }
  if (clauses.size() % 2 != 0) {
    return EvalResult::MakeError("switch: pattern with no body");
  }
  for (size_t c = 0; c + 1 < clauses.size(); c += 2) {
    const std::string& pattern = clauses[c];
    bool match = pattern == "default" && c + 2 >= clauses.size();
    if (!match) {
      match = glob ? GlobMatch(pattern, value) : pattern == value;
    }
    if (match) {
      // "-" body falls through to the next clause's body, as in Tcl.
      size_t body = c + 1;
      while (body + 1 < clauses.size() && clauses[body] == "-") {
        body += 2;
      }
      return interp->Eval(clauses[body]);
    }
  }
  return EvalResult::Ok();
}

EvalResult CmdStringMap(const Args& args, const std::string& s) {
  // string map {from to ...} string
  auto mapping = TclListSplit(args[2]);
  if (!mapping.ok() || mapping->size() % 2 != 0) {
    return EvalResult::MakeError("string map: bad mapping list");
  }
  std::string out;
  size_t i = 0;
  while (i < s.size()) {
    bool replaced = false;
    for (size_t m = 0; m + 1 < mapping->size(); m += 2) {
      const std::string& from = (*mapping)[m];
      if (!from.empty() && s.compare(i, from.size(), from) == 0) {
        out += (*mapping)[m + 1];
        i += from.size();
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      out.push_back(s[i++]);
    }
  }
  return EvalResult::Ok(out);
}

// --- dict (minimal, over even-length lists) ---

EvalResult CmdDict(Interp* interp, const Args& args) {
  if (args.size() < 3) {
    return ArityError("dict get|set|exists|keys dict ?key? ?value?");
  }
  const std::string& sub = args[1];
  auto elems = TclListSplit(args[2]);
  if (!elems.ok() || elems->size() % 2 != 0) {
    return EvalResult::MakeError("invalid dictionary value");
  }
  if (sub == "get") {
    if (args.size() != 4) {
      return ArityError("dict get dict key");
    }
    for (size_t i = 0; i + 1 < elems->size(); i += 2) {
      if ((*elems)[i] == args[3]) {
        return EvalResult::Ok((*elems)[i + 1]);
      }
    }
    return EvalResult::MakeError("key \"" + args[3] + "\" not known in dictionary");
  }
  if (sub == "exists") {
    if (args.size() != 4) {
      return ArityError("dict exists dict key");
    }
    for (size_t i = 0; i + 1 < elems->size(); i += 2) {
      if ((*elems)[i] == args[3]) {
        return EvalResult::Ok("1");
      }
    }
    return EvalResult::Ok("0");
  }
  if (sub == "set") {
    if (args.size() != 5) {
      return ArityError("dict set dict key value");
    }
    bool found = false;
    for (size_t i = 0; i + 1 < elems->size(); i += 2) {
      if ((*elems)[i] == args[3]) {
        (*elems)[i + 1] = args[4];
        found = true;
        break;
      }
    }
    if (!found) {
      elems->push_back(args[3]);
      elems->push_back(args[4]);
    }
    return EvalResult::Ok(TclListJoin(*elems));
  }
  if (sub == "keys") {
    std::vector<std::string> keys;
    for (size_t i = 0; i + 1 < elems->size(); i += 2) {
      keys.push_back((*elems)[i]);
    }
    return EvalResult::Ok(TclListJoin(keys));
  }
  return EvalResult::MakeError("dict: unknown subcommand \"" + sub + "\"");
}

// --- strings ---

bool GlobMatch(std::string_view pattern, std::string_view text) {
  size_t p = 0;
  size_t t = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

EvalResult CmdString(Interp* interp, const Args& args) {
  if (args.size() < 3) {
    return ArityError("string subcommand string ?arg ...?");
  }
  const std::string& sub = args[1];
  const std::string& s = args[2];
  if (sub == "length") {
    return EvalResult::Ok(TclFromInt(static_cast<int64_t>(s.size())));
  }
  if (sub == "tolower" || sub == "toupper") {
    std::string out = s;
    for (char& c : out) {
      c = sub == "tolower" ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                           : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return EvalResult::Ok(out);
  }
  if (sub == "trim") {
    std::string out = s;
    while (!out.empty() && std::isspace(static_cast<unsigned char>(out.front()))) {
      out.erase(out.begin());
    }
    while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back()))) {
      out.pop_back();
    }
    return EvalResult::Ok(out);
  }
  if (sub == "index") {
    if (args.size() != 4) {
      return ArityError("string index string charIndex");
    }
    int64_t i = args[3] == "end" ? static_cast<int64_t>(s.size()) - 1
                                 : TclParseInt(args[3]).value_or(-1);
    if (i < 0 || i >= static_cast<int64_t>(s.size())) {
      return EvalResult::Ok("");
    }
    return EvalResult::Ok(std::string(1, s[static_cast<size_t>(i)]));
  }
  if (sub == "range") {
    if (args.size() != 5) {
      return ArityError("string range string first last");
    }
    const int64_t n = static_cast<int64_t>(s.size());
    int64_t first = args[3] == "end" ? n - 1 : TclParseInt(args[3]).value_or(0);
    int64_t last = args[4] == "end" ? n - 1 : TclParseInt(args[4]).value_or(0);
    first = std::max<int64_t>(0, first);
    last = std::min(n - 1, last);
    if (first > last) {
      return EvalResult::Ok("");
    }
    return EvalResult::Ok(s.substr(static_cast<size_t>(first),
                                   static_cast<size_t>(last - first + 1)));
  }
  if (sub == "compare") {
    if (args.size() != 4) {
      return ArityError("string compare string1 string2");
    }
    const int c = s.compare(args[3]);
    return EvalResult::Ok(TclFromInt(c < 0 ? -1 : (c > 0 ? 1 : 0)));
  }
  if (sub == "equal") {
    if (args.size() != 4) {
      return ArityError("string equal string1 string2");
    }
    return EvalResult::Ok(TclFromBool(s == args[3]));
  }
  if (sub == "first") {
    if (args.size() != 4) {
      return ArityError("string first needle haystack");
    }
    const size_t pos = args[3].find(s);
    return EvalResult::Ok(
        TclFromInt(pos == std::string::npos ? -1 : static_cast<int64_t>(pos)));
  }
  if (sub == "match") {
    if (args.size() != 4) {
      return ArityError("string match pattern string");
    }
    return EvalResult::Ok(TclFromBool(GlobMatch(s, args[3])));
  }
  if (sub == "map") {
    if (args.size() != 4) {
      return ArityError("string map mapping string");
    }
    return CmdStringMap(args, args[3]);
  }
  if (sub == "repeat") {
    if (args.size() != 4) {
      return ArityError("string repeat string count");
    }
    const int64_t count = TclParseInt(args[3]).value_or(0);
    std::string out;
    for (int64_t i = 0; i < count; ++i) {
      out += s;
    }
    return EvalResult::Ok(out);
  }
  return EvalResult::MakeError("string: unknown subcommand \"" + sub + "\"");
}

EvalResult CmdFormat(Interp* interp, const Args& args) {
  if (args.size() < 2) {
    return ArityError("format formatString ?arg ...?");
  }
  const std::string& fmt = args[1];
  std::string out;
  size_t arg_index = 2;
  size_t i = 0;
  while (i < fmt.size()) {
    if (fmt[i] != '%') {
      out.push_back(fmt[i++]);
      continue;
    }
    // Collect the directive: %[-][0][width][.prec]conv
    std::string spec = "%";
    ++i;
    while (i < fmt.size() &&
           (fmt[i] == '-' || fmt[i] == '0' || fmt[i] == '.' ||
            std::isdigit(static_cast<unsigned char>(fmt[i])))) {
      spec.push_back(fmt[i++]);
    }
    if (i >= fmt.size()) {
      return EvalResult::MakeError("format: trailing %");
    }
    const char conv = fmt[i++];
    char buf[256];
    if (conv == '%') {
      out.push_back('%');
      continue;
    }
    if (arg_index >= args.size()) {
      return EvalResult::MakeError("format: not enough arguments");
    }
    const std::string& arg = args[arg_index++];
    switch (conv) {
      case 'd': {
        spec += "lld";
        std::snprintf(buf, sizeof(buf), spec.c_str(),
                      static_cast<long long>(TclParseInt(arg).value_or(0)));
        out += buf;
        break;
      }
      case 'x':
      case 'X': {
        spec += conv == 'x' ? "llx" : "llX";
        std::snprintf(buf, sizeof(buf), spec.c_str(),
                      static_cast<long long>(TclParseInt(arg).value_or(0)));
        out += buf;
        break;
      }
      case 'f':
      case 'g':
      case 'e': {
        spec.push_back(conv);
        std::snprintf(buf, sizeof(buf), spec.c_str(), TclParseDouble(arg).value_or(0.0));
        out += buf;
        break;
      }
      case 's': {
        spec.push_back('s');
        std::snprintf(buf, sizeof(buf), spec.c_str(), arg.c_str());
        out += buf;
        break;
      }
      default:
        return EvalResult::MakeError(std::string("format: bad conversion %") + conv);
    }
  }
  return EvalResult::Ok(out);
}

EvalResult CmdPuts(Interp* interp, const Args& args) {
  // puts ?-nonewline? string
  std::string text;
  if (args.size() == 2) {
    text = args[1] + "\n";
  } else if (args.size() == 3 && args[1] == "-nonewline") {
    text = args[2];
  } else {
    return ArityError("puts ?-nonewline? string");
  }
  if (!interp->AppendOutput(text)) {
    return EvalResult::MakeError("output storage limit exceeded");
  }
  return EvalResult::Ok();
}

EvalResult CmdInfo(Interp* interp, const Args& args) {
  if (args.size() < 2) {
    return ArityError("info subcommand ?arg ...?");
  }
  const std::string& sub = args[1];
  if (sub == "exists") {
    if (args.size() != 3) {
      return ArityError("info exists varName");
    }
    return EvalResult::Ok(TclFromBool(interp->HasVar(args[2])));
  }
  if (sub == "commands") {
    return EvalResult::Ok(TclListJoin(interp->CommandNames()));
  }
  if (sub == "procs") {
    std::vector<std::string> names;
    for (const auto& [name, def] : interp->procs()) {
      names.push_back(name);
    }
    return EvalResult::Ok(TclListJoin(names));
  }
  return EvalResult::MakeError("info: unknown subcommand \"" + sub + "\"");
}

constexpr Builtin kBuiltins[] = {
    {"append", CmdAppend},
    {"break", CmdBreak},
    {"catch", CmdCatch},
    {"concat", CmdConcat},
    {"continue", CmdContinue},
    {"dict", CmdDict},
    {"error", CmdError},
    {"eval", CmdEval},
    {"expr", CmdExpr},
    {"for", CmdFor},
    {"foreach", CmdForeach},
    {"format", CmdFormat},
    {"global", CmdGlobal},
    {"if", CmdIf},
    {"incr", CmdIncr},
    {"info", CmdInfo},
    {"join", CmdJoin},
    {"lappend", CmdLappend},
    {"lindex", CmdLindex},
    {"linsert", CmdLinsert},
    {"list", CmdList},
    {"llength", CmdLlength},
    {"lrange", CmdLrange},
    {"lreplace", CmdLreplace},
    {"lreverse", CmdLreverse},
    {"lsearch", CmdLsearch},
    {"lsort", CmdLsort},
    {"proc", CmdProc},
    {"puts", CmdPuts},
    {"return", CmdReturn},
    {"set", CmdSet},
    {"split", CmdSplit},
    {"string", CmdString},
    {"switch", CmdSwitch},
    {"unset", CmdUnset},
    {"uplevel", CmdUplevel},
    {"upvar", CmdUpvar},
    {"while", CmdWhile},
};
static_assert(std::is_sorted(std::begin(kBuiltins), std::end(kBuiltins),
                             [](const Builtin& a, const Builtin& b) { return a.name < b.name; }),
              "lookup binary-searches kBuiltins by name");

}  // namespace

std::span<const Builtin> Builtins() { return kBuiltins; }

}  // namespace rover
