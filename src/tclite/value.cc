#include "src/tclite/value.h"

#include <array>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rover {

std::optional<int64_t> TclParseInt(std::string_view s) {
  // Trim surrounding whitespace.
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  if (s.empty()) {
    return std::nullopt;
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 0);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return std::nullopt;
  }
  return static_cast<int64_t>(v);
}

std::optional<double> TclParseDouble(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  if (s.empty()) {
    return std::nullopt;
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size() || std::isnan(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> TclParseBool(std::string_view s) {
  std::string lower;
  lower.reserve(s.size());
  for (char c : s) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") {
    return false;
  }
  if (auto i = TclParseInt(lower)) {
    return *i != 0;
  }
  return std::nullopt;
}

std::string TclFromInt(int64_t v) { return std::to_string(v); }

std::string TclFromDouble(double v) {
  // Integral doubles keep a trailing ".0" so they stay doubles, as in Tcl.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  if (std::strpbrk(buf, ".eEnN") == nullptr) {
    std::strcat(buf, ".0");
  }
  return buf;
}

std::string TclFromBool(bool v) { return v ? "1" : "0"; }

namespace {

// Byte classes for the list scanner. List whitespace is the six bytes
// std::isspace accepts in the C locale, the only locale the toolkit runs
// in; a table lookup is cheaper than the call, or than six compares.
enum : uint8_t { kWordByte = 0, kSpaceByte = 1, kEscapeByte = 2 };
constexpr std::array<uint8_t, 256> kListBytes = [] {
  std::array<uint8_t, 256> classes{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[c] = kSpaceByte;
  }
  classes['\\'] = kEscapeByte;
  return classes;
}();

uint8_t ListByteClass(char c) { return kListBytes[static_cast<unsigned char>(c)]; }
bool IsListSpace(char c) { return ListByteClass(c) == kSpaceByte; }

}  // namespace

Result<std::vector<std::string>> TclListSplit(std::string_view list) {
  std::vector<std::string> out;
  size_t i = 0;
  const size_t n = list.size();
  while (i < n) {
    while (i < n && IsListSpace(list[i])) {
      ++i;
    }
    if (i >= n) {
      break;
    }
    std::string elem;
    if (list[i] == '{') {
      int depth = 1;
      ++i;
      const size_t start = i;
      while (i < n && depth > 0) {
        if (list[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        if (list[i] == '{') {
          ++depth;
        } else if (list[i] == '}') {
          --depth;
        }
        ++i;
      }
      if (depth != 0) {
        return InvalidArgumentError("unbalanced braces in list");
      }
      elem.assign(list.substr(start, i - start - 1));
      if (i < n && !IsListSpace(list[i])) {
        return InvalidArgumentError("junk after closing brace in list");
      }
    } else if (list[i] == '"') {
      ++i;
      while (i < n && list[i] != '"') {
        if (list[i] == '\\' && i + 1 < n) {
          elem.push_back(list[i + 1]);
          i += 2;
        } else {
          elem.push_back(list[i]);
          ++i;
        }
      }
      if (i >= n) {
        return InvalidArgumentError("unbalanced quote in list");
      }
      ++i;  // closing quote
      if (i < n && !IsListSpace(list[i])) {
        return InvalidArgumentError("junk after closing quote in list");
      }
    } else {
      // A bare word is taken in one piece up to its end or its first
      // backslash; escapes from there on are decoded a byte at a time.
      const size_t start = i;
      while (i < n && ListByteClass(list[i]) == kWordByte) {
        ++i;
      }
      elem.assign(list.substr(start, i - start));
      while (i < n && !IsListSpace(list[i])) {
        if (list[i] == '\\' && i + 1 < n) {
          elem.push_back(list[i + 1]);
          i += 2;
        } else {
          elem.push_back(list[i]);
          ++i;
        }
      }
    }
    out.push_back(std::move(elem));
  }
  return out;
}

namespace {

// Whether `element` can be wrapped in {braces} and parse back verbatim.
// Must mirror TclListSplit's brace scanner exactly: backslash escapes the
// following character (so escaped braces do not count toward depth), and a
// trailing lone backslash would escape our own closing brace.
bool CanBraceQuote(std::string_view element) {
  int depth = 0;
  size_t i = 0;
  while (i < element.size()) {
    const char c = element[i];
    if (c == '\\') {
      if (i + 1 >= element.size()) {
        return false;  // trailing backslash would swallow the close brace
      }
      i += 2;
      continue;
    }
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth < 0) {
        return false;
      }
    }
    ++i;
  }
  return depth == 0;
}

}  // namespace

std::string TclQuoteElement(std::string_view element) {
  if (element.empty()) {
    return "{}";
  }
  bool needs_quoting = false;
  for (char c : element) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '"' || c == '\\' || c == '[' ||
        c == ']' || c == '$' || c == ';' || c == '{' || c == '}') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) {
    return std::string(element);
  }
  if (CanBraceQuote(element)) {
    std::string out = "{";
    out.append(element);
    out.push_back('}');
    return out;
  }
  // Backslash-quote everything special.
  std::string out;
  for (char c : element) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '{' || c == '}' || c == '"' ||
        c == '\\' || c == '[' || c == ']' || c == '$' || c == ';') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

std::string TclListJoin(const std::vector<std::string>& elements) {
  std::string out;
  for (size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) {
      out.push_back(' ');
    }
    out += TclQuoteElement(elements[i]);
  }
  return out;
}

}  // namespace rover
