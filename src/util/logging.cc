#include "src/util/logging.h"

#include <cstdio>

namespace rover {
namespace {

LogLevel g_level = LogLevel::kOff;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}

}  // namespace

void Logger::SetLevel(LogLevel level) { g_level = level; }

LogLevel Logger::level() { return g_level; }

void Logger::Emit(LogLevel level, const char* file, int line, const std::string& message) {
  if (level < g_level) {
    return;
  }
  // Strip the directory prefix for readability.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelTag(level), base, line, message.c_str());
}

}  // namespace rover
