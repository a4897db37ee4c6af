// Minimal leveled logging. Off by default (benchmarks and tests stay quiet);
// enable with Logger::SetLevel.

#ifndef ROVER_SRC_UTIL_LOGGING_H_
#define ROVER_SRC_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace rover {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

class Logger {
 public:
  static void SetLevel(LogLevel level);
  static LogLevel level();

  static void Emit(LogLevel level, const char* file, int line, const std::string& message);
};

// Accumulates a message and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { Logger::Emit(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace rover

#define ROVER_LOG(severity)                                                   \
  if (::rover::LogLevel::k##severity < ::rover::Logger::level()) {            \
  } else                                                                      \
    ::rover::LogMessage(::rover::LogLevel::k##severity, __FILE__, __LINE__)

#endif  // ROVER_SRC_UTIL_LOGGING_H_
