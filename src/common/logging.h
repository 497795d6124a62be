// Minimal leveled logging used by the DSMS server and executor.
//
// Logging is off the hot path: operators never log per point; the
// server logs query registration, pipeline lifecycle, and errors.

#ifndef GEOSTREAMS_COMMON_LOGGING_H_
#define GEOSTREAMS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace geostreams {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global minimum level; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Emits one log line (thread-safe) if `level` is at or above the
/// global minimum.
void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message);

namespace internal {

/// True when a `level` message would be emitted.
inline bool LogEnabled(LogLevel level) { return level >= GetLogLevel(); }

/// Stream-style builder backing the GEOSTREAMS_LOG macro.
class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Turns the `<<` chain into a void expression, so the macro can be
/// the false arm of a conditional. `&` binds looser than `<<` and
/// tighter than `?:`.
struct LogVoidify {
  void operator&(const LogStream&) {}
};

}  // namespace internal

/// A filtered level constructs no LogStream and formats no operand.
/// The macro is one expression, so it is safe as the body of an `if`
/// with an `else`.
#define GEOSTREAMS_LOG(level)                                          \
  !::geostreams::internal::LogEnabled(::geostreams::LogLevel::level)   \
      ? (void)0                                                        \
      : ::geostreams::internal::LogVoidify() &                         \
            ::geostreams::internal::LogStream(                         \
                ::geostreams::LogLevel::level, __FILE__, __LINE__)

}  // namespace geostreams

#endif  // GEOSTREAMS_COMMON_LOGGING_H_
