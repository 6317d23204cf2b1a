#ifndef VF2BOOST_COMMON_LOGGING_H_
#define VF2BOOST_COMMON_LOGGING_H_

#include <cassert>
#include <cstdlib>
#include <sstream>
#include <string>

namespace vf2boost {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kFatal = 4 };

/// Sets the minimum level emitted to stderr. The initial level is read from
/// the VF2_LOG_LEVEL environment variable at process startup
/// ("debug|info|warn|error|fatal" or "0".."4"); kInfo when unset or
/// unparsable. SetLogLevel overrides the env value.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Parses "debug|info|warn|error|fatal" (case-insensitive) or "0".."4".
/// Returns false (leaving *level untouched) on anything else.
bool ParseLogLevel(const std::string& text, LogLevel* level);

/// Sets a thread-local context tag prepended to every log line from the
/// calling thread (e.g. "[A0] party A0 failed: ..."). The federated engines
/// tag their threads with the party id so interleaved multi-party logs stay
/// attributable. An empty tag clears the prefix.
void SetThreadLogContext(const std::string& tag);
const std::string& GetThreadLogContext();

namespace internal {

/// One log statement; flushes the accumulated message on destruction.
/// kFatal messages abort the process after flushing.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal

#define VF2_LOG(level)                                                 \
  ::vf2boost::internal::LogMessage(::vf2boost::LogLevel::k##level,     \
                                   __FILE__, __LINE__)

/// Invariant check that stays on in release builds. On failure, logs the
/// condition and aborts — used for programmer errors, not input validation
/// (input validation returns Status).
#define VF2_CHECK(cond)                                               \
  if (!(cond))                                                        \
  VF2_LOG(Fatal) << "Check failed: " #cond " "

/// Debug-only check. Under NDEBUG the condition is still read, not evaluated,
/// so a variable only a check uses does not warn as set-but-unused.
#ifdef NDEBUG
#define VF2_DCHECK(cond) static_cast<void>(false && (cond))
#else
#define VF2_DCHECK(cond) assert(cond)
#endif

}  // namespace vf2boost

#endif  // VF2BOOST_COMMON_LOGGING_H_
