// Minimal leveled logging to stderr.
//
// Usage: MCC_LOG(info) << "joined group " << g;
// The stream is flushed as one line when the temporary dies.
#ifndef MCC_UTIL_LOGGING_H
#define MCC_UTIL_LOGGING_H

#include <optional>
#include <sstream>
#include <string>

namespace mcc::util {

enum class log_level { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

/// Global threshold; messages below it are discarded.
void set_log_level(log_level level);
log_level get_log_level();

/// Canonical lowercase name ("debug" ... "off").
[[nodiscard]] const char* log_level_name(log_level level);
/// Parses a lowercase level name; nullopt for anything else (callers own the
/// friendly-error UX, like sim::qdisc_from_name).
[[nodiscard]] std::optional<log_level> log_level_from_name(
    const std::string& name);

/// Applies the MCC_LOG_LEVEL environment variable, if set and valid, to the
/// global threshold. Returns the raw value of an unparseable setting so the
/// caller can complain; nullopt means "applied or unset". Flag glue
/// (exp::apply_log_level_flag) layers --log-level on top of this.
std::optional<std::string> apply_log_level_env();

namespace detail {
void emit_log_line(log_level level, const std::string& line);
}

/// One log statement; accumulates into a buffer, emits on destruction.
/// The threshold is latched once at construction: one get_log_level() read
/// per statement instead of one per << plus one in the destructor, and a
/// mid-statement set_log_level() cannot emit a half-built line.
class log_line {
 public:
  explicit log_line(log_level level)
      : enabled_(level >= get_log_level()), level_(level) {}
  log_line(const log_line&) = delete;
  log_line& operator=(const log_line&) = delete;
  ~log_line() {
    if (enabled_) detail::emit_log_line(level_, os_.str());
  }

  template <typename T>
  log_line& operator<<(const T& value) {
    if (enabled_) os_ << value;
    return *this;
  }

 private:
  bool enabled_;
  log_level level_;
  std::ostringstream os_;
};

}  // namespace mcc::util

#define MCC_LOG(severity) \
  ::mcc::util::log_line(::mcc::util::log_level::severity)

#endif  // MCC_UTIL_LOGGING_H
