// Minimal leveled logger.
//
// Simulation components log through a process-global logger so examples can
// turn on tracing (`log_level=debug`) without plumbing a logger handle
// through every constructor. The logger is synchronised; sweep workers and
// server threads log from multiple threads.
#pragma once

#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace mgrid::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

[[nodiscard]] std::string_view to_string(LogLevel level) noexcept;
/// Parses "trace|debug|info|warn|error|off" (case-insensitive); returns
/// kInfo for unknown text.
[[nodiscard]] LogLevel parse_log_level(std::string_view text) noexcept;

class Logger {
 public:
  using Sink = std::function<void(LogLevel, std::string_view)>;

  /// The process-global logger (default: kWarn to stderr).
  static Logger& instance();

  void set_level(LogLevel level) noexcept;
  [[nodiscard]] LogLevel level() const noexcept;
  [[nodiscard]] bool enabled(LogLevel level) const noexcept;

  /// Replaces the output sink (tests capture output this way). Custom sinks
  /// receive the raw, unformatted message; only the default stderr sink
  /// prints the format_line() prefix. Pass nullptr to restore the default
  /// stderr sink.
  void set_sink(Sink sink);

  /// Installs a simulation-time source consulted when formatting the default
  /// sink's prefix (the federation installs its grant time for the duration
  /// of a run). Pass nullptr to clear; the prefix then omits sim time.
  /// The clock is per-thread: when several federations run concurrently
  /// (sweep engine), each worker's log lines carry its own grant time.
  void set_clock(std::function<double()> clock);

  /// The default sink's line format:
  ///   [LEVEL HH:MM:SS.mmm sim=12.500] message     (with a clock installed)
  ///   [LEVEL HH:MM:SS.mmm] message                (without)
  [[nodiscard]] std::string format_line(LogLevel level,
                                        std::string_view message) const;

  void log(LogLevel level, std::string_view message);

 private:
  Logger();

  mutable std::mutex mutex_;
  LogLevel level_;
  Sink sink_;
};

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream out;
  (out << ... << std::forward<Args>(args));
  return out.str();
}
}  // namespace detail

/// Streams all arguments into one message; evaluation is skipped entirely
/// when the level is disabled.
template <typename... Args>
void log(LogLevel level, Args&&... args) {
  Logger& logger = Logger::instance();
  if (!logger.enabled(level)) return;
  logger.log(level, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_trace(Args&&... args) {
  log(LogLevel::kTrace, std::forward<Args>(args)...);
}
template <typename... Args>
void log_debug(Args&&... args) {
  log(LogLevel::kDebug, std::forward<Args>(args)...);
}
template <typename... Args>
void log_info(Args&&... args) {
  log(LogLevel::kInfo, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(Args&&... args) {
  log(LogLevel::kWarn, std::forward<Args>(args)...);
}
template <typename... Args>
void log_error(Args&&... args) {
  log(LogLevel::kError, std::forward<Args>(args)...);
}

}  // namespace mgrid::util
