// log.hpp — lightweight leveled logging for the simulator.
//
// Components log protocol milestones (pairing stages, LMP auth, attack
// steps). The default sink is stderr with a global minimum level; tests set
// the level to Error to stay quiet, examples set Info to narrate scenarios.
// A capture sink can be installed to assert on log output in tests.
#pragma once

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace blap {

enum class LogLevel : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

[[nodiscard]] const char* to_string(LogLevel level);

class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string& component, const std::string& msg)>;

  static Logger& instance();

  /// Level reads/writes are atomic: campaign workers consult enabled() on
  /// every log macro while the main thread may still be configuring.
  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  [[nodiscard]] LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// Replace the output sink (an empty Sink restores the stderr default).
  /// Safe to call while other threads log: the sink lives behind a
  /// mutex-guarded shared_ptr, so an in-flight log() keeps the sink it
  /// already grabbed alive while the swap happens.
  void set_sink(Sink sink);

  void log(LogLevel level, const std::string& component, const std::string& msg);

  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) >= static_cast<int>(this->level());
  }

 private:
  Logger() = default;
  [[nodiscard]] std::shared_ptr<const Sink> current_sink() const;

  std::atomic<LogLevel> level_{LogLevel::Warn};
  mutable std::mutex sink_mutex_;
  std::shared_ptr<const Sink> sink_;  // null = stderr default
};

/// printf-style formatting into std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// printf-style formatting appended to `out`: strfmt() without the
/// temporary, for emitters that build one large report string.
void append_fmt(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

#define BLAP_LOG(level, component, ...)                                       \
  do {                                                                        \
    if (::blap::Logger::instance().enabled(level)) {                          \
      ::blap::Logger::instance().log(level, component, ::blap::strfmt(__VA_ARGS__)); \
    }                                                                         \
  } while (0)

#define BLAP_TRACE(component, ...) BLAP_LOG(::blap::LogLevel::Trace, component, __VA_ARGS__)
#define BLAP_DEBUG(component, ...) BLAP_LOG(::blap::LogLevel::Debug, component, __VA_ARGS__)
#define BLAP_INFO(component, ...) BLAP_LOG(::blap::LogLevel::Info, component, __VA_ARGS__)
#define BLAP_WARN(component, ...) BLAP_LOG(::blap::LogLevel::Warn, component, __VA_ARGS__)
#define BLAP_ERROR(component, ...) BLAP_LOG(::blap::LogLevel::Error, component, __VA_ARGS__)

}  // namespace blap
