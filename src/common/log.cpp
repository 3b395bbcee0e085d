#include "common/log.hpp"

#include <cstdarg>
#include <vector>

namespace blap {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) {
  std::shared_ptr<const Sink> next =
      sink ? std::make_shared<const Sink>(std::move(sink)) : nullptr;
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = std::move(next);
}

std::shared_ptr<const Logger::Sink> Logger::current_sink() const {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  return sink_;
}

void Logger::log(LogLevel level, const std::string& component, const std::string& msg) {
  if (!enabled(level)) return;
  // Grab a reference under the lock, call outside it: a concurrent
  // set_sink() can retire the sink but not destroy it under our feet.
  if (const std::shared_ptr<const Sink> sink = current_sink()) {
    (*sink)(level, component, msg);
    return;
  }
  std::fprintf(stderr, "[%-5s] %-12s %s\n", to_string(level), component.c_str(), msg.c_str());
}

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n <= 0) {
    va_end(args2);
    return {};
  }
  std::vector<char> buf(static_cast<std::size_t>(n) + 1);
  std::vsnprintf(buf.data(), buf.size(), fmt, args2);
  va_end(args2);
  return std::string(buf.data(), static_cast<std::size_t>(n));
}

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args_copy);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof buf) {
    va_end(args_copy);
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  // The stack buffer clipped the output (e.g. a long campaign label);
  // reformat into an exactly-sized heap buffer instead of truncating.
  std::vector<char> big(static_cast<std::size_t>(n) + 1);
  std::vsnprintf(big.data(), big.size(), fmt, args_copy);
  va_end(args_copy);
  out.append(big.data(), static_cast<std::size_t>(n));
}

}  // namespace blap
