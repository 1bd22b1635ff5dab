#include "logging.hh"

#include <cstdio>

namespace fits::support {

namespace {

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "DEBUG";
      case LogLevel::Info:  return "INFO";
      case LogLevel::Warn:  return "WARN";
      case LogLevel::Error: return "ERROR";
    }
    return "?";
}

} // namespace

Logger &
Logger::instance()
{
    static Logger logger;
    return logger;
}

void
Logger::log(LogLevel level, std::string_view component,
            std::string_view message)
{
    if (level < level_.load(std::memory_order_relaxed))
        return;
    // Render the whole record first so it reaches stderr as a single
    // write; the mutex keeps records from different threads ordered.
    std::string line;
    line.reserve(component.size() + message.size() + 16);
    line += '[';
    line += levelName(level);
    line += "] ";
    line.append(component.data(), component.size());
    line += ": ";
    line.append(message.data(), message.size());
    line += '\n';
    std::lock_guard<std::mutex> lock(writeMutex_);
    std::fwrite(line.data(), 1, line.size(), stderr);
}

void
logDebug(std::string_view component, std::string_view message)
{
    Logger::instance().log(LogLevel::Debug, component, message);
}

void
logInfo(std::string_view component, std::string_view message)
{
    Logger::instance().log(LogLevel::Info, component, message);
}

void
logWarn(std::string_view component, std::string_view message)
{
    Logger::instance().log(LogLevel::Warn, component, message);
}

} // namespace fits::support
