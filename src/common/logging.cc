#include "common/logging.h"

#include <cstdio>

namespace adahealth {
namespace common {

namespace {

/// Minimum level that is actually emitted.
constexpr LogLevel kThreshold = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >= static_cast<int>(kThreshold)),
      level_(level) {
  if (enabled_) {
    // Strip directories from __FILE__ for terse prefixes.
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level_) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

}  // namespace common
}  // namespace adahealth
