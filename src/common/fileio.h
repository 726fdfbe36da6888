// Crash-safe file output helpers.
//
// Campaign artifacts (CSV exports, reports, analysis dumps) are read back by
// later tooling — a process killed mid-write must never leave a truncated
// file that a reader mistakes for a complete one. The discipline here is the
// classic write-to-temp / fsync / rename: the destination path either holds
// the old contents or the complete new contents, never a prefix.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace chaser {

/// Write the bytes `write` streams into its ostream to `path` atomically:
/// they go to `<path>.tmp`, are flushed and fsync'd, and the temp file is
/// renamed over `path`. Throws ConfigError if any step fails and rethrows
/// whatever `write` throws; either way the temp file is removed and `path`
/// keeps its old contents.
void WriteFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& write);

/// WriteFileAtomic of a string held whole in memory.
void WriteFileAtomic(const std::string& path, const std::string& content);

/// Read the whole file at `path` into a string. Throws ConfigError when the
/// file cannot be opened or read.
std::string ReadFileToString(const std::string& path);

}  // namespace chaser
