// Resident-memory probes for tests that bound what a guest action costs the
// host: a fault-corrupted length must not turn into a host-side allocation
// and zero fill of the whole (bogus) size.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>

namespace chaser::testutil {

/// Sanitizer allocators fill or shadow every allocated byte, so RSS bounds
/// say nothing under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitizedAllocator = true;
#else
inline constexpr bool kSanitizedAllocator = false;
#endif

/// Virtual and resident size of this process in bytes, {0, 0} when /proc
/// is unavailable.
struct Statm {
  std::uint64_t virtual_bytes = 0;
  std::uint64_t resident_bytes = 0;
};
inline Statm ReadStatm() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return {};
  unsigned long long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  if (n != 2) return {};
  const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  return {pages * page, resident * page};
}

inline std::uint64_t ResidentBytes() { return ReadStatm().resident_bytes; }
inline std::uint64_t VirtualBytes() { return ReadStatm().virtual_bytes; }

/// Reset this process's peak-RSS mark (VmHWM) to its current RSS. False
/// when /proc/self/clear_refs is not writable.
inline bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// The peak-RSS mark (VmHWM) in bytes, 0 when /proc is unavailable.
inline std::uint64_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace chaser::testutil
