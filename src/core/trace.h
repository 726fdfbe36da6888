// The fault-propagation trace log (paper §III-C(c)).
//
// Chaser records every tainted memory read and write with: eip (instruction
// pointer), virtual address, physical address, taint mask and current value.
// Counters are exact and unbounded; stored events are capped so million-
// event CLAMR traces don't exhaust memory (the drop count is reported).
// For full-fidelity traces, attach a TraceSink (e.g. analysis::TraceSpool):
// every event is teed to the sink *before* the capacity check, so a sink
// never loses events even when the in-memory log drops them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace chaser::core {

enum class TraceEventKind : std::uint8_t {
  kInjection,
  kTaintedRead,
  kTaintedWrite,
  kInstruction,  // instruction-granularity tracing (ablation mode only)
  kTaintedOutput,  // a tainted byte left the process through an output fd
};

inline constexpr std::size_t kNumTraceEventKinds = 5;

const char* TraceEventKindName(TraceEventKind k);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kTaintedRead;
  Rank rank = -1;             // -1 for single-process runs
  std::uint64_t instret = 0;  // retired instructions when the event fired
  std::uint64_t pc = 0;       // guest instruction index (eip)
  GuestAddr vaddr = 0;
  PhysAddr paddr = 0;
  std::uint32_t size = 0;
  std::uint64_t value = 0;
  std::uint64_t taint = 0;    // packed per-byte masks
  // kTaintedOutput only: which output stream the byte escaped through and
  // its byte offset in that stream (identifies an SDC'd output byte).
  int fd = -1;
  std::uint64_t stream_off = 0;

  std::string Describe() const;
};

/// One point of the tainted-bytes-over-time curve (Fig. 7).
struct TaintSample {
  Rank rank = -1;
  std::uint64_t instret = 0;
  std::uint64_t tainted_bytes = 0;
  bool operator==(const TaintSample&) const = default;
};

/// Streaming consumer of trace events (implemented by analysis::TraceSpool).
/// Receives every event added to a TraceLog regardless of the log's capacity.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnTraceEvent(const TraceEvent& event) = 0;
};

class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = 1u << 17) : capacity_(capacity) {}

  void Add(const TraceEvent& event);

  /// Tee every subsequent Add into `sink` (nullptr detaches). The sink is
  /// borrowed and must outlive its installation; Clear() does not detach it.
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  std::uint64_t count(TraceEventKind k) const;
  std::uint64_t tainted_reads() const { return count(TraceEventKind::kTaintedRead); }
  std::uint64_t tainted_writes() const { return count(TraceEventKind::kTaintedWrite); }
  std::uint64_t injections() const { return count(TraceEventKind::kInjection); }
  std::uint64_t instructions_traced() const { return count(TraceEventKind::kInstruction); }
  std::uint64_t tainted_outputs() const { return count(TraceEventKind::kTaintedOutput); }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }

  void Clear();

  /// Human-readable dump of up to `limit` stored events.
  std::string ToString(std::size_t limit = 50) const;

  /// CSV export of all stored events (kind, rank, instret, eip, vaddr,
  /// paddr, size, value, taint, fd, offset) — the paper's post-analysis log
  /// format.
  void WriteCsv(std::ostream& out) const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::uint64_t counts_[kNumTraceEventKinds] = {0, 0, 0, 0, 0};
  std::uint64_t dropped_ = 0;
  TraceSink* sink_ = nullptr;
};

}  // namespace chaser::core
