#include "obs/profiler.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace_writer.h"

namespace chaser::obs {

namespace {

/// Spans buffered per profiler before a self-triggered flush to the writer.
constexpr std::size_t kSpanFlushThreshold = 1 << 16;

thread_local PhaseProfiler* tls_profiler = nullptr;

}  // namespace

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kGolden: return "golden";
    case Phase::kTrial: return "trial";
    case Phase::kTranslate: return "translate";
    case Phase::kExecute: return "execute";
    case Phase::kInject: return "inject";
    case Phase::kTaintPropagate: return "taint-propagate";
    case Phase::kHubPublish: return "hub-publish";
    case Phase::kHubPoll: return "hub-poll";
    case Phase::kJournalFsync: return "journal-fsync";
    case Phase::kStart: return "start";
    case Phase::kClassify: return "classify";
    case Phase::kArm: return "arm";
    case Phase::kCommit: return "commit";
    case Phase::kCapture: return "capture";
  }
  return "?";
}

namespace {

struct ClockAnchor {
  std::chrono::steady_clock::time_point mono;
  std::uint64_t realtime_us;
};

// Monotonic zero and the wall-clock microseconds at that instant are sampled
// together, once, so RealtimeAnchorUs() lets a merger place this process's
// monotonic-relative trace timestamps on a fleet-shared wall clock.
const ClockAnchor& Anchor() {
  static const ClockAnchor anchor = [] {
    ClockAnchor a;
    a.mono = std::chrono::steady_clock::now();
    a.realtime_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    return a;
  }();
  return anchor;
}

}  // namespace

std::uint64_t MonotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Anchor().mono)
          .count());
}

std::uint64_t RealtimeAnchorUs() { return Anchor().realtime_us; }

PhaseProfiler* ThreadProfiler() { return tls_profiler; }
void SetThreadProfiler(PhaseProfiler* p) { tls_profiler = p; }

PhaseProfiler::PhaseProfiler(Registry* registry, TraceJsonWriter* writer,
                             std::uint32_t tid)
    : writer_(writer), tid_(tid) {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    phase_ns_[i] = &registry->GetHistogram(
        std::string("phase_") + PhaseName(static_cast<Phase>(i)) + "_ns",
        LatencyBoundsNs());
  }
}

PhaseProfiler::~PhaseProfiler() { Flush(); }

void PhaseProfiler::Record(Phase p, std::uint64_t t0_ns, std::uint64_t t1_ns,
                           std::uint32_t depth) {
  phase_ns_[static_cast<std::size_t>(p)]->Observe(t1_ns - t0_ns);
  if (writer_ == nullptr) return;
  spans_.push_back({p, t0_ns, t1_ns, depth});
  if (spans_.size() >= kSpanFlushThreshold) Flush();
}

void PhaseProfiler::Flush() {
  if (writer_ == nullptr || spans_.empty()) return;
  writer_->AddPhaseSpans(tid_, spans_);
  spans_.clear();
}

}  // namespace chaser::obs
