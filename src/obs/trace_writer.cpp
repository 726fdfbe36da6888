#include "obs/trace_writer.h"

#include "common/fileio.h"
#include "common/strings.h"

namespace chaser::obs {

namespace {

/// Microseconds with sub-microsecond precision — the trace-event format's
/// native unit.
std::string TsUs(std::uint64_t ns) {
  return StrFormat("%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
                   static_cast<unsigned long long>(ns % 1000));
}

}  // namespace

TraceJsonWriter::TraceJsonWriter(std::string path, std::uint32_t pid,
                                 const std::string& process_name)
    : path_(std::move(path)),
      pid_field_(StrFormat("\"pid\":%u", pid)),
      anchor_us_(RealtimeAnchorUs()) {
  AppendEventLocked(StrFormat(
      "{\"name\":\"process_name\",\"ph\":\"M\",%s,\"tid\":0,"
      "\"args\":{\"name\":\"%s\"}}",
      pid_field_.c_str(), JsonEscape(process_name).c_str()));
}

std::uint32_t TraceJsonWriter::RegisterThread(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t tid = next_tid_++;
  AppendEventLocked(StrFormat(
      "{\"name\":\"thread_name\",\"ph\":\"M\",%s,\"tid\":%u,"
      "\"args\":{\"name\":\"%s\"}}",
      pid_field_.c_str(), tid, JsonEscape(name).c_str()));
  return tid;
}

void TraceJsonWriter::SetClockOffsetUs(std::int64_t offset_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_offset_us_ = offset_us;
}

void TraceJsonWriter::AddSpan(
    std::uint32_t tid, const char* name, std::uint64_t t0_ns,
    std::uint64_t t1_ns,
    const std::vector<std::pair<std::string, std::string>>& args) {
  std::string event = StrFormat(
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,%s,"
      "\"tid\":%u",
      name, TsUs(t0_ns).c_str(), TsUs(t1_ns - t0_ns).c_str(),
      pid_field_.c_str(), tid);
  if (!args.empty()) {
    event += ",\"args\":{";
    bool first = true;
    for (const auto& [k, v] : args) {
      event += StrFormat("%s\"%s\":\"%s\"", first ? "" : ",",
                         JsonEscape(k).c_str(), JsonEscape(v).c_str());
      first = false;
    }
    event += '}';
  }
  event += '}';
  std::lock_guard<std::mutex> lock(mutex_);
  AppendEventLocked(event);
}

void TraceJsonWriter::AddPhaseSpans(std::uint32_t tid,
                                    const std::vector<PhaseSpan>& spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const PhaseSpan& s : spans) {
    AppendEventLocked(StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,%s,"
        "\"tid\":%u}",
        PhaseName(s.phase), TsUs(s.t0_ns).c_str(),
        TsUs(s.t1_ns - s.t0_ns).c_str(), pid_field_.c_str(), tid));
  }
}

void TraceJsonWriter::AppendEventLocked(const std::string& event_json) {
  if (finished_) return;
  if (num_events_ > 0) events_ += ",\n";
  events_ += event_json;
  ++num_events_;
}

std::uint64_t TraceJsonWriter::num_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_events_;
}

void TraceJsonWriter::Finish() {
  std::string content;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) return;
    finished_ = true;
    const std::int64_t anchor =
        static_cast<std::int64_t>(anchor_us_) + clock_offset_us_;
    content = "{\"traceEvents\": [\n" + events_ +
              StrFormat("\n], \"chaserClockAnchorUs\": %lld, "
                        "\"displayTimeUnit\": \"ms\"}\n",
                        static_cast<long long>(anchor));
    events_.clear();
  }
  WriteFileAtomic(path_, content);
}

}  // namespace chaser::obs
