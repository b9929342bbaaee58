#include "telemetry/perfetto.hpp"

#include <fstream>
#include <set>

#include "common/json.hpp"

namespace arcane::telemetry {

std::string TraceFile::track_name(std::uint32_t track) {
  if (track == kTrackEcpu) return "eCPU";
  if (track == kTrackDma) return "DMA";
  if (track == kTrackLlc) return "LLC";
  if (track >= 100 && track < 200) {
    return "tenant " + std::to_string(track - 100);
  }
  if (track >= 10 && track < 100) {
    return "VPU " + std::to_string(track - 10);
  }
  return "track " + std::to_string(track);
}

int TraceFile::add_process(const std::string& name, const SpanTracer& spans) {
  const int pid = next_pid_++;
  dropped_ += spans.dropped();

  auto emit = [&](auto&& body) {
    events_ << (first_ ? "\n  " : ",\n  ");
    first_ = false;
    body();
  };

  // Process metadata, then one thread_name record per distinct track so
  // Perfetto labels the swimlanes.
  emit([&] {
    events_ << R"({"ph": "M", "name": "process_name", "pid": )" << pid
            << R"(, "tid": 0, "args": {"name": )";
    events_ << '"' << json_escape(name) << '"';
    events_ << "}}";
  });
  std::set<std::uint32_t> tracks;
  for (const auto& e : spans.events()) tracks.insert(e.track);
  for (std::uint32_t track : tracks) {
    emit([&] {
      events_ << R"({"ph": "M", "name": "thread_name", "pid": )" << pid
              << R"(, "tid": )" << track << R"(, "args": {"name": )";
      events_ << '"' << json_escape(track_name(track)) << '"';
      events_ << "}}";
    });
  }

  for (const auto& e : spans.events()) {
    emit([&] {
      events_ << "{\"name\": ";
      events_ << '"' << json_escape(e.name) << '"';
      events_ << ", \"cat\": \"sim\", \"ph\": "
              << (e.kind == SpanKind::kInstant ? "\"i\"" : "\"X\"")
              << ", \"pid\": " << pid << ", \"tid\": " << e.track
              << ", \"ts\": " << e.begin;
      if (e.kind == SpanKind::kInstant) {
        events_ << ", \"s\": \"t\"";
      } else {
        events_ << ", \"dur\": " << (e.end - e.begin);
      }
      events_ << ", \"args\": {";
      bool first_arg = true;
      auto arg = [&](const char* k, std::int64_t v) {
        if (v < 0) return;
        events_ << (first_arg ? "" : ", ") << '"' << k << "\": " << v;
        first_arg = false;
      };
      arg("tenant", e.tenant);
      arg("job", e.job);
      arg("arg", e.arg);
      events_ << "}}";
    });
  }
  return pid;
}

void TraceFile::write(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [" << events_.str()
     << (first_ ? "" : "\n") << "]}\n";
}

bool TraceFile::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  return static_cast<bool>(out);
}

}  // namespace arcane::telemetry
