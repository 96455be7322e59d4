#include "trace.h"

#include <cstdio>

namespace newtos::bench {

Trace::Trace(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {
  if (!enabled_) return;
  thread_name(kHostPid, 0, "host clock");
  thread_name(kSimPid, 0, "simulated clock");
}

double Trace::host_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

void Trace::span(int pid, int tid, std::string name, double ts_us,
                 double dur_us, std::string args) {
  if (!enabled_) return;
  events_.push_back(Event{'X', pid, tid, 0, at(pid, ts_us), dur_us,
                          std::move(name), std::move(args)});
}

void Trace::async_span(int pid, std::string name, std::uint64_t id,
                       double ts_us, double dur_us, std::string args) {
  if (!enabled_) return;
  const double ts = at(pid, ts_us);
  events_.push_back(Event{'b', pid, 0, id, ts, 0.0, name, std::move(args)});
  events_.push_back(
      Event{'e', pid, 0, id, ts + dur_us, 0.0, std::move(name), {}});
}

void Trace::thread_name(int pid, int tid, const std::string& name) {
  if (!enabled_) return;
  events_.push_back(Event{'M', pid, tid, 0, 0.0, 0.0, "thread_name",
                          "\"name\":\"" + name + "\""});
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host\"}},\n"
               "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
               "\"args\":{\"name\":\"simulated\"}}",
               kHostPid, kSimPid);
  for (const Event& e : events_) {
    std::fprintf(f, ",\n{\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,"
                    "\"name\":\"%s\",\"ts\":%.3f",
                 e.ph, e.pid, e.tid, e.name.c_str(), e.ts);
    if (e.ph == 'X') std::fprintf(f, ",\"dur\":%.3f", e.dur);
    if (e.ph == 'b' || e.ph == 'e') {
      std::fprintf(f, ",\"cat\":\"rpc\",\"id\":%llu",
                   static_cast<unsigned long long>(e.id));
    }
    if (!e.args.empty()) std::fprintf(f, ",\"args\":{%s}", e.args.c_str());
    std::fputc('}', f);
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace newtos::bench
