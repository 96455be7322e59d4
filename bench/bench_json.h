// Minimal machine-readable benchmark output: each bench writes a
// BENCH_<name>.json next to its stdout report, so CI can archive the run
// and the perf trajectory can be plotted without scraping logs.
//
// Deliberately tiny: flat rows of (key, scalar) pairs under a named bench —
// no dependency, no escaping beyond quotes/backslashes (labels are ASCII).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace newtos::benchjson {

class Writer {
 public:
  explicit Writer(std::string bench) : bench_(std::move(bench)) {}

  void begin_row() { rows_.emplace_back(); }
  void field(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    raw(key, buf);
  }
  void field(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void field(const std::string& key, int v) { raw(key, std::to_string(v)); }
  void field(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    quoted += escaped(v);
    quoted += '"';
    raw(key, std::move(quoted));
  }

  // Writes {"bench": ..., "rows": [...]}; false (with a note on stderr) if
  // the file cannot be created.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [\n",
                 escaped(bench_).c_str());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fputs("  {", f);
      for (std::size_t k = 0; k < rows_[r].size(); ++k) {
        std::fprintf(f, "%s\"%s\": %s", k == 0 ? "" : ", ",
                     escaped(rows_[r][k].first).c_str(),
                     rows_[r][k].second.c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 == rows_.size() ? "" : ",");
    }
    std::fputs("]}\n", f);
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  void raw(const std::string& key, std::string json) {
    rows_.back().emplace_back(key, std::move(json));
  }
  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace newtos::benchjson
