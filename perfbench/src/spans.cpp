#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

/// Span names are benchmark-chosen identifiers, but escape anyway so the
/// file always parses.
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool write_chrome_json(const std::vector<SpanRecord>& spans,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"client\"}}");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const long long parent =
        s.parent == SpanRecord::kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, \"request\": %llu}}",
                 json_escape(s.name).c_str(),
                 json_escape(span_layer(s.name)).c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
