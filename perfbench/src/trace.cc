#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanBuffer::SpanBuffer(size_t capacity) : spans_(capacity) {}

void SpanBuffer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int64_t id, int lane) {
  const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_[slot] = Span{name, start_ns, end_ns, id, lane};
}

size_t SpanBuffer::size() const {
  return std::min(next_.load(std::memory_order_acquire), spans_.size());
}

int64_t SpanBuffer::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

bool SpanBuffer::WriteChromeJson(const std::string& path, int64_t origin_ns,
                                 const std::string& metadata_json) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) return false;
  FILE* out = file.get();
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"metadata\": %s,\n",
               metadata_json.c_str());
  std::fprintf(out, "\"traceEvents\": [\n");
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld}}%s\n",
                 span.name, span.lane,
                 static_cast<double>(span.start_ns - origin_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<long long>(span.id), i + 1 < n ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::ferror(out) == 0 && std::fclose(file.release()) == 0;
}

}  // namespace perfbench
