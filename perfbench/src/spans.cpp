#include "spans.hpp"

#include <cstdio>

#include "common/json.hpp"

namespace perfbench {
namespace {

SpanRecorder* g_recorder = nullptr;

}  // namespace

SpanRecorder* recorder() { return g_recorder; }
void set_recorder(SpanRecorder* rec) { g_recorder = rec; }

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int32_t SpanRecorder::open(std::string name, std::uint32_t run_id) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.run_id = run_id;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(idx);
  // Read the clock last, so the bookkeeping above is not inside the span.
  spans_[static_cast<std::size_t>(idx)].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  return idx;
}

void SpanRecorder::close(std::int32_t idx) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  spans_[static_cast<std::size_t>(idx)].end_ns = now;
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].duration_ns();
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.duration_ns();
  return self;
}

bool SpanRecorder::well_nested() const {
  if (!open_.empty()) return false;
  const std::vector<std::int64_t> self = self_times();
  std::vector<std::int64_t> last_child_end(spans_.size(), INT64_MIN);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns || self[i] < 0) return false;
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (s.start_ns < spans_[p].start_ns || s.end_ns > spans_[p].end_ns ||
        s.start_ns < last_child_end[p])
      return false;
    last_child_end[p] = s.end_ns;
  }
  return true;
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Span& s : spans_) {
    ok = std::fprintf(f,
                      "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                      "\"parent\":%d,\"run\":%u}\n",
                      rw::json::Writer::escape(s.name).c_str(),
                      static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns), s.parent,
                      s.run_id) > 0 &&
         ok;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
