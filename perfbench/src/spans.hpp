// In-memory span recorder for the traced benchmark run.
//
// A span marks one call into a layer of the simulator: its name, start
// and end (steady_clock ns since the recorder was created), the span that
// encloses it, and the id of the benchmark run it belongs to. Spans are
// recorded only from the benchmark's own code, around calls into the
// library's public functions; the library itself is untouched.
//
// With no recorder installed (the untraced runs) a Scope costs one branch
// and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
  std::uint32_t run_id = 0;
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Open a span under the innermost open one; returns its index.
  std::int32_t open(std::string name, std::uint32_t run_id);
  void close(std::int32_t idx);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children. Children of one
  /// span run one after another on one thread, so their union is their
  /// sum. By this definition the self times under a root sum to the
  /// root's duration; well_nested() makes the definition hold.
  [[nodiscard]] std::vector<std::int64_t> self_times() const;

  /// Whether every span is closed, ends no earlier than it starts, lies
  /// inside its parent, does not overlap its previous sibling, and has a
  /// self time of at least 0.
  [[nodiscard]] bool well_nested() const;

  /// Write every span as JSON lines to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// The process-wide recorder, or nullptr when tracing is off.
SpanRecorder* recorder();
void set_recorder(SpanRecorder* rec);

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(std::string_view name, std::uint32_t run_id)
      : rec_(recorder()),
        idx_(rec_ ? rec_->open(std::string(name), run_id) : -1) {}
  ~Scope() {
    if (rec_) rec_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t idx_;
};

}  // namespace perfbench
