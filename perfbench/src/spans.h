// In-memory span log: name, start, end and parent of every timed region
// the harness wraps around a call into the program. Spans are kept in
// memory while the run measures and written out once, when it ends.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call (made at the top of main, so it reads as
/// time since the process started).
double now_s();

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into the log, -1 for a root span
  double count = 0.0;  ///< operations the span covers (0 = not a batch)
};

class SpanLog {
 public:
  /// Opens a span under the innermost open one and returns its index.
  int open(std::string name);
  /// Closes span `id` (which must be the innermost open span), recording
  /// how many operations it covered. Returns its duration in seconds.
  double close(int id, double count = 0.0);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the log as a JSON array of
  /// {"name", "start_s", "end_s", "parent", "count"} objects.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opened on construction, closed on destruction unless
/// closed earlier with an operation count.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name)
      : log_(log), id_(log.open(std::move(name))) {}
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() {
    if (id_ >= 0) log_.close(id_);
  }
  double close(double count = 0.0) {
    const double d = log_.close(id_, count);
    id_ = -1;
    return d;
  }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
