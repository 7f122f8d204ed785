#include "spans.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_s = now_s();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double SpanLog::close(int id, double count) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order: " +
                           spans_.at(static_cast<std::size_t>(id)).name);
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = now_s();
  s.count = count;
  return s.end_s - s.start_s;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %d, \"count\": %.17g}%s\n",
                 s.name.c_str(), s.start_s, s.end_s, s.parent, s.count,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
