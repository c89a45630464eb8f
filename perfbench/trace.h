// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer (nothing inside src/ is instrumented). Each recording thread owns one
// SpanBuffer, so recording takes no lock; a span's parent lives in the same
// buffer. Buffers are preallocated and never grow: once full, further spans
// are counted as dropped. Everything is written out once, at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Microseconds since the process's time origin (first use).
inline double now_us() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t parent = -1;  // index in the same buffer, -1 = root
  std::uint64_t request = 0;  // request id (0 = not a request span)
  double start_us = 0;
  double end_us = 0;
};

class SpanBuffer {
 public:
  // A null buffer (capacity 0) records nothing: the untraced run passes one.
  SpanBuffer(char tag, std::size_t capacity) : tag_(tag) {
    spans_.reserve(capacity);
  }

  bool enabled() const { return spans_.capacity() > 0; }

  // Returns the span's index (to pass as a child's parent), -1 when dropped.
  std::int64_t add(const char* name, std::int64_t parent,
                   std::uint64_t request, double start_us, double end_us) {
    if (spans_.size() == spans_.capacity()) {
      dropped_ += enabled() ? 1 : 0;
      return -1;
    }
    spans_.push_back(Span{name, parent, request, start_us, end_us});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  // Sets the end of a span opened before its children were known.
  void close(std::int64_t index, double end_us) {
    if (index >= 0) {
      spans_[static_cast<std::size_t>(index)].end_us = end_us;
    }
  }

  std::uint64_t dropped() const { return dropped_; }

  // One JSON object per line: {"id","parent","name","req","start_us","end_us"}.
  void write(std::ofstream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":\"" << tag_ << i << "\",\"parent\":";
      if (s.parent >= 0) {
        out << "\"" << tag_ << s.parent << "\"";
      } else {
        out << "null";
      }
      out << ",\"name\":\"" << s.name << "\",\"req\":" << s.request
          << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
          << "}\n";
    }
  }

 private:
  char tag_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
