// Span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around each call into a
// library layer (`net.`, `trace.`, `drp.`, `core.`, `srv.`, `runtime.`), and
// around the benchmark's own work (`bench.`).  Every span keeps its name,
// start, end, parent and the operation (iteration) it belongs to; they stay
// in memory and are written out once, when the run ends.  A span's self time
// is its duration minus the time its direct children cover.
//
// Single-threaded by design: the benchmark issues every layer call from its
// main thread, so the open-span stack needs no synchronisation.  With
// tracing off, `scope()` records nothing and costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the parent span, -1 for a root
  int op = -1;         ///< operation index the span belongs to, -1 = none
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span on destruction; inert when tracing is off.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(std::move(name));
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Opens a span for the rest of the enclosing C++ scope.
  Scope scope(std::string name) {
    return Scope(enabled_ && !paused_ ? this : nullptr, std::move(name));
  }

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  auto timed(std::string name, Fn&& fn) {
    Scope span = scope(std::move(name));
    return fn();
  }

  /// Spans opened from now on belong to operation `op` (-1: none).
  void set_op(int op) noexcept { op_ = op; }

  /// While paused no span is recorded (the untraced operations of a
  /// traced run).
  void pause(bool paused) noexcept { paused_ = paused; }

  /// Self time of span `i`: its duration minus its direct children's.
  double self_seconds(std::size_t i) const {
    double self = spans_[i].end - spans_[i].start;
    for (std::size_t c = i + 1; c < spans_.size(); ++c) {
      if (spans_[c].parent == static_cast<int>(i)) {
        self -= spans_[c].end - spans_[c].start;
      }
    }
    return self;
  }

  /// Per operation, the summed self time of the spans named `name`;
  /// operations without such a span are left out.
  std::vector<double> self_per_op(const std::string& name) const {
    std::vector<std::pair<int, double>> by_op;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      const double self = self_seconds(i);
      if (!by_op.empty() && by_op.back().first == spans_[i].op) {
        by_op.back().second += self;
      } else {
        by_op.emplace_back(spans_[i].op, self);
      }
    }
    std::vector<double> out;
    out.reserve(by_op.size());
    for (const auto& entry : by_op) out.push_back(entry.second);
    return out;
  }

  /// Share of the traced time each layer (the span-name prefix before the
  /// first '.') spends in its own spans' self time.  The denominator is the
  /// total duration of root spans; `bench.check` spans and everything under
  /// them (output checks) are left out of both sides.
  std::map<std::string, double> layer_self_fractions() const {
    std::vector<char> skipped(spans_.size(), 0);
    double total = 0.0;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      skipped[i] = s.name == "bench.check" ||
                   (s.parent >= 0 && skipped[static_cast<std::size_t>(s.parent)]);
      if (skipped[i]) continue;
      if (s.parent < 0) total += s.end - s.start;
      self[s.name.substr(0, s.name.find('.'))] += self_seconds(i);
    }
    for (auto& entry : self) entry.second = total > 0.0 ? entry.second / total : 0.0;
    return self;
  }

  /// Writes one JSON object per span (JSON Lines); returns success.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
          << ", \"self_s\": " << self_seconds(i) << ", \"parent\": "
          << s.parent << ", \"op\": " << s.op << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  int open(std::string name) {
    const int index = static_cast<int>(spans_.size());
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.start = seconds_since(origin_);
    spans_.push_back(std::move(span));
    stack_.push_back(index);
    return index;
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = seconds_since(origin_);
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_;
  int op_ = -1;
  bool paused_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
