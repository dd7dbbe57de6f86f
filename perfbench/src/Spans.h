//===- perfbench/src/Spans.h - In-memory span recorder ---------*- C++ -*-===//
///
/// \file
/// The traced mode's span recorder. Every span is opened by the
/// benchmark around one of its own calls into a layer's public function
/// (nothing inside the program is instrumented), kept in memory, and
/// written out as JSON when the run ends. A disabled recorder makes
/// Scope a no-op, so the untraced run that produces the end-to-end
/// metrics pays one predictable branch per call and nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One recorded interval. Parent is an index into the recorder's span
/// list, or -1 for a root. A "stage" span groups layer calls (a round,
/// a workload stage); a layer span times exactly one call into the
/// program.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  bool Stage = false;
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  bool enabled() const { return Enabled; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t open(const char *Name, bool Stage) {
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Stage = Stage;
    S.StartNs = nowNs();
    Spans.push_back(S);
    Open.push_back(static_cast<int32_t>(Spans.size() - 1));
    return Open.back();
  }

  void close(int32_t Idx) {
    Spans[static_cast<size_t>(Idx)].EndNs = nowNs();
    Open.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Seconds inside [\p FromNs, \p ToNs) covered by layer spans whose
  /// ancestors are all stage spans (top-level layer calls). Layer spans
  /// never overlap one another at one nesting level, so this is their
  /// summed duration.
  double coveredSeconds(int64_t FromNs, int64_t ToNs) const;

  /// Per-name total and self time (duration minus child spans) of the
  /// spans inside [\p FromNs, \p ToNs).
  struct NameTotals {
    double Total = 0;
    double Self = 0;
    uint64_t Count = 0;
  };
  std::map<std::string, NameTotals> totalsByName(int64_t FromNs,
                                                 int64_t ToNs) const;

  /// Writes every span as a JSON array of {name, start_ns, end_ns,
  /// parent, stage}. Returns false if the file cannot be written.
  bool writeJson(const std::string &Path) const;

  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Origin)
        .count();
  }

private:
  bool Enabled;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// RAII span: records \p Name while in scope when the recorder is on.
class Scope {
public:
  Scope(SpanRecorder &R, const char *Name, bool Stage = false)
      : R(R), Idx(R.enabled() ? R.open(Name, Stage) : -1) {}
  ~Scope() {
    if (Idx >= 0)
      R.close(Idx);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanRecorder &R;
  int32_t Idx;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
