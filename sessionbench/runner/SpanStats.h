//===- SpanStats.h - Spans and sample statistics ----------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session benchmark's arithmetic, kept free of PCC dependencies so
/// the self-test can check it in isolation: sample percentiles, an
/// in-memory span recorder, per-span self time, a per-name layer table,
/// and Chrome trace_event JSON output.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_SESSIONBENCH_SPANSTATS_H
#define PCC_SESSIONBENCH_SPANSTATS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <time.h>
#include <utility>
#include <vector>

namespace pcc {
namespace sessionbench {

/// Percentile \p P (0..100) of \p Values by linear interpolation between
/// the closest ranks (rank = P/100 * (n-1)). 0 for an empty sample.
inline double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = P / 100.0 * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  if (Lo + 1 >= Values.size())
    return Values.back();
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] + (Values[Lo + 1] - Values[Lo]) * Frac;
}

inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 50);
}

/// Samples a percentile needs so that at least \p Beyond samples lie
/// above it: the p90 needs 100 samples to have ten beyond it.
inline size_t samplesForPercentile(double P, size_t Beyond) {
  return static_cast<size_t>(static_cast<double>(Beyond) * 100.0 /
                                 (100.0 - P) +
                             0.5);
}

/// Host nanoseconds on the monotonic clock.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Processor nanoseconds this process has used, summed over its
/// threads. Unlike nowNs, it leaves out time spent blocked, as in an
/// fsync waiting for the disk, and time other tasks held the processor.
inline int64_t cpuNs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
}

/// One recorded interval. Parent is an index into the recorder's span
/// list, or -1 for a root.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  uint32_t Session = 0; ///< Shared by the spans of one session; 0: none.
};

/// Single-threaded in-memory span recorder. Disabled, it records
/// nothing and begin()/end() only test a flag.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int32_t begin(const char *Name, uint32_t Session, int64_t StartNs) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = Name;
    S.StartNs = StartNs;
    S.EndNs = StartNs;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Session = Session;
    Spans.push_back(S);
    Open.push_back(static_cast<int32_t>(Spans.size() - 1));
    return Open.back();
  }

  /// Closes \p Index, which must be the innermost open span.
  void end(int32_t Index, int64_t EndNs) {
    if (Index < 0)
      return;
    Spans[static_cast<size_t>(Index)].EndNs = EndNs;
    if (!Open.empty() && Open.back() == Index)
      Open.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Times one call: reads the clock at construction and at stop(), and
/// records the interval as a span when the recorder is enabled.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, const char *Name, uint32_t Session = 0)
      : Rec(Rec), StartNs(nowNs()),
        Index(Rec.begin(Name, Session, StartNs)) {}
  ~ScopedSpan() { (void)stop(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Ends the span (idempotent) and returns its length in nanoseconds.
  int64_t stop() {
    if (!Stopped) {
      EndNs = nowNs();
      Rec.end(Index, EndNs);
      Stopped = true;
    }
    return EndNs - StartNs;
  }
  double stopSeconds() { return static_cast<double>(stop()) / 1e9; }
  int64_t startNs() const { return StartNs; }

private:
  SpanRecorder &Rec;
  int64_t StartNs;
  int64_t EndNs = 0;
  int32_t Index;
  bool Stopped = false;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent).
inline std::vector<int64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Children[static_cast<size_t>(S.Parent)].push_back(
          {S.StartNs, S.EndNs});
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    int64_t Covered = 0;
    int64_t Cursor = P.StartNs;
    for (auto [Start, End] : Kids) {
      Start = std::max(Start, Cursor);
      End = std::min(End, P.EndNs);
      if (End > Start) {
        Covered += End - Start;
        Cursor = End;
      }
    }
    Self[I] = (P.EndNs - P.StartNs) - Covered;
  }
  return Self;
}

/// Per-name aggregate of a span list.
struct LayerRow {
  uint64_t Count = 0;
  int64_t TotalNs = 0;
  int64_t SelfNs = 0;
};

inline std::map<std::string, LayerRow>
layerTable(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self = selfTimes(Spans);
  std::map<std::string, LayerRow> Rows;
  for (size_t I = 0; I != Spans.size(); ++I) {
    LayerRow &R = Rows[Spans[I].Name];
    ++R.Count;
    R.TotalNs += Spans[I].EndNs - Spans[I].StartNs;
    R.SelfNs += Self[I];
  }
  return Rows;
}

/// Writes \p Spans as Chrome trace_event JSON ("X" complete events,
/// microsecond timestamps relative to \p OriginNs). \p OtherDataJson is
/// a JSON object stored under "otherData". Returns false on I/O error.
inline bool writeChromeTrace(const std::string &Path,
                             const std::vector<Span> &Spans,
                             int64_t OriginNs,
                             const std::string &OtherDataJson) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                  "\"traceEvents\":[",
               OtherDataJson.c_str());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Cat(S.Name);
    Cat = Cat.substr(0, Cat.find('.'));
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"session\":%u}}",
                 I ? "," : "", S.Name, Cat.c_str(),
                 static_cast<double>(S.StartNs - OriginNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                 S.Parent, S.Session);
  }
  std::fprintf(F, "\n]}\n");
  bool Written = !std::ferror(F);
  return std::fclose(F) == 0 && Written;
}

} // namespace sessionbench
} // namespace pcc

#endif // PCC_SESSIONBENCH_SPANSTATS_H
