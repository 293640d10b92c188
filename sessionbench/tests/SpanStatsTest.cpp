//===- SpanStatsTest.cpp - Runner arithmetic self-test --------------------===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the session benchmark's percentile, self-time and layer-table
/// arithmetic against hand-computed values. Run through
/// `python3 sessionbench/run.py --selftest`; exits non-zero on the first
/// mismatch.
///
//===----------------------------------------------------------------------===//

#include "SpanStats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace pcc::sessionbench;

namespace {

int Failures = 0;

void expectNear(double Got, double Want, const char *What) {
  if (std::fabs(Got - Want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", What, Got, Want);
    ++Failures;
  }
}

Span span(const char *Name, int64_t Start, int64_t End, int32_t Parent) {
  Span S;
  S.Name = Name;
  S.StartNs = Start;
  S.EndNs = End;
  S.Parent = Parent;
  return S;
}

void testPercentiles() {
  expectNear(percentile({}, 50), 0, "empty sample");
  expectNear(percentile({7}, 90), 7, "single sample");
  expectNear(median({3, 1, 2}), 2, "odd median");
  expectNear(median({4, 1, 3, 2}), 2.5, "even median interpolates");
  // Ranks 0..10 over values 0,10,..,100: p90 sits exactly on 90.
  std::vector<double> Tens;
  for (int I = 10; I >= 0; --I)
    Tens.push_back(I * 10.0);
  expectNear(percentile(Tens, 90), 90, "p90 on a rank");
  expectNear(percentile(Tens, 95), 95, "p95 between ranks");
  expectNear(percentile(Tens, 100), 100, "p100 is the maximum");
  expectNear(percentile(Tens, 0), 0, "p0 is the minimum");
  expectNear(static_cast<double>(samplesForPercentile(90, 10)), 100,
             "p90 needs 100 samples for ten beyond it");
  expectNear(static_cast<double>(samplesForPercentile(50, 10)), 20,
             "p50 needs 20 samples for ten beyond it");
}

void testSelfTimes() {
  // root [0,100): children [10,30) and [20,50) overlap (union 40) and
  // [90,120) runs past the parent's end (clipped to 10).
  std::vector<Span> Spans = {
      span("root", 0, 100, -1),  span("a", 10, 30, 0),
      span("b", 20, 50, 0),      span("c", 90, 120, 0),
      span("a.leaf", 12, 18, 1), span("other", 200, 260, -1),
  };
  std::vector<int64_t> Self = selfTimes(Spans);
  expectNear(static_cast<double>(Self[0]), 100 - 40 - 10,
             "root self excludes the union of children");
  expectNear(static_cast<double>(Self[1]), 20 - 6, "a self excludes leaf");
  expectNear(static_cast<double>(Self[2]), 30, "b has no children");
  expectNear(static_cast<double>(Self[3]), 30, "c keeps its own length");
  expectNear(static_cast<double>(Self[4]), 6, "leaf self is its length");
  expectNear(static_cast<double>(Self[5]), 60, "second root");

  auto Table = layerTable(Spans);
  expectNear(static_cast<double>(Table["root"].Count), 1, "root count");
  expectNear(static_cast<double>(Table["a"].TotalNs), 20, "a total");
  expectNear(static_cast<double>(Table["a"].SelfNs), 14, "a self");
}

void testRecorderNesting() {
  SpanRecorder Rec(true);
  int32_t Outer = Rec.begin("outer", 1, 0);
  int32_t Inner = Rec.begin("inner", 1, 5);
  Rec.end(Inner, 8);
  int32_t Next = Rec.begin("next", 1, 9);
  Rec.end(Next, 12);
  Rec.end(Outer, 20);
  const auto &S = Rec.spans();
  expectNear(S[1].Parent, Outer, "inner nests in outer");
  expectNear(S[2].Parent, Outer, "sibling after a closed span");
  expectNear(static_cast<double>(selfTimes(S)[0]), 20 - 3 - 3,
             "outer self time");

  SpanRecorder Off(false);
  expectNear(Off.begin("x", 0, 0), -1, "disabled recorder records nothing");
  expectNear(static_cast<double>(Off.spans().size()), 0, "no spans kept");
}

} // namespace

int main() {
  testPercentiles();
  testSelfTimes();
  testRecorderNesting();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("sessionbench self-test: all checks passed\n");
  return 0;
}
