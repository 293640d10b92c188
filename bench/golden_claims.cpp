//===- bench/golden_claims.cpp - Paper claims over the pinned outputs ----===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
//
// Reads the pinned figure outputs in bench/golden/ and checks the
// paper's qualitative claims against them, one line per claim:
//
//   * 176.gcc is the only SPEC ref run that improves by more than 30%;
//   * every SPEC benchmark improves more on train than on ref;
//   * GUI startup improves more than SPEC (ref and train averages);
//   * data structures outweigh code in every Figure 9 cache;
//   * accumulation is monotone in Figure 7: each added input set leaves
//     a run no slower, and same-input persistence is the floor.
//
// The golden-diff tests pin the numbers; this pins what they mean, so a
// deliberate re-pin that breaks a claim fails here with the claim named.
//
//   golden_claims [golden directory]   (default: this tree's bench/golden)
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace {

using Row = std::vector<std::string>;

std::string trim(const std::string &S) {
  const size_t B = S.find_first_not_of(' ');
  if (B == std::string::npos)
    return "";
  return S.substr(B, S.find_last_not_of(' ') - B + 1);
}

Row cells(const std::string &Line) {
  Row Out;
  size_t Start = 0;
  while (true) {
    const size_t Bar = Line.find('|', Start);
    Out.push_back(trim(Line.substr(Start, Bar - Start)));
    if (Bar == std::string::npos)
      return Out;
    Start = Bar + 1;
  }
}

/// Number at the front of a cell ("32.4%", "1.77x", "3.90").
double number(const std::string &Cell) {
  return std::strtod(Cell.c_str(), nullptr);
}

/// The body rows of the first table after the first line containing
/// \p Marker in golden file \p Name: the header and its dashed rule are
/// skipped, and the table ends at the first line without a '|'. Every
/// row has the header's number of cells.
std::vector<Row> tableAfter(const std::string &Dir, const char *Name,
                            const char *Marker) {
  std::ifstream In(Dir + "/" + Name);
  if (!In) {
    std::fprintf(stderr, "golden_claims: cannot read %s/%s\n", Dir.c_str(),
                 Name);
    std::exit(2);
  }
  std::vector<Row> Rows;
  std::string Line;
  size_t Width = 0;
  bool Found = false, InTable = false;
  while (std::getline(In, Line)) {
    if (!Found) {
      Found = Line.find(Marker) != std::string::npos;
      continue;
    }
    if (InTable && Line.rfind("-", 0) == 0)
      continue; // The rule under the header.
    if (Line.find('|') == std::string::npos) {
      if (InTable)
        break;
      continue;
    }
    if (!InTable) {
      InTable = true; // The header row.
      Width = cells(Line).size();
      continue;
    }
    Rows.push_back(cells(Line));
    if (Rows.back().size() != Width) {
      std::fprintf(stderr, "golden_claims: ragged row in %s: %s\n", Name,
                   Line.c_str());
      std::exit(2);
    }
  }
  if (Rows.empty()) {
    std::fprintf(stderr, "golden_claims: no table after '%s' in %s\n",
                 Marker, Name);
    std::exit(2);
  }
  return Rows;
}

const Row &rowNamed(const std::vector<Row> &Rows, const char *Name) {
  for (const Row &R : Rows)
    if (R[0] == Name)
      return R;
  std::fprintf(stderr, "golden_claims: no row '%s'\n", Name);
  std::exit(2);
}

unsigned Failures = 0;

void claim(bool Holds, const std::string &What) {
  std::printf("%s: %s\n", Holds ? "ok" : "FAIL", What.c_str());
  Failures += !Holds;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 2) {
    std::fprintf(stderr, "usage: golden_claims [golden directory]\n");
    return 2;
  }
  const std::string Dir = Argc == 2 ? Argv[1] : PCC_GOLDEN_DIR;

  // Figure 5(a): columns are benchmark | ref | train | bb | ref vm% | ...
  const std::vector<Row> Spec =
      tableAfter(Dir, "fig5a_same_input.txt", "== SPEC2K INT ==");
  std::string Above30;
  bool TrainBeatsRef = true;
  for (const Row &R : Spec) {
    if (R[0] != "average" && number(R[1]) > 30.0)
      Above30 += (Above30.empty() ? "" : ", ") + R[0];
    if (number(R[2]) <= number(R[1])) {
      TrainBeatsRef = false;
      std::printf("  %s: train %s <= ref %s\n", R[0].c_str(), R[2].c_str(),
                  R[1].c_str());
    }
  }
  claim(Above30 == "176.gcc",
        "176.gcc is the only SPEC ref run above 30% (above 30%: " +
            (Above30.empty() ? std::string("none") : Above30) + ")");
  claim(TrainBeatsRef, "every SPEC benchmark improves more on train than "
                       "on ref");

  const std::vector<Row> Gui = tableAfter(Dir, "fig5a_same_input.txt",
                                          "== GUI application startup");
  const Row &SpecAvg = rowNamed(Spec, "average");
  const Row &GuiAvg = rowNamed(Gui, "average");
  claim(number(GuiAvg[1]) > number(SpecAvg[1]) &&
            number(GuiAvg[1]) > number(SpecAvg[2]),
        "GUI startup (" + GuiAvg[1] + ") improves more than SPEC (ref " +
            SpecAvg[1] + ", train " + SpecAvg[2] + ")");

  // Figure 9: workload | code | data structs | total | data/code | bar.
  bool DataOutweighs = true;
  for (const Row &R :
       tableAfter(Dir, "fig9_cache_sizes.txt", "# Figure 9:"))
    if (number(R[4]) <= 1.0) {
      DataOutweighs = false;
      std::printf("  %s: data/code %s\n", R[0].c_str(), R[4].c_str());
    }
  claim(DataOutweighs, "data/code > 1 for every Figure 9 cache");

  // Figure 7: input | no persist | Set 1..4 | same-input, in Mcycles.
  bool Monotone = true;
  for (const char *Part : {"== Figure 7(a)", "== Figure 7(b)"})
    for (const Row &R : tableAfter(Dir, "fig7_accumulation.txt", Part))
      for (size_t C = 2; C < R.size(); ++C)
        if (number(R[C]) > number(R[C - 1])) {
          Monotone = false;
          std::printf("  %s %s: column %zu (%s) above column %zu (%s)\n",
                      Part + 3, R[0].c_str(), C, R[C].c_str(), C - 1,
                      R[C - 1].c_str());
        }
  claim(Monotone, "Figure 7 accumulation is monotone: no persist >= Set "
                  "1 >= ... >= Set 4 >= same-input, every input");

  return Failures == 0 ? 0 : 1;
}
