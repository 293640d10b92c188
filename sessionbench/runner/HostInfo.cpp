//===- HostInfo.cpp -------------------------------------------------------===//

#include "HostInfo.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

using namespace pcc::sessionbench;

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      break;
    size_t Begin = Line.find_first_not_of(' ', Colon + 1);
    return Begin == std::string::npos ? "" : Line.substr(Begin);
  }
  return "unknown";
}

/// Decodes the octal escapes (\040 for a space) of a mountinfo field.
std::string unescapeMountField(const std::string &Field) {
  std::string Out;
  for (size_t I = 0; I < Field.size(); ++I) {
    auto Octal = [&](size_t J) {
      return Field[J] >= '0' && Field[J] <= '7';
    };
    if (Field[I] == '\\' && I + 3 < Field.size() && Octal(I + 1) &&
        Octal(I + 2) && Octal(I + 3)) {
      int Code = (Field[I + 1] - '0') * 64 + (Field[I + 2] - '0') * 8 +
                 (Field[I + 3] - '0');
      Out.push_back(static_cast<char>(Code));
      I += 3;
      continue;
    }
    Out.push_back(Field[I]);
  }
  return Out;
}

bool isMountPrefix(const std::string &Mount, const std::string &Path) {
  if (Mount == "/")
    return true;
  return Path.compare(0, Mount.size(), Mount) == 0 &&
         (Path.size() == Mount.size() || Path[Mount.size()] == '/');
}

/// Type of the filesystem mounted closest above \p Dir, from
/// /proc/self/mountinfo ("id parent dev root mountpoint opts [tags] -
/// fstype source superopts").
std::string filesystemType(const std::string &Dir) {
  char Resolved[PATH_MAX];
  if (!realpath(Dir.c_str(), Resolved))
    return "unknown";
  std::string Path(Resolved);
  std::ifstream In("/proc/self/mountinfo");
  std::string Line, Best = "unknown";
  size_t BestLen = 0;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Id, Parent, Dev, Root, Mount, Tok;
    if (!(Fields >> Id >> Parent >> Dev >> Root >> Mount))
      continue;
    Mount = unescapeMountField(Mount);
    while (Fields >> Tok && Tok != "-") {
    }
    std::string Type;
    if (!(Fields >> Type) || !isMountPrefix(Mount, Path))
      continue;
    // Later lines shadow earlier mounts on the same point.
    if (Mount.size() >= BestLen) {
      BestLen = Mount.size();
      Best = Type;
    }
  }
  return Best;
}

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Escapes \p S for a JSON string literal (without the quotes).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out.push_back('\\');
      Out.push_back(C);
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out.push_back(C);
    }
  }
  return Out;
}

} // namespace

HostFingerprint pcc::sessionbench::hostFingerprint(const std::string &DbDir) {
  HostFingerprint H;
  H.CpuModel = cpuModel();
  H.Nproc = std::thread::hardware_concurrency();
  H.Compiler = compilerId();
#ifdef PCC_BENCH_BUILD_TYPE
  H.BuildType = PCC_BENCH_BUILD_TYPE;
#endif
#ifdef PCC_BENCH_CXX_FLAGS
  H.CxxFlags = PCC_BENCH_CXX_FLAGS;
#endif
#ifdef NDEBUG
  H.Asserts = false;
#else
  H.Asserts = true;
#endif
  H.CacheFs = filesystemType(DbDir);
  return H;
}

std::string pcc::sessionbench::toJson(const HostFingerprint &H) {
  std::ostringstream Out;
  Out << "{\"cpu\":\"" << jsonEscape(H.CpuModel) << "\",\"nproc\":"
      << H.Nproc << ",\"compiler\":\"" << jsonEscape(H.Compiler)
      << "\",\"build_type\":\"" << jsonEscape(H.BuildType)
      << "\",\"cxx_flags\":\"" << jsonEscape(H.CxxFlags)
      << "\",\"asserts\":" << (H.Asserts ? "true" : "false")
      << ",\"cache_fs\":\"" << jsonEscape(H.CacheFs) << "\"}";
  return Out.str();
}
