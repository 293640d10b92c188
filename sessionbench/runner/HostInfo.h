//===- HostInfo.h - Host fingerprint ----------------------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a host-time result depends on besides the code: CPU, core count,
/// compiler, effective build flags and the filesystem under the cache
/// database (finalize fsyncs, so a result from another filesystem is not
/// comparable). Stamped into every benchmark result.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_SESSIONBENCH_HOSTINFO_H
#define PCC_SESSIONBENCH_HOSTINFO_H

#include <string>

namespace pcc {
namespace sessionbench {

struct HostFingerprint {
  std::string CpuModel;
  unsigned Nproc = 0;
  std::string Compiler;
  std::string BuildType;
  std::string CxxFlags;
  bool Asserts = false;
  std::string CacheFs; ///< Filesystem type under the cache database.
};

/// Fingerprint of this host, with the filesystem resolved for \p DbDir.
HostFingerprint hostFingerprint(const std::string &DbDir);

/// The fingerprint as one JSON object.
std::string toJson(const HostFingerprint &H);

} // namespace sessionbench
} // namespace pcc

#endif // PCC_SESSIONBENCH_HOSTINFO_H
