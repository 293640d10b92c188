//===- support/StringUtils.h - String formatting helpers --------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus a few small helpers.
/// Library code formats into strings; only tools/benches print.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_SUPPORT_STRINGUTILS_H
#define PCC_SUPPORT_STRINGUTILS_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pcc {

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders "12345678" style fixed-width hex (no 0x prefix).
std::string toHex(uint64_t Value, unsigned Width = 8);

/// Splits \p Str on \p Sep; empty fields are preserved.
std::vector<std::string> splitString(const std::string &Str, char Sep);

/// Renders a byte count as "1.5 MiB" style human-readable text.
std::string formatByteSize(uint64_t Bytes);

namespace support {

/// Parses a numeric tool argument: decimal digits only, 0 through
/// \p Max. Anything else (empty, signs, hex, trailing junk, an
/// out-of-range or overflowing number) is InvalidArgument, so a typo
/// never runs as 0 or as a truncated value.
ErrorOr<uint64_t> parseUnsigned(const char *Text, uint64_t Max);

} // namespace support
} // namespace pcc

#endif // PCC_SUPPORT_STRINGUTILS_H
