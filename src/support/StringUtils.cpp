//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace pcc;

std::string pcc::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string pcc::toHex(uint64_t Value, unsigned Width) {
  static const char Digits[] = "0123456789abcdef";
  std::string Result;
  while (Value != 0 || Result.size() < Width) {
    Result.insert(Result.begin(), Digits[Value & 0xf]);
    Value >>= 4;
  }
  return Result;
}

std::vector<std::string> pcc::splitString(const std::string &Str, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  for (;;) {
    size_t Pos = Str.find(Sep, Start);
    if (Pos == std::string::npos) {
      Parts.push_back(Str.substr(Start));
      return Parts;
    }
    Parts.push_back(Str.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string pcc::formatByteSize(uint64_t Bytes) {
  static const char *Units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double Value = static_cast<double>(Bytes);
  unsigned Unit = 0;
  while (Value >= 1024.0 && Unit < 4) {
    Value /= 1024.0;
    ++Unit;
  }
  if (Unit == 0)
    return formatString("%llu B", static_cast<unsigned long long>(Bytes));
  return formatString("%.1f %s", Value, Units[Unit]);
}

ErrorOr<uint64_t> pcc::support::parseUnsigned(const char *Text,
                                              uint64_t Max) {
  uint64_t Value = 0;
  const char *C = Text;
  for (; *C >= '0' && *C <= '9'; ++C) {
    const uint64_t Digit = static_cast<uint64_t>(*C - '0');
    if (Value > (Max - Digit) / 10)
      break; // Value * 10 + Digit would pass Max (or wrap).
    Value = Value * 10 + Digit;
  }
  if (C == Text || *C != '\0')
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("must be a decimal number in 0..%llu, got '%s'",
                     static_cast<unsigned long long>(Max), Text));
  return Value;
}

ErrorOr<double> pcc::support::parseDecimal(const char *Text) {
  // Check the shape first: strtod alone would take a sign, leading
  // blanks, an exponent, hex, "nan" and "inf".
  unsigned Digits = 0, Points = 0;
  const char *C = Text;
  for (; *C; ++C) {
    if (*C >= '0' && *C <= '9')
      ++Digits;
    else if (*C == '.' && Points == 0)
      ++Points;
    else
      break;
  }
  double Value = 0;
  if (Digits != 0 && *C == '\0') {
    char *End = nullptr;
    Value = std::strtod(Text, &End);
    if (End != C || !std::isfinite(Value))
      Digits = 0;
  }
  if (Digits == 0 || *C != '\0')
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("must be a non-negative decimal number, got '%s'",
                     Text));
  return Value;
}
