//===- tests/support_test.cpp - support library unit tests ----------------===//

#include "support/ByteStream.h"
#include "support/Error.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace pcc;

TEST(Hashing, Fnv1aKnownValues) {
  // Reference values for the 64-bit FNV-1a algorithm.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hashing, Fnv1aChaining) {
  uint64_t Once = fnv1a64("hello world");
  uint64_t Chained = fnv1a64(" world", fnv1a64("hello"));
  EXPECT_EQ(Once, Chained);
}

TEST(Hashing, Fnv1aU64IsOrderSensitive) {
  uint64_t A = fnv1a64U64(2, fnv1a64U64(1, Fnv1a64Init));
  uint64_t B = fnv1a64U64(1, fnv1a64U64(2, Fnv1a64Init));
  EXPECT_NE(A, B);
}

TEST(Hashing, Crc32KnownValues) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926U);
  EXPECT_EQ(crc32("", 0), 0U);
}

TEST(Hashing, Crc32DetectsBitFlip) {
  std::vector<uint8_t> Data(1024);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I * 7);
  uint32_t Before = crc32(Data.data(), Data.size());
  Data[512] ^= 1;
  EXPECT_NE(Before, crc32(Data.data(), Data.size()));
}

namespace {

/// Textbook bytewise IEEE CRC-32 (reflected 0xedb88320), the loop the
/// production slice-by-8 implementation must stay bit-identical to.
uint32_t crc32Bytewise(const uint8_t *Data, size_t Size, uint32_t Seed) {
  uint32_t Crc = Seed ^ 0xffffffffU;
  for (size_t I = 0; I != Size; ++I) {
    Crc ^= Data[I];
    for (int Bit = 0; Bit != 8; ++Bit)
      Crc = (Crc >> 1) ^ (0xedb88320U & (0U - (Crc & 1)));
  }
  return Crc ^ 0xffffffffU;
}

} // namespace

TEST(Hashing, Crc32MatchesBytewiseReference) {
  // Sweep lengths around the slice-by-8 block boundary (0..64) plus
  // larger sizes, at every alignment of the buffer start.
  std::vector<uint8_t> Data(4096 + 8);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I * 131 + 17);
  for (size_t Offset = 0; Offset != 8; ++Offset) {
    for (size_t Size = 0; Size <= 64; ++Size)
      ASSERT_EQ(crc32(Data.data() + Offset, Size),
                crc32Bytewise(Data.data() + Offset, Size, 0))
          << "offset " << Offset << " size " << Size;
    ASSERT_EQ(crc32(Data.data() + Offset, 4096),
              crc32Bytewise(Data.data() + Offset, 4096, 0))
        << "offset " << Offset;
  }
}

TEST(Hashing, Crc32SeedChaining) {
  // Feeding a buffer in arbitrary splits through the seed parameter
  // must equal one pass over the whole buffer.
  std::vector<uint8_t> Data(777);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I ^ (I >> 3));
  uint32_t Whole = crc32(Data.data(), Data.size());
  for (size_t Split : {1u, 7u, 8u, 64u, 511u, 776u}) {
    uint32_t First = crc32(Data.data(), Split);
    EXPECT_EQ(crc32(Data.data() + Split, Data.size() - Split, First),
              Whole)
        << "split at " << Split;
  }
}

TEST(Hashing, HashCombineDistinguishesOrder) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_NE(hashCombine(0, 0), 0u);
}

TEST(Error, SuccessStatus) {
  Status S = Status::success();
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Success);
  EXPECT_EQ(S.toString(), "success");
}

TEST(Error, ErrorStatusCarriesCodeAndMessage) {
  Status S = Status::error(ErrorCode::NotFound, "no such thing");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::NotFound);
  EXPECT_EQ(S.toString(), "not found: no such thing");
}

TEST(Error, ErrorOrValuePath) {
  ErrorOr<int> Value(7);
  ASSERT_TRUE(Value.ok());
  EXPECT_EQ(*Value, 7);
  EXPECT_EQ(Value.take(), 7);
}

TEST(Error, ErrorOrErrorPath) {
  ErrorOr<int> Err(Status::error(ErrorCode::IoError, "disk gone"));
  ASSERT_FALSE(Err.ok());
  EXPECT_EQ(Err.status().code(), ErrorCode::IoError);
}

TEST(Error, AllCodesHaveNames) {
  for (int Code = 0; Code <= static_cast<int>(ErrorCode::InvalidArgument);
       ++Code)
    EXPECT_STRNE(errorCodeName(static_cast<ErrorCode>(Code)), "unknown");
}

TEST(ByteStream, RoundTripScalars) {
  ByteWriter Writer;
  Writer.writeU8(0xab);
  Writer.writeU16(0x1234);
  Writer.writeU32(0xdeadbeef);
  Writer.writeU64(0x0123456789abcdefULL);
  Writer.writeI64(-42);

  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readU8(), 0xab);
  EXPECT_EQ(Reader.readU16(), 0x1234);
  EXPECT_EQ(Reader.readU32(), 0xdeadbeefU);
  EXPECT_EQ(Reader.readU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(Reader.readI64(), -42);
  EXPECT_TRUE(Reader.atEnd());
  EXPECT_FALSE(Reader.failed());
}

TEST(ByteStream, RoundTripStringsAndBlobs) {
  ByteWriter Writer;
  Writer.writeString("hello");
  Writer.writeString("");
  Writer.writeBlob({1, 2, 3});

  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readString(), "hello");
  EXPECT_EQ(Reader.readString(), "");
  EXPECT_EQ(Reader.readBlob(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(Reader.atEnd());
}

TEST(ByteStream, OverflowPoisonsReader) {
  ByteWriter Writer;
  Writer.writeU16(7);
  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readU32(), 0u); // Only 2 bytes available.
  EXPECT_TRUE(Reader.failed());
  // Poisoned reader keeps yielding zeros.
  EXPECT_EQ(Reader.readU64(), 0u);
  EXPECT_EQ(Reader.remaining(), 0u);
}

TEST(ByteStream, TruncatedStringFails) {
  ByteWriter Writer;
  Writer.writeU32(100); // Length prefix promising 100 bytes.
  Writer.writeU8('x');
  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readString(), "");
  EXPECT_TRUE(Reader.failed());
}

TEST(ByteStream, PatchU32) {
  ByteWriter Writer;
  Writer.writeU32(0);
  Writer.writeU32(7);
  Writer.patchU32(0, 0xcafebabe);
  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readU32(), 0xcafebabeU);
  EXPECT_EQ(Reader.readU32(), 7u);
}

TEST(Random, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, BoundsRespected) {
  Rng Gen(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(Gen.nextBelow(10), 10u);
    uint64_t V = Gen.nextInRange(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
    double D = Gen.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
  EXPECT_EQ(Gen.nextBelow(1), 0u);
}

TEST(Random, RoughUniformity) {
  Rng Gen(99);
  std::vector<int> Buckets(8, 0);
  for (int I = 0; I != 8000; ++I)
    ++Buckets[Gen.nextBelow(8)];
  for (int Count : Buckets) {
    EXPECT_GT(Count, 800);
    EXPECT_LT(Count, 1200);
  }
}

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("x=%d, s=%s", 42, "abc"), "x=42, s=abc");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(StringUtils, ToHex) {
  EXPECT_EQ(toHex(0, 8), "00000000");
  EXPECT_EQ(toHex(0xdeadbeef, 8), "deadbeef");
  EXPECT_EQ(toHex(0x1, 4), "0001");
  EXPECT_EQ(toHex(0x123456789ULL, 4), "123456789");
}

TEST(StringUtils, SplitString) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(splitString("", ',').size(), 1u);
}

TEST(StringUtils, FormatByteSize) {
  EXPECT_EQ(formatByteSize(512), "512 B");
  EXPECT_EQ(formatByteSize(2048), "2.0 KiB");
  EXPECT_EQ(formatByteSize(3u << 20), "3.0 MiB");
}

TEST(WorkerCount, ParsesOnlyDecimalCountsUpToTheCeiling) {
  // Parse only: no pool is built, so no thread is started.
  using support::parseWorkerCount;
  auto Rejected = [](const char *Text) {
    auto N = parseWorkerCount(Text);
    return !N && N.status().code() == ErrorCode::InvalidArgument;
  };
  EXPECT_TRUE(Rejected(""));
  EXPECT_TRUE(Rejected("abc"));
  EXPECT_TRUE(Rejected("4x"));
  EXPECT_TRUE(Rejected("-1"));
  EXPECT_TRUE(Rejected("0x10"));
  EXPECT_TRUE(Rejected("257"));
  EXPECT_TRUE(Rejected("4294967296")); // 2^32: must not wrap to 0.
  ASSERT_TRUE(parseWorkerCount("0").ok());
  EXPECT_EQ(*parseWorkerCount("0"), 0u);
  ASSERT_TRUE(parseWorkerCount("16").ok());
  EXPECT_EQ(*parseWorkerCount("16"), 16u);
  ASSERT_TRUE(parseWorkerCount("256").ok());
  EXPECT_EQ(*parseWorkerCount("256"), support::MaxWorkerCount);
}

TEST(ParseUnsigned, AcceptsOnlyDecimalValuesUpToTheMaximum) {
  // Parse only: the values stand for fleet sizes, byte budgets and
  // seeds, none of which is acted on here.
  using support::parseUnsigned;
  auto Rejected = [](const char *Text, uint64_t Max) {
    auto N = parseUnsigned(Text, Max);
    return !N && N.status().code() == ErrorCode::InvalidArgument;
  };
  for (const char *Bad : {"", "abc", "12abc", " 1", "1 ", "-1", "+1",
                          "0x10", "1e3", "1.5"})
    EXPECT_TRUE(Rejected(Bad, UINT64_MAX)) << "'" << Bad << "'";
  EXPECT_TRUE(Rejected("4294967296", UINT32_MAX)); // 2^32: no wrap to 0.
  EXPECT_TRUE(Rejected("4294967297", UINT32_MAX)); // ... nor to 1.
  EXPECT_TRUE(Rejected("18446744073709551616", UINT64_MAX)); // 2^64.
  EXPECT_TRUE(Rejected("99999999999999999999999", UINT64_MAX));
  EXPECT_TRUE(Rejected("11", 10));

  auto Accepted = [](const char *Text, uint64_t Max) -> uint64_t {
    auto N = parseUnsigned(Text, Max);
    EXPECT_TRUE(N.ok()) << "'" << Text << "'";
    return N ? *N : ~0ull;
  };
  EXPECT_EQ(Accepted("0", 0), 0u);
  EXPECT_EQ(Accepted("007", 10), 7u);
  EXPECT_EQ(Accepted("10", 10), 10u);
  EXPECT_EQ(Accepted("4294967295", UINT32_MAX), 4294967295u);
  EXPECT_EQ(Accepted("18446744073709551615", UINT64_MAX), UINT64_MAX);
}

TEST(ParseDecimal, AcceptsOnlyNonNegativeDecimalFractions) {
  // Parse only: the values stand for a popularity skew, never acted on.
  using support::parseDecimal;
  auto Rejected = [](const char *Text) {
    auto D = parseDecimal(Text);
    return !D && D.status().code() == ErrorCode::InvalidArgument;
  };
  for (const char *Bad :
       {"", ".", "abc", "1.1abc", "1.1 ", " 1.1", "-1", "+1", "-0.5",
        "1e3", "1E3", "0x10", "nan", "NAN", "inf", "infinity", "1..2",
        "1.2.3", "1,5"})
    EXPECT_TRUE(Rejected(Bad)) << "'" << Bad << "'";
  // Too large for a double: overflow, not infinity.
  EXPECT_TRUE(Rejected(std::string(400, '9').c_str()));

  auto Accepted = [](const char *Text) -> double {
    auto D = parseDecimal(Text);
    EXPECT_TRUE(D.ok()) << "'" << Text << "'";
    return D ? *D : -1.0;
  };
  EXPECT_EQ(Accepted("0"), 0.0);
  EXPECT_EQ(Accepted("1.1"), 1.1);
  EXPECT_EQ(Accepted("2"), 2.0);
  EXPECT_EQ(Accepted(".5"), 0.5);
  EXPECT_EQ(Accepted("3."), 3.0);
  EXPECT_EQ(Accepted("007.25"), 7.25);
}

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter Table("demo");
  Table.addRow({"name", "value"});
  Table.addRow({"x", "1"});
  Table.addRow({"longer", "22"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("== demo =="), std::string::npos);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(Out.find("---"), std::string::npos);
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter Table;
  Table.addRow({"a", "b", "c"});
  Table.addRow({"only"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("only"), std::string::npos);
}

TEST(FileSystem, WriteReadRoundTrip) {
  tests::TempDir Dir;
  std::string Path = Dir.path() + "/file.bin";
  std::vector<uint8_t> Data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(writeFileAtomic(Path, Data).ok());
  auto Back = readFile(Path);
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(*Back, Data);
  EXPECT_TRUE(fileExists(Path));
}

TEST(FileSystem, ReadMissingFileFails) {
  tests::TempDir Dir;
  auto Result = readFile(Dir.path() + "/nope");
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrorCode::IoError);
}

TEST(FileSystem, ListDirectorySorted) {
  tests::TempDir Dir;
  ASSERT_TRUE(writeFileAtomic(Dir.path() + "/b.txt", {1}).ok());
  ASSERT_TRUE(writeFileAtomic(Dir.path() + "/a.txt", {2}).ok());
  auto Names = listDirectory(Dir.path());
  ASSERT_TRUE(Names.ok());
  ASSERT_EQ(Names->size(), 2u);
  EXPECT_EQ((*Names)[0], "a.txt");
  EXPECT_EQ((*Names)[1], "b.txt");
}

TEST(FileSystem, RemoveFileIdempotent) {
  tests::TempDir Dir;
  std::string Path = Dir.path() + "/f";
  ASSERT_TRUE(writeFileAtomic(Path, {9}).ok());
  EXPECT_TRUE(removeFile(Path).ok());
  EXPECT_FALSE(fileExists(Path));
  EXPECT_TRUE(removeFile(Path).ok()); // Missing file is success.
}
