//===- persist/CacheFile.cpp ----------------------------------------------===//

#include "persist/CacheFile.h"

#include "dbi/Compiler.h"
#include "persist/CacheView.h"
#include "support/ByteStream.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

using namespace pcc;
using namespace pcc::persist;

uint32_t pcc::persist::traceDataBytes(uint32_t NumExits,
                                      uint32_t NumInsts) {
  return 64 + 40 * NumExits + 24 + 8 * NumInsts;
}

uint32_t CacheFile::maxOptGen() const {
  uint32_t Max = 0;
  for (const TraceRecord &Trace : Traces)
    Max = std::max(Max, Trace.OptGen);
  return Max;
}

uint64_t CacheFile::codeBytes() const {
  uint64_t Total = 0;
  for (const TraceRecord &Trace : Traces)
    Total += Trace.Code.size();
  return Total;
}

uint64_t CacheFile::dataBytes() const {
  uint64_t Total = 0;
  for (const TraceRecord &Trace : Traces)
    Total += traceDataBytes(static_cast<uint32_t>(Trace.Exits.size()),
                            Trace.GuestInstCount);
  return Total;
}

namespace {

/// Serialized size of one ModuleKey: u32 path length + path bytes +
/// Base/Size + four u64 hashes.
size_t moduleKeyBytes(const ModuleKey &Key) {
  return 4 + Key.Path.size() + 4 + 4 + 4 * 8;
}

size_t alignUp(size_t N, size_t Align) {
  return (N + Align - 1) / Align * Align;
}

/// Section sizes and offsets of one serialized file, computed in one
/// pass over the traces and shared by serializedSize() and serialize(),
/// so the charged size and the written bytes cannot disagree.
struct FileLayout {
  /// Promoted files (any trace with OptGen > 0) use the wide index-entry
  /// layout and announce it in the flags byte; unpromoted files keep
  /// the 40-byte entries so their bytes are identical to pre-OptGen
  /// output.
  bool HasOptGen = false;
  /// Certified files (any trace with a certificate blob) gain a
  /// trailing certificate section past the payload and announce it in
  /// the flags byte; uncertified files omit it so their bytes are
  /// identical to pre-certificate output.
  bool HasCerts = false;
  size_t EntryBytes = 0;
  size_t ModuleTableSize = 0;
  size_t IndexSize = 0; ///< Index entries + metadata heap.
  size_t PayloadBytes = 0;
  size_t CertBlobBytes = 0;
  uint32_t TraceIndexOffset = 0;
  uint32_t IndexEnd = 0;
  uint32_t PayloadOffset = 0;
  size_t TotalSize = 0;
};

FileLayout layoutOf(const CacheFile &File) {
  FileLayout L;
  for (const ModuleKey &Key : File.Modules)
    L.ModuleTableSize += moduleKeyBytes(Key);
  size_t HeapSize = 0;
  for (const TraceRecord &Trace : File.Traces) {
    HeapSize += Trace.Exits.size() * v2::ExitRecordBytes +
                Trace.RelocMask.size();
    L.PayloadBytes += Trace.Code.size();
    L.CertBlobBytes += Trace.Cert.size();
    L.HasOptGen |= Trace.OptGen > 0;
    L.HasCerts |= !Trace.Cert.empty();
  }
  L.EntryBytes = L.HasOptGen ? v2::OptIndexEntryBytes : v2::IndexEntryBytes;
  L.IndexSize = File.Traces.size() * L.EntryBytes + HeapSize;
  L.TraceIndexOffset =
      static_cast<uint32_t>(v2::HeaderBytes + L.ModuleTableSize);
  L.IndexEnd = L.TraceIndexOffset + static_cast<uint32_t>(L.IndexSize);
  // XIP generations page-align the payload so consumers can hand the
  // mapped region to the engine as executable trace bodies; the gap is
  // zero padding outside every CRC domain.
  L.PayloadOffset =
      File.ExecuteInPlace
          ? static_cast<uint32_t>(alignUp(L.IndexEnd, v2::PayloadAlign))
          : L.IndexEnd;
  L.TotalSize = static_cast<size_t>(L.PayloadOffset) + L.PayloadBytes;
  if (L.HasCerts)
    L.TotalSize += v2::CertSectHeaderBytes +
                   File.Traces.size() * v2::CertDirEntryBytes +
                   L.CertBlobBytes;
  return L;
}

/// Appends \p Size bytes at \p Out and returns the advanced cursor.
uint8_t *copyBytes(uint8_t *Out, const uint8_t *Data, size_t Size) {
  if (Size != 0)
    std::memcpy(Out, Data, Size);
  return Out + Size;
}

} // namespace

size_t CacheFile::serializedSize() const { return layoutOf(*this).TotalSize; }

std::vector<uint8_t> CacheFile::serialize() const {
  const FileLayout L = layoutOf(*this);

  // Header and module table go through ByteWriter (ModuleKey owns its
  // encoding); the buffer is then grown in place, within the reserved
  // capacity, to the exact file size, and every later section is
  // stored directly. Zero-filled growth is also the XIP padding.
  ByteWriter Writer;
  Writer.reserve(L.TotalSize);
  Writer.writeU32(v2::Magic);
  Writer.writeU32(ExecuteInPlace ? v2::XipVersion : v2::Version);
  Writer.writeU64(EngineHash);
  Writer.writeU64(ToolHash);
  Writer.writeU8(SpecBits);
  Writer.writeU8(static_cast<uint8_t>(
      (PositionIndependent ? v2::FlagPositionIndependent : 0) |
      (ExecuteInPlace ? v2::FlagExecuteInPlace : 0) |
      (L.HasOptGen ? v2::FlagOptGen : 0) |
      (L.HasCerts ? v2::FlagCertificates : 0)));
  Writer.writeU16(WriterTag); // Former Reserved0: last-writer pid tag.
  Writer.writeU32(Generation);
  Writer.writeU32(static_cast<uint32_t>(Modules.size()));
  Writer.writeU32(static_cast<uint32_t>(Traces.size()));
  Writer.writeU32(static_cast<uint32_t>(v2::HeaderBytes));
  Writer.writeU32(static_cast<uint32_t>(L.ModuleTableSize));
  Writer.writeU32(L.TraceIndexOffset);
  Writer.writeU32(static_cast<uint32_t>(L.IndexSize));
  Writer.writeU32(L.PayloadOffset);
  Writer.writeU32(static_cast<uint32_t>(L.PayloadBytes));
  const size_t CrcFieldsAt = Writer.size();
  Writer.writeU32(0); // ModuleTableCrc, stored below.
  Writer.writeU32(0); // TraceIndexCrc, stored below.
  Writer.writeU32(0); // HeaderCrc, stored below.
  assert(Writer.size() == v2::HeaderBytes && "v2 header layout drifted");
  for (const ModuleKey &Key : Modules)
    Key.serialize(Writer);
  assert(Writer.size() == L.TraceIndexOffset && "module table size drifted");

  std::vector<uint8_t> Out = Writer.take();
  Out.resize(L.TotalSize);
  uint8_t *const Raw = Out.data();

  // One walk writes each trace's index entry, its exits and reloc mask
  // in the metadata heap after the entries, and its code image in the
  // payload.
  uint8_t *Entry = Raw + L.TraceIndexOffset;
  uint8_t *Heap = Entry + Traces.size() * L.EntryBytes;
  uint8_t *Payload = Raw + L.PayloadOffset;
  uint32_t MetaOffset = static_cast<uint32_t>(Traces.size() * L.EntryBytes);
  uint32_t CodeOffset = 0;
  for (const TraceRecord &Trace : Traces) {
    const uint32_t CodeSize = static_cast<uint32_t>(Trace.Code.size());
    const uint32_t Fields[] = {
        Trace.GuestStart,
        Trace.ModuleIndex,
        Trace.GuestInstCount,
        CodeOffset,
        CodeSize,
        Trace.CodeCrc ? *Trace.CodeCrc
                      : crc32(Trace.Code.data(), Trace.Code.size()),
        MetaOffset,
        static_cast<uint32_t>(Trace.Exits.size()),
        static_cast<uint32_t>(Trace.RelocMask.size()),
        Trace.Heat, // Former Reserved word.
        Trace.OptGen, // Present only in the wide layout.
    };
    for (size_t F = 0; F != L.EntryBytes / 4; ++F)
      storeLittleEndian(Entry + 4 * F, Fields[F]);
    Entry += L.EntryBytes;
    for (const ExitRecord &Exit : Trace.Exits) {
      Heap[0] = Exit.Kind;
      storeLittleEndian(Heap + 1, Exit.InstIndex);
      storeLittleEndian(Heap + 5, Exit.Target);
      storeLittleEndian(Heap + 9, Exit.LinkedStart);
      Heap += v2::ExitRecordBytes;
    }
    Heap = copyBytes(Heap, Trace.RelocMask.data(), Trace.RelocMask.size());
    Payload = copyBytes(Payload, Trace.Code.data(), CodeSize);
    CodeOffset += CodeSize;
    MetaOffset += static_cast<uint32_t>(
        Trace.Exits.size() * v2::ExitRecordBytes + Trace.RelocMask.size());
  }
  assert(Heap == Raw + L.IndexEnd && "trace index size drifted");
  assert(Payload == Raw + L.PayloadOffset + L.PayloadBytes &&
         "payload size drifted");

  if (L.HasCerts) {
    // Trailing certificate section: fixed header, per-trace directory,
    // then the concatenated blobs. Sits entirely past the declared
    // (header-covered) file size; the directory carries its own CRC and
    // each blob its own trailing CRC.
    uint8_t *Sect = Payload;
    storeLittleEndian(Sect, v2::CertSectMagic);
    storeLittleEndian(Sect + 4, static_cast<uint32_t>(Traces.size()));
    storeLittleEndian(Sect + 8, static_cast<uint32_t>(L.CertBlobBytes));
    uint8_t *const Dir = Sect + v2::CertSectHeaderBytes;
    uint8_t *DirEntry = Dir;
    uint8_t *Blob = Dir + Traces.size() * v2::CertDirEntryBytes;
    uint32_t BlobOffset = 0;
    for (const TraceRecord &Trace : Traces) {
      const uint32_t Size = static_cast<uint32_t>(Trace.Cert.size());
      storeLittleEndian(DirEntry, Trace.Cert.empty() ? 0 : BlobOffset);
      storeLittleEndian(DirEntry + 4, Size);
      DirEntry += v2::CertDirEntryBytes;
      Blob = copyBytes(Blob, Trace.Cert.data(), Size);
      BlobOffset += Size;
    }
    storeLittleEndian(Sect + 12,
                      crc32(Dir, Traces.size() * v2::CertDirEntryBytes));
    assert(Blob == Raw + L.TotalSize && "certificate section drifted");
  }

  storeLittleEndian(Raw + CrcFieldsAt,
                    crc32(Raw + v2::HeaderBytes, L.ModuleTableSize));
  // The trace-index CRC domain excludes the alignment padding, so it is
  // identical whether or not the generation is XIP.
  storeLittleEndian(Raw + CrcFieldsAt + 4,
                    crc32(Raw + L.TraceIndexOffset, L.IndexSize));
  // Header CRC covers everything before itself, section CRCs included.
  storeLittleEndian(Raw + CrcFieldsAt + 8,
                    crc32(Raw, v2::HeaderBytes - 4));
  return Out;
}

ErrorOr<CacheFile> CacheFile::deserialize(
    const std::vector<uint8_t> &Bytes) {
  auto View = CacheFileView::open(Bytes, CacheFileView::Depth::Index);
  if (!View)
    return View.status();
  CacheFile File;
  File.SourceFormat = View->formatVersion();
  File.EngineHash = View->engineHash();
  File.ToolHash = View->toolHash();
  File.SpecBits = View->specBits();
  File.PositionIndependent = View->positionIndependent();
  File.ExecuteInPlace = View->executeInPlace();
  File.Generation = View->generation();
  File.WriterTag = View->writerTag();
  File.Modules = View->modules();
  File.Traces.reserve(View->numTraces());
  for (uint32_t I = 0; I != View->numTraces(); ++I) {
    // The eager path checks every payload CRC up front; callers of
    // deserialize() rely on getting only intact records.
    auto Rec = View->record(I);
    if (!Rec)
      return Rec.status();
    File.Traces.push_back(Rec.take());
  }
  return File;
}

Status CacheFile::validate() const {
  std::unordered_set<uint32_t> Starts;
  for (size_t I = 0; I != Traces.size(); ++I) {
    const TraceRecord &Trace = Traces[I];
    auto traceErr = [&](const std::string &Message) {
      return Status::error(ErrorCode::InvalidFormat,
                           formatString("trace %zu @0x%x: %s", I,
                                        Trace.GuestStart,
                                        Message.c_str()));
    };
    if (Trace.ModuleIndex >= Modules.size())
      return traceErr("module index out of range");
    const ModuleKey &Mod = Modules[Trace.ModuleIndex];
    if (Trace.GuestStart < Mod.Base ||
        Trace.GuestStart - Mod.Base >= Mod.Size)
      return traceErr("guest start outside its module mapping");
    if (!Starts.insert(Trace.GuestStart).second)
      return traceErr("duplicate guest start");
    size_t MinCode = dbi::TracePrologueBytes +
                     static_cast<size_t>(Trace.GuestInstCount) *
                         isa::InstructionSize;
    if (Trace.Code.size() < MinCode)
      return traceErr("code image smaller than instruction count");
    if (Trace.GuestInstCount == 0)
      return traceErr("empty trace");
    for (const ExitRecord &Exit : Trace.Exits) {
      if (Exit.Kind > static_cast<uint8_t>(dbi::ExitKind::Halt))
        return traceErr("invalid exit kind");
      if (Exit.InstIndex >= Trace.GuestInstCount)
        return traceErr("exit instruction index out of range");
    }
  }
  // Second pass: links must reference traces in this file.
  for (size_t I = 0; I != Traces.size(); ++I)
    for (const ExitRecord &Exit : Traces[I].Exits)
      if (Exit.LinkedStart != 0 && !Starts.count(Exit.LinkedStart))
        return Status::error(
            ErrorCode::InvalidFormat,
            formatString("trace %zu @0x%x: dangling link to 0x%x", I,
                         Traces[I].GuestStart, Exit.LinkedStart));
  return Status::success();
}
