#include "src/nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/simd/dispatch.h"

namespace dlsys {

namespace {
constexpr char kMagic[4] = {'D', 'L', 'S', 'Y'};
constexpr uint32_t kVersion = 2;  // v2 appends a CRC32 of the payload
// magic (4) + version (4) + count (8).
constexpr int64_t kHeaderBytes = 16;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of \p len bytes at \p data:
/// the active kernel table's raw update, started at ~0 and inverted at
/// the end. Every table returns the same value (src/simd/dispatch.h), so
/// the bytes on disk do not depend on DLSYS_ISA.
uint32_t Crc32(const void* data, size_t len) {
  return simd::ActiveKernels().crc32_update(
             0xFFFFFFFFu, static_cast<const uint8_t*>(data),
             static_cast<int64_t>(len)) ^
         0xFFFFFFFFu;
}

}  // namespace

Status SaveParameters(const Sequential& net, const std::string& path) {
  // Write to a sibling temp file and rename into place: a crash mid-write
  // leaves the previous checkpoint intact, never a torn file.
  const std::string tmp = path + ".tmp";
  FilePtr file(std::fopen(tmp.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + tmp);
  }
  std::vector<float> flat = net.GetParameterVector();
  const uint64_t count = flat.size();
  const uint32_t crc = Crc32(flat.data(), flat.size() * sizeof(float));
  bool ok =
      std::fwrite(kMagic, 1, 4, file.get()) == 4 &&
      std::fwrite(&kVersion, sizeof(kVersion), 1, file.get()) == 1 &&
      std::fwrite(&count, sizeof(count), 1, file.get()) == 1;
  if (ok && count > 0) {
    ok = std::fwrite(flat.data(), sizeof(float), flat.size(), file.get()) ==
         flat.size();
  }
  ok = ok && std::fwrite(&crc, sizeof(crc), 1, file.get()) == 1;
  ok = ok && std::fflush(file.get()) == 0;
  if (ok) {
    std::FILE* raw = file.release();
    ok = std::fclose(raw) == 0;
  }
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write of checkpoint: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " -> " + path);
  }
  return Status::OK();
}

Status LoadParameters(Sequential* net, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  if (std::fread(magic, 1, 4, file.get()) != 4 ||
      std::fread(&version, sizeof(version), 1, file.get()) != 1 ||
      std::fread(&count, sizeof(count), 1, file.get()) != 1) {
    return Status::IOError("short read of header: " + path);
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IOError("not a dlsys parameter file: " + path);
  }
  if (version != kVersion) {
    return Status::IOError("unsupported version " + std::to_string(version));
  }
  // Bound-check the declared count against the actual file size BEFORE
  // allocating, so a corrupt header cannot trigger a multi-GB allocation.
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek: " + path);
  }
  const long file_bytes = std::ftell(file.get());
  if (file_bytes < 0) {
    return Status::IOError("cannot tell: " + path);
  }
  const int64_t min_bytes = kHeaderBytes + sizeof(uint32_t);
  const uint64_t payload_bytes =
      file_bytes >= min_bytes
          ? static_cast<uint64_t>(file_bytes - min_bytes)
          : 0;
  if (file_bytes < min_bytes || count != payload_bytes / sizeof(float) ||
      payload_bytes % sizeof(float) != 0) {
    return Status::IOError(
        "declared parameter count " + std::to_string(count) +
        " does not match file size " + std::to_string(file_bytes) + ": " +
        path);
  }
  if (std::fseek(file.get(), kHeaderBytes, SEEK_SET) != 0) {
    return Status::IOError("cannot seek: " + path);
  }
  if (count != static_cast<uint64_t>(net->NumParams())) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", architecture expects " + std::to_string(net->NumParams()));
  }
  std::vector<float> flat(static_cast<size_t>(count));
  if (count > 0 &&
      std::fread(flat.data(), sizeof(float), flat.size(), file.get()) !=
          flat.size()) {
    return Status::IOError("short read of parameters: " + path);
  }
  uint32_t stored_crc = 0;
  if (std::fread(&stored_crc, sizeof(stored_crc), 1, file.get()) != 1) {
    return Status::IOError("short read of checksum: " + path);
  }
  const uint32_t actual_crc =
      Crc32(flat.data(), flat.size() * sizeof(float));
  if (stored_crc != actual_crc) {
    return Status::IOError("checksum mismatch (corrupt payload): " + path);
  }
  net->SetParameterVector(flat);
  return Status::OK();
}

}  // namespace dlsys
