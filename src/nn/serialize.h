#ifndef DLSYS_NN_SERIALIZE_H_
#define DLSYS_NN_SERIALIZE_H_

#include <string>

#include "src/core/status.h"
#include "src/nn/sequential.h"

/// \file serialize.h
/// \brief Model checkpointing to disk: save/load of a Sequential's
/// parameters (deployment and the train/deploy split of the tutorial's
/// pipeline view).
///
/// Format (v2): a small header ("DLSY", version, param count) followed by
/// raw little-endian float32 parameters in layer order and a CRC32 of the
/// payload. Architecture is NOT serialized — loading validates the
/// parameter count against the provided architecture and fails loudly on
/// mismatch. Writes go to a temp file renamed into place, so a crash
/// mid-write never leaves a torn checkpoint behind.
///
/// The CRC is the standard CRC-32 (IEEE 802.3), computed through the
/// active kernel table's crc32_update (src/simd/dispatch.h): slicing-by-8
/// on the scalar table, a PCLMULQDQ fold on AVX2 and AVX-512. Every table
/// returns the same value, so the format and every byte on disk are the
/// same under any DLSYS_ISA and in a -DDLSYS_SIMD=OFF build, and a file
/// saved under one table loads under every other.

namespace dlsys {

/// \brief Writes \p net's parameters to \p path. Overwrites atomically
/// (temp file + rename) and appends a CRC32 of the payload.
Status SaveParameters(const Sequential& net, const std::string& path);

/// \brief Loads parameters saved by SaveParameters into \p net.
/// Fails with IOError (unreadable, truncated, checksum mismatch, or a
/// declared count inconsistent with the file size — checked before any
/// allocation) or InvalidArgument (parameter-count mismatch with the
/// architecture). On any failure \p net is left unmodified.
Status LoadParameters(Sequential* net, const std::string& path);

}  // namespace dlsys

#endif  // DLSYS_NN_SERIALIZE_H_
