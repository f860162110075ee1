// Persistent Engine sessions: the versioned binary file format that lets a
// warm session survive process restarts.
//
// A session file is a fingerprinted container of independently decodable
// sections. It persists the one artifact that is expensive to rebuild and
// can be checked against the session input — the raw tree decomposition —
// plus the memoized primes vector. Everything else the DPs read (the
// rhs-closed decomposition, the normal forms, τ_td, the schema encoding) is
// a linear-time function of those and is rebuilt on first use. The byte
// layout is specified in docs/SESSION_FORMAT.md; the decomposition encoding
// lives with its owning layer (td/td_io) — this file only frames it.
// Engine::SaveSession / Engine::LoadSession are the public entry points.
#ifndef TREEDL_ENGINE_SESSION_IO_HPP_
#define TREEDL_ENGINE_SESSION_IO_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl::engine {

/// First 4 bytes of every session file: "TDLS" (read as a little-endian u32).
inline constexpr uint32_t kSessionMagic = 0x534C4454u;
/// Highest format version this build reads and the one it writes.
inline constexpr uint32_t kSessionVersion = 1;

/// Section tags (docs/SESSION_FORMAT.md). Values are part of the format —
/// append new tags, never renumber. The retired tags were written by
/// earlier builds for derived artifacts; readers skip them and their
/// numbers stay reserved.
enum class SessionSection : uint32_t {
  kTreeDecomposition = 1,
  kRetiredClosedTreeDecomposition = 2,
  kRetiredPlainNormalizedTd = 3,
  kRetiredEnumNormalizedTd = 4,
  kRetiredTauTd = 5,
  kRetiredSchemaEncoding = 6,
  kPrimes = 7,
};

/// The persisted slice of an Engine's lazy cache (owned values — what
/// DecodeSessionFile returns). Absent fields simply were not cached when
/// the file was saved.
struct SessionArtifacts {
  std::optional<TreeDecomposition> td;
  std::optional<std::vector<bool>> primes;

  /// Number of present artifacts.
  size_t Count() const;
};

/// Borrowed view of the same slice, for the save path: the Engine's cached
/// artifacts are set-once and address-stable, so SaveSession snapshots
/// pointers under its lock and serializes outside it — no deep copies, no
/// queries blocked behind an O(cache size) copy.
struct SessionArtifactRefs {
  const TreeDecomposition* td = nullptr;
  const std::vector<bool>* primes = nullptr;

  /// Number of present artifacts.
  size_t Count() const;
};

/// Serializes `artifacts` into the session byte format, stamped with
/// `fingerprint` (a stable hash of the session's input — see
/// Engine::SaveSession).
std::string EncodeSessionFile(uint64_t fingerprint,
                              const SessionArtifactRefs& artifacts);

/// Parses a session byte string. Returns a clean error Status on bad magic,
/// a version newer than kSessionVersion, a fingerprint that does not match
/// `expected_fingerprint`, or any corrupted section — never crashes.
/// Sections with unknown or retired tags are skipped (a same-version reader
/// stays compatible with files that carry artifacts it does not decode).
StatusOr<SessionArtifacts> DecodeSessionFile(std::string_view data,
                                             uint64_t expected_fingerprint);

/// EncodeSessionFile + atomic-ish write to `path` (write then rename is not
/// attempted; partial writes surface as decode errors on the next load).
Status WriteSessionFile(const std::string& path, uint64_t fingerprint,
                        const SessionArtifactRefs& artifacts);

/// Reads `path` and decodes it.
StatusOr<SessionArtifacts> ReadSessionFile(const std::string& path,
                                           uint64_t expected_fingerprint);

}  // namespace treedl::engine

#endif  // TREEDL_ENGINE_SESSION_IO_HPP_
