#include "engine/session_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/binary_io.hpp"
#include "common/fault_injection.hpp"
#include "td/td_io.hpp"

namespace treedl::engine {

namespace {

// The errno rendering behind every IO failure Status: "<op> failed:
// <strerror>". strerror text is libc-stable for a fixed platform, so the
// serving layer can surface these messages in transcripts that diff
// byte-for-byte across runs.
std::string ErrnoText(int err) {
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

void AppendSection(SessionSection tag, BinaryWriter&& payload,
                   BinaryWriter* out) {
  out->U32(static_cast<uint32_t>(tag));
  out->Str(payload.buffer());
}

void EncodePrimes(const std::vector<bool>& primes, BinaryWriter* w) {
  w->U64(primes.size());
  for (bool p : primes) w->U8(p ? 1 : 0);
}

StatusOr<std::vector<bool>> DecodePrimes(BinaryReader* r) {
  size_t n = 0;
  TREEDL_RETURN_IF_ERROR(r->Length(&n, 1));
  std::vector<bool> primes(n, false);
  for (size_t i = 0; i < n; ++i) {
    uint8_t bit = 0;
    TREEDL_RETURN_IF_ERROR(r->U8(&bit));
    if (bit > 1) return Status::ParseError("session: non-boolean primes bit");
    primes[i] = bit != 0;
  }
  return primes;
}

}  // namespace

size_t SessionArtifacts::Count() const {
  return (td.has_value() ? 1u : 0u) + (primes.has_value() ? 1u : 0u);
}

size_t SessionArtifactRefs::Count() const {
  return (td != nullptr ? 1u : 0u) + (primes != nullptr ? 1u : 0u);
}

std::string EncodeSessionFile(uint64_t fingerprint,
                              const SessionArtifactRefs& artifacts) {
  BinaryWriter out;
  out.U32(kSessionMagic);
  out.U32(kSessionVersion);
  out.U64(fingerprint);
  out.U64(artifacts.Count());
  if (artifacts.td != nullptr) {
    BinaryWriter payload;
    SerializeTreeDecomposition(*artifacts.td, &payload);
    AppendSection(SessionSection::kTreeDecomposition, std::move(payload), &out);
  }
  if (artifacts.primes != nullptr) {
    BinaryWriter payload;
    EncodePrimes(*artifacts.primes, &payload);
    AppendSection(SessionSection::kPrimes, std::move(payload), &out);
  }
  return out.Take();
}

StatusOr<SessionArtifacts> DecodeSessionFile(std::string_view data,
                                             uint64_t expected_fingerprint) {
  BinaryReader reader(data);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t fingerprint = 0;
  TREEDL_RETURN_IF_ERROR(reader.U32(&magic));
  if (magic != kSessionMagic) {
    return Status::ParseError("session: bad magic (not a treedl session file)");
  }
  TREEDL_RETURN_IF_ERROR(reader.U32(&version));
  if (version == 0 || version > kSessionVersion) {
    return Status::ParseError(
        "session: file version " + std::to_string(version) +
        " not supported (this build reads up to version " +
        std::to_string(kSessionVersion) + ")");
  }
  TREEDL_RETURN_IF_ERROR(reader.U64(&fingerprint));
  if (fingerprint != expected_fingerprint) {
    return Status::InvalidArgument(
        "session: fingerprint mismatch — the file was saved for a different "
        "schema/structure");
  }
  size_t num_sections = 0;
  TREEDL_RETURN_IF_ERROR(reader.Length(&num_sections, 4 + 8));

  SessionArtifacts artifacts;
  for (size_t i = 0; i < num_sections; ++i) {
    uint32_t tag = 0;
    TREEDL_RETURN_IF_ERROR(reader.U32(&tag));
    size_t length = 0;
    TREEDL_RETURN_IF_ERROR(reader.Length(&length, 1));
    std::string_view payload;
    TREEDL_RETURN_IF_ERROR(reader.Slice(length, &payload));
    BinaryReader section(payload);
    switch (static_cast<SessionSection>(tag)) {
      case SessionSection::kTreeDecomposition: {
        TREEDL_ASSIGN_OR_RETURN(artifacts.td,
                                DeserializeTreeDecomposition(&section));
        break;
      }
      case SessionSection::kPrimes: {
        TREEDL_ASSIGN_OR_RETURN(artifacts.primes, DecodePrimes(&section));
        break;
      }
      default:
        // Unknown tag (a same-version writer with artifacts this reader does
        // not know) or retired tag (a derived artifact an earlier build
        // wrote, rebuilt on first use here). Skipping keeps the rest of the
        // file usable.
        continue;
    }
    if (!section.AtEnd()) {
      return Status::ParseError("session: trailing bytes in section " +
                                std::to_string(tag));
    }
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("session: trailing bytes after last section");
  }
  return artifacts;
}

Status WriteSessionFile(const std::string& path, uint64_t fingerprint,
                        const SessionArtifactRefs& artifacts) {
  TREEDL_RETURN_IF_ERROR(TREEDL_FAULT_POINT("session_io.write"));
  std::string bytes = EncodeSessionFile(fingerprint, artifacts);
  // Atomic, durable write: the full image goes to a temporary sibling, is
  // fsync'd to stable storage, and then one rename() publishes it. A crash
  // (or power loss) mid-save leaves at worst a stray .tmp file — `path` is
  // always either the previous complete session or the new one, never a
  // truncated file that LoadSession would reject. The pid + counter suffix
  // keeps concurrent saves — same-process and cross-process — off each
  // other's temp file (the renames then race, but each publishes a complete
  // image).
  static std::atomic<uint64_t> temp_counter{0};
  std::string temp_path = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(temp_counter.fetch_add(1));
  {
    errno = 0;
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::InvalidArgument("session: cannot open '" + temp_path +
                                     "' for writing: " + ErrnoText(errno));
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      int err = errno;
      out.close();
      std::remove(temp_path.c_str());
      return Status::Internal("session: short write to '" + temp_path +
                              "': " + ErrnoText(err));
    }
  }
  // Force the data to disk before the rename becomes visible: journaling
  // filesystems may otherwise persist the rename ahead of the data blocks,
  // which would resurrect exactly the truncated-file failure mode this
  // function exists to rule out.
  int fd = ::open(temp_path.c_str(), O_WRONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    int err = errno;
    if (fd >= 0) ::close(fd);
    std::remove(temp_path.c_str());
    return Status::Internal("session: cannot fsync '" + temp_path +
                            "': " + ErrnoText(err));
  }
  ::close(fd);
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    int err = errno;
    std::remove(temp_path.c_str());
    return Status::Internal("session: cannot rename '" + temp_path +
                            "' to '" + path + "': " + ErrnoText(err));
  }
  // Best-effort directory sync so the rename itself is durable.
  std::string_view view(path);
  size_t slash = view.find_last_of('/');
  std::string dir(slash == std::string_view::npos ? "." : view.substr(0, slash));
  if (dir.empty()) dir = "/";
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

StatusOr<SessionArtifacts> ReadSessionFile(const std::string& path,
                                           uint64_t expected_fingerprint) {
  TREEDL_RETURN_IF_ERROR(TREEDL_FAULT_POINT("session_io.read"));
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("session: cannot open '" + path +
                            "': " + ErrnoText(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal("session: read error on '" + path + "'");
  }
  std::string bytes = buffer.str();
  return DecodeSessionFile(bytes, expected_fingerprint);
}

}  // namespace treedl::engine
