#include "support/snapshot/snapshot.hpp"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>  // fsync

namespace pitfalls::support::snapshot {

namespace {

constexpr char kMagic[8] = {'P', 'I', 'T', 'F', 'S', 'N', 'A', 'P'};

// Frame-body ops.
constexpr std::uint8_t kAppend = 0;
constexpr std::uint8_t kReplace = 1;
constexpr std::uint8_t kRemove = 2;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

/// RAII FILE handle so every error path closes cleanly.
struct File {
  std::FILE* f = nullptr;
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
};

/// Open `path` in `mode`, write all of `bytes`, then flush and fsync.
void write_synced(const std::string& path, const char* mode,
                  std::string_view bytes) {
  File out;
  out.f = std::fopen(path.c_str(), mode);
  if (out.f == nullptr)
    throw SnapshotError(SnapshotFault::io, "cannot open " + path + " (" +
                                               std::strerror(errno) + ")");
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), out.f) != bytes.size())
    throw SnapshotError(SnapshotFault::io, "short write to " + path);
  // Flush userspace buffers, then force the kernel to persist them: a
  // rename or a later append before they are durable could surface an
  // empty or torn file after a power loss.
  if (std::fflush(out.f) != 0 || fsync(fileno(out.f)) != 0)
    throw SnapshotError(SnapshotFault::io, "cannot flush " + path);
}

}  // namespace

const char* to_string(SnapshotFault fault) {
  switch (fault) {
    case SnapshotFault::io:
      return "io";
    case SnapshotFault::bad_magic:
      return "bad_magic";
    case SnapshotFault::bad_version:
      return "bad_version";
    case SnapshotFault::truncated:
      return "truncated";
    case SnapshotFault::bad_crc:
      return "bad_crc";
    case SnapshotFault::malformed:
      return "malformed";
    case SnapshotFault::bad_section:
      return "bad_section";
  }
  return "unknown";
}

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (const char ch : bytes)
    c = kTable[(c ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

std::string read_file_bytes(const std::string& path) {
  File in;
  in.f = std::fopen(path.c_str(), "rb");
  if (in.f == nullptr)
    throw SnapshotError(SnapshotFault::io, "cannot open " + path + " (" +
                                               std::strerror(errno) + ")");
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(buffer, 1, sizeof buffer, in.f);
    bytes.append(buffer, got);
    if (got < sizeof buffer) {
      if (std::ferror(in.f) != 0)
        throw SnapshotError(SnapshotFault::io, "read error on " + path);
      break;
    }
  }
  return bytes;
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  try {
    write_synced(tmp, "wb", bytes);
  } catch (const SnapshotError&) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError(SnapshotFault::io,
                        "cannot rename " + tmp + " over " + path);
  }
}

void append_file_durable(const std::string& path, std::string_view bytes) {
  write_synced(path, "ab", bytes);
}

void probe_writable(const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "ab");
  if (f == nullptr)
    throw SnapshotError(SnapshotFault::io, "cannot create " + tmp + " (" +
                                               std::strerror(errno) + ")");
  std::fclose(f);
  // A stray .tmp from a killed writer is garbage either way; readers ignore
  // it and the next write recreates it, so removing it here is safe.
  std::remove(tmp.c_str());
}

// ---------------------------------------------------------------------------
// SectionWriter / SectionReader
// ---------------------------------------------------------------------------

void SectionWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    bytes_.push_back(static_cast<char>((v >> shift) & 0xFFU));
}

void SectionWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    bytes_.push_back(static_cast<char>((v >> shift) & 0xFFU));
}

void SectionWriter::patch_u32(std::size_t at, std::uint32_t v) {
  PITFALLS_REQUIRE(at <= bytes_.size() && bytes_.size() - at >= 4,
                   "patch past the end of the section");
  for (int shift = 0; shift < 32; shift += 8, ++at)
    bytes_[at] = static_cast<char>((v >> shift) & 0xFFU);
}

void SectionWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void SectionWriter::str(std::string_view s) {
  PITFALLS_REQUIRE(s.size() <= 0xFFFFFFFFULL, "string too large for u32");
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.append(s);
}

std::string_view SectionReader::raw(std::size_t n) {
  if (n > bytes_.size() - pos_)
    throw SnapshotError(SnapshotFault::bad_section,
                        "section '" + name_ + "' ran dry (" +
                            std::to_string(n) + " bytes wanted, " +
                            std::to_string(remaining()) + " left)");
  const std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t SectionReader::u8() {
  return static_cast<std::uint8_t>(raw(1)[0]);
}

std::uint32_t SectionReader::u32() {
  const std::string_view b = raw(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(b[static_cast<std::size_t>(i)]);
  return v;
}

std::uint64_t SectionReader::u64() {
  const std::string_view b = raw(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(b[static_cast<std::size_t>(i)]);
  return v;
}

double SectionReader::f64() { return std::bit_cast<double>(u64()); }

std::string SectionReader::str() {
  const std::uint32_t len = u32();
  return std::string(raw(len));
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

SnapshotWriter::SnapshotWriter(std::uint64_t seed, std::string provenance)
    : seed_(seed), provenance_(std::move(provenance)) {}

std::size_t SnapshotWriter::index_of(const std::string& name) const {
  std::size_t i = 0;
  while (i < sections_.size() && sections_[i].name != name) ++i;
  return i;
}

SnapshotWriter::Section& SnapshotWriter::get(const std::string& name) {
  const std::size_t i = index_of(name);
  if (i == sections_.size()) sections_.push_back(Section{name, {}});
  return sections_[i];
}

SectionWriter& SnapshotWriter::section(const std::string& name) {
  return get(name).bytes;
}

SectionWriter& SnapshotWriter::reset_section(const std::string& name) {
  Section& s = get(name);
  s.bytes = SectionWriter{};
  s.whole = true;
  return s.bytes;
}

void SnapshotWriter::remove_section(const std::string& name) {
  const std::size_t i = index_of(name);
  if (i == sections_.size()) return;
  if (sections_[i].logged) removed_.push_back(name);
  sections_.erase(sections_.begin() + static_cast<std::ptrdiff_t>(i));
}

bool SnapshotWriter::has_section(const std::string& name) const {
  return index_of(name) != sections_.size();
}

SectionReader SnapshotWriter::reader(const std::string& name) const {
  const std::size_t i = index_of(name);
  if (i == sections_.size())
    throw SnapshotError(SnapshotFault::bad_section,
                        "no section '" + name + "'");
  return SectionReader(sections_[i].bytes.bytes(), name);
}

std::vector<std::string> SnapshotWriter::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

void SnapshotWriter::append_frame(SectionWriter& out, bool compact) const {
  const std::size_t at = out.size();
  out.u64(0);  // body length and crc32, patched below
  if (!compact) {
    for (const std::string& name : removed_) {
      out.u8(kRemove);
      out.str(name);
    }
  }
  for (const Section& s : sections_) {
    const std::string& bytes = s.bytes.bytes();
    if (compact || s.whole) {
      out.u8(kReplace);
      out.str(s.name);
      out.str(bytes);
    } else if (s.persisted < bytes.size()) {
      out.u8(kAppend);
      out.str(s.name);
      out.str(std::string_view(bytes).substr(s.persisted));
    }
  }
  const std::string_view body = std::string_view(out.bytes()).substr(at + 8);
  PITFALLS_REQUIRE(body.size() <= 0xFFFFFFFFULL, "frame too large for u32");
  out.patch_u32(at, static_cast<std::uint32_t>(body.size()));
  out.patch_u32(at + 4, crc32(body));
}

std::string SnapshotWriter::encode() const {
  SectionWriter image;
  image.raw(std::string_view(kMagic, sizeof kMagic));
  image.u32(kFormatVersion);
  image.u64(seed_);
  image.str(provenance_);
  image.u32(crc32(image.bytes()));
  append_frame(image, /*compact=*/true);
  return image.take();
}

std::string SnapshotWriter::pending_frame() const {
  SectionWriter frame;
  append_frame(frame, /*compact=*/false);
  return frame.take();
}

void SnapshotWriter::mark_persisted() {
  for (Section& s : sections_) {
    s.logged = true;
    s.whole = false;
    s.persisted = s.bytes.size();
  }
  removed_.clear();
}

void SnapshotWriter::apply(std::string_view body) {
  SectionReader ops(body, "frame");
  try {
    while (!ops.at_end()) {
      const std::uint8_t op = ops.u8();
      const std::string name = ops.str();
      if (op == kRemove) {
        remove_section(name);
      } else if (op == kReplace) {
        reset_section(name).raw(ops.raw(ops.u32()));
      } else if (op == kAppend) {
        section(name).raw(ops.raw(ops.u32()));
      } else {
        throw SnapshotError(SnapshotFault::malformed,
                            "unknown frame op " + std::to_string(op));
      }
    }
  } catch (const SnapshotError& error) {
    if (error.fault() != SnapshotFault::bad_section) throw;
    throw SnapshotError(SnapshotFault::malformed, "frame ops ran past the body");
  }
}

SnapshotWriter SnapshotWriter::decode(std::string_view image) {
  SectionReader in(image, "header");
  std::uint64_t seed = 0;
  std::string provenance;
  try {
    if (in.raw(sizeof kMagic) != std::string_view(kMagic, sizeof kMagic))
      throw SnapshotError(SnapshotFault::bad_magic, "not a snapshot file");
    const std::uint32_t version = in.u32();
    if (version != kFormatVersion)
      throw SnapshotError(SnapshotFault::bad_version,
                          "unsupported snapshot version " +
                              std::to_string(version));
    seed = in.u64();
    provenance = in.str();
    const std::size_t header_size = image.size() - in.remaining();
    if (crc32(image.substr(0, header_size)) != in.u32())
      throw SnapshotError(SnapshotFault::bad_crc, "header checksum mismatch");
  } catch (const SnapshotError& error) {
    if (error.fault() != SnapshotFault::bad_section) throw;
    throw SnapshotError(SnapshotFault::truncated, "snapshot header truncated");
  }

  SnapshotWriter log(seed, std::move(provenance));
  while (!in.at_end()) {
    if (in.remaining() < 8) {
      log.torn_tail_ = true;
      break;
    }
    const std::uint32_t size = in.u32();
    const std::uint32_t crc = in.u32();
    if (size > in.remaining()) {
      log.torn_tail_ = true;
      break;
    }
    const std::string_view body = in.raw(size);
    if (crc32(body) != crc) {
      log.torn_tail_ = true;
      break;
    }
    log.apply(body);
  }
  log.mark_persisted();
  return log;
}

}  // namespace pitfalls::support::snapshot
