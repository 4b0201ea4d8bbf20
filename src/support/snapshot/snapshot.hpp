// Crash-safe snapshot logs — the binary format under the experiment store
// (src/store, DESIGN.md §14).
//
// A snapshot is an append-only log of named byte sections:
//
//   magic "PITFSNAP"            8 bytes
//   format version              u32 LE   (2)
//   seed                        u64 LE   (seed provenance: the root seed)
//   provenance string           u32 length + bytes (free-form, e.g. bench
//                                argv + config fingerprint)
//   header crc32                u32 LE over every byte above
//   frames, each:               body length u32, crc32(body) u32, body
//
// A body is a sequence of ops, applied in order: append <section> <bytes>,
// replace <section> <bytes> (create or overwrite) and remove <section>.
// Names and bytes are u32 length + bytes. Every integer is little-endian
// regardless of host byte order.
//
// Writing: the first flush of a session writes the compacted image
// (encode(): the header plus one frame replacing every live section) with
// write_file_atomic; every later flush appends one frame holding only what
// changed since the previous one (pending_frame()) with append_file_durable.
// One frame per flush, so a torn tail can never split a flush.
//
// Reading: decode() rejects a damaged header with a typed SnapshotError,
// then applies frames until the first one whose declared length runs past
// the end or whose CRC fails; that tail is ignored and torn_tail() says so.
// Recovery is at flush granularity: a crash at any byte offset leaves the
// state after one whole flush or the next, never a mix. The
// truncate-at-every-offset and bit-flip-at-every-offset torture tests in
// store_test.cpp pin this contract down.
//
// This header is one of the two sanctioned raw-file-I/O sites in the tree
// (the other is src/obs); the `raw-io` lint rule forbids fopen/fstream
// anywhere else so that all experiment state flows through this format.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/require.hpp"

namespace pitfalls::support::snapshot {

constexpr std::uint32_t kFormatVersion = 2;

/// Why a snapshot could not be read. `truncated` and `bad_crc` are the
/// header corruption cases the torture tests sweep; `bad_version` covers
/// files from another (or mangled) format revision.
enum class SnapshotFault {
  io,           // file missing / unreadable / unwritable
  bad_magic,    // not a snapshot file at all
  bad_version,  // unknown format version
  truncated,    // file ends inside the header
  bad_crc,      // header checksum mismatch
  malformed,    // a CRC-clean frame whose ops do not parse
  bad_section,  // a requested section is absent or its payload ran dry
};

const char* to_string(SnapshotFault fault);

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotFault fault, const std::string& message)
      : std::runtime_error(message), fault_(fault) {}
  SnapshotFault fault() const { return fault_; }

 private:
  SnapshotFault fault_;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the header and frame checksum.
/// `seed` chains partial computations: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0);

/// Whole file as bytes. Throws SnapshotError{io} when unreadable. The
/// sanctioned low-level read shared by the snapshot format and the few
/// tools (JSON validators) that need raw bytes without the format.
std::string read_file_bytes(const std::string& path);

/// Crash-safe whole-file write: serialise to `path + ".tmp"`, flush+fsync,
/// rename over `path`. Throws SnapshotError{io} on any failure (the .tmp is
/// removed best-effort). After return, `path` holds exactly `bytes`.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Append `bytes` to `path`, then flush+fsync. Throws SnapshotError{io} on
/// any failure, after which the file may end in a torn tail.
void append_file_durable(const std::string& path, std::string_view bytes);

/// Throws SnapshotError{io} unless `path` can be written (probed by
/// creating and removing `path + ".tmp"`, without touching `path` itself).
/// Lets checkpoint sessions reject an unwritable path at startup instead
/// of aborting at the first cadence flush, hours into a run.
void probe_writable(const std::string& path);

/// Append-friendly byte buffer with the format's primitive encodings. All
/// integers little-endian; f64 is the IEEE-754 bit pattern (bit-exact round
/// trips — resume determinism depends on it).
class SectionWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// u32 length prefix + raw bytes.
  void str(std::string_view s);
  /// Raw bytes, no prefix (caller knows the length from its own framing).
  void raw(std::string_view s) { bytes_.append(s); }
  /// Overwrite the u32 at byte offset `at`: a length or checksum written as
  /// a placeholder before the bytes it describes.
  void patch_u32(std::size_t at, std::uint32_t v);
  /// Move the bytes out, leaving the writer empty.
  std::string take() { return std::exchange(bytes_, {}); }

  const std::string& bytes() const { return bytes_; }
  bool empty() const { return bytes_.empty(); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

/// Bounds-checked cursor over one section's payload. Every read past the
/// end throws SnapshotError{bad_section} — a short section can never be
/// silently zero-filled.
class SectionReader {
 public:
  SectionReader(std::string_view bytes, std::string name)
      : bytes_(bytes), name_(std::move(name)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  /// The next `n` bytes, no prefix.
  std::string_view raw(std::size_t n);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }
  const std::string& name() const { return name_; }

 private:
  std::string_view bytes_;
  std::string name_;
  std::size_t pos_ = 0;
};

/// The in-memory section set behind one snapshot log, as written through
/// and as decoded. Section order is the order of first creation, so
/// encode() is deterministic for a fixed call sequence. Each section
/// remembers how much of it the log already holds, so pending_frame()
/// carries the bytes that changed, not the whole image.
class SnapshotWriter {
 public:
  SnapshotWriter(std::uint64_t seed, std::string provenance);

  /// Rebuild the section set from a log image. A damaged header throws a
  /// typed SnapshotError; a torn or corrupt frame ends the log there
  /// (torn_tail()). A CRC-clean frame that does not parse is `malformed`.
  /// Everything decoded counts as persisted.
  static SnapshotWriter decode(std::string_view image);

  /// Get-or-create: an existing section is returned for appending.
  SectionWriter& section(const std::string& name);
  /// Create-or-clear: the section starts empty (state sections that are
  /// rewritten at every flush).
  SectionWriter& reset_section(const std::string& name);
  /// Drop a section entirely (e.g. a query log superseded by its final
  /// outcome). Unknown names are ignored.
  void remove_section(const std::string& name);
  bool has_section(const std::string& name) const;
  /// Cursor over a section's bytes; throws SnapshotError{bad_section} when
  /// absent. Any mutation of that section invalidates it.
  SectionReader reader(const std::string& name) const;

  std::uint64_t seed() const { return seed_; }
  const std::string& provenance() const { return provenance_; }
  std::vector<std::string> section_names() const;
  /// decode() ignored bytes after the last whole frame.
  bool torn_tail() const { return torn_tail_; }

  /// The compacted image: the header plus one frame with a `replace` per
  /// live section, in creation order.
  std::string encode() const;
  /// One frame (length, CRC, body) of the changes since the last
  /// mark_persisted(): `remove` for each dropped section the log holds,
  /// `replace` for each new or reset one, `append` for new bytes. Nothing
  /// changed gives an empty body.
  std::string pending_frame() const;
  /// Record that the log now holds the current state.
  void mark_persisted();

 private:
  struct Section {
    std::string name;
    SectionWriter bytes;
    bool logged = false;        // the log holds this section
    bool whole = true;          // new or reset since the last mark
    std::size_t persisted = 0;  // prefix of `bytes` the log holds
  };

  std::size_t index_of(const std::string& name) const;  // size(): absent
  Section& get(const std::string& name);                 // get-or-create
  /// Append one frame to `out` in place: an 8-byte placeholder, the ops,
  /// then the body length and crc32 patched over the placeholder.
  void append_frame(SectionWriter& out, bool compact) const;
  void apply(std::string_view body);

  std::uint64_t seed_;
  std::string provenance_;
  std::vector<Section> sections_;
  std::vector<std::string> removed_;  // logged sections dropped since the mark
  bool torn_tail_ = false;
};

}  // namespace pitfalls::support::snapshot
