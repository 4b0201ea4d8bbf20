// Line-delimited JSON wire for the serve daemon — DESIGN.md §16.
//
// The protocol is one complete JSON document per line in both directions
// (the §11 batch plane on a byte stream): challenge blocks in, response /
// outcome blocks out, obs deltas interleaved. LineChannel is the transport
// seam — the daemon and scheduler never see file descriptors:
//
//   * FdChannel     — POSIX fd pair (stdin/stdout, or an accepted Unix
//                     socket connection). Reads are buffered; every written
//                     line is flushed to the fd immediately so a reader
//                     observes outcomes as they happen, not at exit.
//   * MemoryChannel — scripted input / captured output for tests; the
//                     byte-stability tests compare full captured streams
//                     across PITFALLS_THREADS values.
//
// File I/O policy: the wire deliberately speaks POSIX fds, not fstream —
// all raw *file* I/O in this tree goes through support/snapshot (the
// `raw-io` lint rule), and a socket/pipe byte stream is not a file. The
// Unix-socket helpers below are the only place the daemon touches the
// filesystem namespace (the socket path), and they create no regular files.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pitfalls::serve {

class LineChannel {
 public:
  virtual ~LineChannel() = default;

  /// Next input line without its terminator; false on end of stream. CRLF
  /// is tolerated (the '\r' is stripped).
  virtual bool read_line(std::string& line) = 0;

  /// Write one complete line; the implementation appends the terminator and
  /// flushes before returning.
  virtual void write_line(std::string_view line) = 0;
};

/// Blocking line transport over a POSIX fd pair. Does not own the fds.
class FdChannel final : public LineChannel {
 public:
  FdChannel(int in_fd, int out_fd);

  bool read_line(std::string& line) override;
  void write_line(std::string_view line) override;

 private:
  int in_fd_;
  int out_fd_;
  std::string buffer_;
  bool eof_ = false;
};

/// Scripted transport for tests: input lines are fixed up front, written
/// lines are captured.
class MemoryChannel final : public LineChannel {
 public:
  explicit MemoryChannel(std::vector<std::string> input);

  bool read_line(std::string& line) override;
  void write_line(std::string_view line) override;

  const std::vector<std::string>& output() const { return output_; }

  /// The captured stream as it would appear on a byte transport — the unit
  /// the thread-count stability tests compare.
  std::string joined_output() const;

 private:
  std::vector<std::string> input_;
  std::size_t cursor_ = 0;
  std::vector<std::string> output_;
};

/// The protocol's error document: {"type":"error","id":...,"message":...},
/// with a null id when `id` is empty (the request named no job).
std::string error_line(const std::string& id, const std::string& message);

/// Bind and listen on a Unix-domain stream socket at `path` (an existing
/// socket file at `path` is replaced). Returns the listening fd; throws
/// std::runtime_error on any syscall failure.
int listen_unix(const std::string& path);

/// Accept one client connection from a listen_unix() fd (blocking).
int accept_unix(int listen_fd);

/// close(2) wrapper so callers outside this file need no <unistd.h>.
void close_fd(int fd);

}  // namespace pitfalls::serve
