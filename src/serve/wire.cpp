#include "serve/wire.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "support/require.hpp"

namespace pitfalls::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

FdChannel::FdChannel(int in_fd, int out_fd) : in_fd_(in_fd), out_fd_(out_fd) {
  PITFALLS_REQUIRE(in_fd >= 0 && out_fd >= 0,
                   "channel needs valid file descriptors");
}

bool FdChannel::read_line(std::string& line) {
  // Search only the bytes each read adds: a line of L bytes arriving in 4 KB
  // reads then costs O(L), not O(L^2 / 4096).
  std::size_t searched = 0;
  for (;;) {
    const std::size_t newline = buffer_.find('\n', searched);
    searched = buffer_.size();
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (eof_) {
      if (buffer_.empty()) return false;
      line = std::move(buffer_);  // unterminated final line
      buffer_.clear();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    char chunk[4096];
    const ssize_t got = ::read(in_fd_, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;  // e.g. SIGTERM — caller polls the flag
      throw_errno("serve wire read");
    }
    if (got == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

void FdChannel::write_line(std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  std::size_t written = 0;
  while (written < framed.size()) {
    const ssize_t put =
        ::write(out_fd_, framed.data() + written, framed.size() - written);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw_errno("serve wire write");
    }
    written += static_cast<std::size_t>(put);
  }
}

MemoryChannel::MemoryChannel(std::vector<std::string> input)
    : input_(std::move(input)) {}

bool MemoryChannel::read_line(std::string& line) {
  if (cursor_ >= input_.size()) return false;
  line = input_[cursor_++];
  return true;
}

void MemoryChannel::write_line(std::string_view line) {
  output_.emplace_back(line);
}

std::string MemoryChannel::joined_output() const {
  std::string joined;
  for (const std::string& line : output_) {
    joined += line;
    joined += '\n';
  }
  return joined;
}

std::string error_line(const std::string& id, const std::string& message) {
  obs::JsonWriter writer;
  writer.begin_object();
  writer.key("type").value("error");
  if (id.empty())
    writer.key("id").null_value();
  else
    writer.key("id").value(id);
  writer.key("message").value(message);
  writer.end_object();
  return writer.str();
}

int listen_unix(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  PITFALLS_REQUIRE(path.size() < sizeof(address.sun_path),
                   "unix socket path too long");
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("serve socket");
  ::unlink(path.c_str());  // replace a stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("serve bind " + path);
  }
  if (::listen(fd, 8) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("serve listen " + path);
  }
  return fd;
}

int accept_unix(int listen_fd) {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client >= 0) return client;
    if (errno == EINTR) continue;
    throw_errno("serve accept");
  }
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace pitfalls::serve
