// pitfalls-served — the attack-service daemon (DESIGN.md §16).
//
// Serves a sharded fleet of lazily-materialized PUF tokens over the
// line-delimited JSON protocol of src/serve: challenge blocks in,
// response/outcome blocks out, per-job obs metrics streamed incrementally.
// Speaks stdin/stdout by default, or one connection at a time over a Unix
// socket (--socket PATH). With --checkpoint the daemon journals every
// finished job; --resume serves journaled outcomes back after a crash.
//
// Example (see README "Serving mode"): with jobs.txt holding the lines
//   {"type":"job","id":"a1","kind":"auth","token":12345,"seed":7,"rounds":16}
//   {"type":"run"}
// run
//   pitfalls-served --tokens 1000000 --seed 42 < jobs.txt

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "serve/daemon.hpp"
#include "serve/wire.hpp"
#include "store/checkpoint.hpp"

namespace {

using pitfalls::serve::DaemonConfig;

[[noreturn]] void usage(int status) {
  std::fputs(
      "usage: pitfalls-served [options]\n"
      "  --tokens N      fleet population (default 1000000)\n"
      "  --stages N      arbiter stages per token (default 64)\n"
      "  --chains N      XOR chains per token (default 2)\n"
      "  --sigma X       evaluation noise sigma (default 0)\n"
      "  --seed N        fleet seed (default 1)\n"
      "  --resident N    max materialized tokens (default 4096)\n"
      "  --shards N      fleet shards (default 64)\n"
      "  --checkpoint P  journal finished jobs into snapshot P\n"
      "  --resume        serve journaled outcomes from the --checkpoint P\n"
      "  --socket P      listen on a Unix socket instead of stdin/stdout\n",
      status == 0 ? stdout : stderr);
  std::exit(status);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  // strtoull would skip blanks, wrap a '-' and saturate out-of-range values,
  // so only plain digits that fit in 64 bits are accepted.
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "pitfalls-served: %s expects an unsigned 64-bit integer, "
                 "got %s\n",
                 flag, text);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(value);
}

double parse_double(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "pitfalls-served: %s expects a number, got %s\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonConfig config;
  std::string socket_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pitfalls-served: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--tokens") == 0) {
      config.fleet.tokens = parse_u64(arg, next());
    } else if (std::strcmp(arg, "--stages") == 0) {
      config.fleet.spec.stages = static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (std::strcmp(arg, "--chains") == 0) {
      config.fleet.spec.chains = static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (std::strcmp(arg, "--sigma") == 0) {
      config.fleet.spec.noise_sigma = parse_double(arg, next());
    } else if (std::strcmp(arg, "--seed") == 0) {
      config.fleet.seed = parse_u64(arg, next());
    } else if (std::strcmp(arg, "--resident") == 0) {
      config.fleet.resident_limit = static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (std::strcmp(arg, "--shards") == 0) {
      config.fleet.shards = static_cast<std::size_t>(parse_u64(arg, next()));
    } else if (std::strcmp(arg, "--checkpoint") == 0) {
      config.checkpoint_path = next();
    } else if (std::strcmp(arg, "--resume") == 0) {
      config.resume = true;
    } else if (std::strcmp(arg, "--socket") == 0) {
      socket_path = next();
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "pitfalls-served: unknown option %s\n", arg);
      usage(2);
    }
  }

  // Cooperative shutdown: SIGTERM sets the store termination flag, which the
  // daemon polls between protocol lines (flush + exit 143).
  pitfalls::store::install_termination_handler();

  try {
    pitfalls::serve::Daemon daemon(config);
    if (socket_path.empty()) {
      pitfalls::serve::FdChannel channel(0, 1);
      return daemon.serve(channel);
    }
    const int listener = pitfalls::serve::listen_unix(socket_path);
    const int client = pitfalls::serve::accept_unix(listener);
    pitfalls::serve::FdChannel channel(client, client);
    const int status = daemon.serve(channel);
    pitfalls::serve::close_fd(client);
    pitfalls::serve::close_fd(listener);
    return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pitfalls-served: %s\n", error.what());
    return 1;
  }
}
