// `dyngossip serve` / `dyngossip request` — the unix-socket transport
// around serve/server.hpp (protocol in serve/protocol.hpp).
#pragma once

namespace dyngossip {

class SweepService;

/// Serves one accepted connection: reads the request line, runs the sweep
/// and sends its protocol lines, '\n'-terminated, in batches (one send per
/// point where the sweep waits on a running trial, one at the end, and one
/// whenever a batch passes 64 KiB).  Closes `fd`.
void serve_connection(SweepService& service, int fd);

/// Entry point for the `serve` and `request` commands (argv starting at the
/// program name, argv[1] selecting which).  Returns a process exit code.
[[nodiscard]] int serve_main(int argc, const char* const* argv);

}  // namespace dyngossip
