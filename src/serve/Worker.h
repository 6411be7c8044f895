//===- serve/Worker.h - One serve worker session -----------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solve-one-request core shared by both executor modes of
/// serve/Server.h, and the forked worker child's main loop. A worker
/// keeps no cache of its own: the daemon consults its result cache
/// (serve/Cache.h) before it dispatches a request to a worker.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_SERVE_WORKER_H
#define POSTR_SERVE_WORKER_H

#include "serve/Protocol.h"
#include "serve/Server.h"

#include <atomic>

namespace postr {
namespace serve {

/// Solves one request in the current process/thread. Parses the body,
/// intersects the deadlines (request header ∩ scripted `:timeout` ∩
/// server cap) into a cooperative `Budget` so cancellation and timeout
/// interrupt Simplex pivots and MBQI rounds mid-flight, and sets the
/// response's `Publishable` flag from the validation gate the result
/// cache publishes through. Never throws and never crashes on malformed
/// input — a parse error is a structured Error reply.
Response solveRequest(const Request &Req, const ServeOptions &Opts,
                      const std::atomic<bool> *Cancel);

/// Effective deadline for a request: the tightest of the nonzero client
/// header budget, the scripted `(set-option :timeout N)` (\p ScriptMs),
/// and the server cap.
uint64_t effectiveTimeoutMs(uint64_t HeaderMs, uint64_t ScriptMs,
                            const ServeOptions &Opts);

/// Main loop of a forked worker child (`<exe> --worker-child <in> <out>`):
/// reads request frames from \p FdIn, solves, writes response frames to
/// \p FdOut. SIGTERM cancels the in-flight solve cooperatively (the
/// reply still arrives, as `unknown (cancelled)`); EOF on \p FdIn is a
/// clean shutdown. Returns the process exit code.
int workerChildMain(int FdIn, int FdOut, const ServeOptions &Opts);

} // namespace serve
} // namespace postr

#endif // POSTR_SERVE_WORKER_H
