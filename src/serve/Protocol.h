//===- serve/Protocol.h - postr-serve wire protocol --------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed framing and message grammar shared by the
/// `postr_serve` daemon, `postr_client`, and the daemon↔worker-child
/// pipes. One frame is a 4-byte big-endian payload length followed by the
/// payload; a payload is a text message:
///
///   postr-serve/1 <command>\n
///   <key>: <value>\n
///   ...\n
///   \n
///   <body>
///
/// Requests: `solve` (body = SMT-LIB script), `stats`, `ping`,
/// `shutdown`. Responses: `ok` (solve results and stats replies), `busy`
/// (admission control shed the request; `retry-after-ms` hints the
/// client's backoff), `error` (malformed request, parse error, oversized
/// frame). Everything is hardened against hostile peers: frame lengths
/// are capped, header parsing rejects junk, and unknown keys are ignored
/// so the protocol can grow. See docs/SERVE.md for the full taxonomy.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_SERVE_PROTOCOL_H
#define POSTR_SERVE_PROTOCOL_H

#include "base/Base.h"

#include <cstdint>
#include <string>

namespace postr {
namespace serve {

/// Protocol magic: first token of every payload.
inline constexpr const char *ProtocolMagic = "postr-serve/1";

/// Default cap on one frame's payload size; `ServeOptions::MaxRequestBytes`
/// (env `POSTR_SERVE_MAX_REQUEST_BYTES`) overrides per server.
inline constexpr uint64_t DefaultMaxFrameBytes = 4ull << 20;

/// A parsed request frame.
struct Request {
  enum Kind : uint8_t { Solve, Stats, Ping, Shutdown };
  Kind K = Solve;
  /// Client-chosen correlation id, echoed verbatim in the response.
  std::string Id;
  /// Client budget in ms (0 = none requested); the server intersects it
  /// with its per-request cap. A scripted `(set-option :timeout N)` in
  /// the body is a second client-side bound; the tightest wins.
  uint64_t TimeoutMs = 0;
  /// Bypass the cross-query cache for this request (lookup AND publish).
  bool NoCache = false;
  /// Test-only (honoured only when the server was started with
  /// `AllowTestAbort`): the worker hard-exits mid-solve, simulating a
  /// crash, so recovery paths can be driven deterministically from CI.
  bool TestAbort = false;
  /// SMT-LIB script to solve (Solve requests).
  std::string Smt2;
};

/// A parsed response frame.
struct Response {
  enum Status : uint8_t { Ok, Busy, Error };
  Status S = Ok;
  std::string Id;
  /// Solve replies: "sat" | "unsat" | "unknown".
  std::string Verdict;
  /// Structured reason accompanying an unknown verdict ("timeout",
  /// "memout", "worker-crash", "self-check failed", ...); empty
  /// otherwise.
  std::string Reason;
  /// smtlib_cli-compatible exit code for the verdict (see docs/SERVE.md).
  int ExitCode = 0;
  /// Cross-query cache disposition of a solve: "hit" | "miss" | "bypass".
  std::string Cache;
  /// Backoff hint on Busy replies, in ms.
  uint64_t RetryAfterMs = 0;
  /// Error replies: the diagnostic.
  std::string Message;
  /// Solve replies: model comment lines; stats replies: the JSON.
  std::string Body;

  //===--- daemon ↔ worker-child only (never sent to clients) -----------===//
  /// The result may be published to the cross-query cache: determinate
  /// verdict, self-check passed, no budget trip, no injected fault fired
  /// during the query.
  bool Publishable = false;
  /// The worker's own self-check (model validation / certification)
  /// rejected the verdict — a quarantine trigger.
  bool SelfCheckFailed = false;
  /// An armed fault injector fired during this query.
  bool FaultFired = false;
};

/// Serializes \p R into a payload string (without the length prefix).
std::string encodeRequest(const Request &R);
std::string encodeResponse(const Response &R);

/// Parses a payload. Unknown commands and malformed headers fail with a
/// diagnostic; unknown keys are skipped.
Result<Request> decodeRequest(const std::string &Payload);
Result<Response> decodeResponse(const std::string &Payload);

/// Writes one frame (length prefix + payload) to \p Fd, retrying on
/// EINTR and short writes. Returns false on error (e.g. EPIPE after the
/// peer vanished).
bool writeFrame(int Fd, const std::string &Payload);

/// Reads one frame from \p Fd. \p MaxBytes bounds the announced payload
/// length (a hostile 4 GiB prefix must not allocate). `DeadlineMs`
/// bounds the whole read via poll (0 = block forever). Failure
/// distinguishes a clean EOF ("eof") from errors so callers can tell a
/// closed session from a broken one; a timeout fails with "timeout".
Result<std::string> readFrame(int Fd, uint64_t MaxBytes,
                              uint64_t DeadlineMs = 0);

} // namespace serve
} // namespace postr

#endif // POSTR_SERVE_PROTOCOL_H
