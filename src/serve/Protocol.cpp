//===- serve/Protocol.cpp - postr-serve wire protocol -----------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <unistd.h>

namespace postr {
namespace serve {

namespace {

const char *requestKindName(Request::Kind K) {
  switch (K) {
  case Request::Solve:
    return "solve";
  case Request::Stats:
    return "stats";
  case Request::Ping:
    return "ping";
  case Request::Shutdown:
    return "shutdown";
  }
  return "?";
}

const char *statusName(Response::Status S) {
  switch (S) {
  case Response::Ok:
    return "ok";
  case Response::Busy:
    return "busy";
  case Response::Error:
    return "error";
  }
  return "?";
}

/// Header values live on one line; ids and diagnostics are
/// caller-supplied, so strip the newlines that would desynchronize the
/// header block.
std::string sanitize(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S)
    Out.push_back(C == '\n' || C == '\r' ? ' ' : C);
  return Out;
}

void appendHeader(std::string &Out, const char *Key, const std::string &V) {
  if (V.empty())
    return;
  Out += Key;
  Out += ": ";
  Out += sanitize(V);
  Out += '\n';
}

void appendHeaderU64(std::string &Out, const char *Key, uint64_t V) {
  if (!V)
    return;
  appendHeader(Out, Key, std::to_string(V));
}

/// Splits a payload into (command, headers, body). Returns false with a
/// diagnostic on structural errors.
struct Parsed {
  std::string Command;
  std::vector<std::pair<std::string, std::string>> Headers;
  std::string Body;
};

Result<Parsed> parsePayload(const std::string &Payload) {
  Parsed P;
  size_t Pos = Payload.find('\n');
  if (Pos == std::string::npos)
    return Result<Parsed>::failure("truncated payload: no header line");
  std::string First = Payload.substr(0, Pos);
  size_t Sp = First.find(' ');
  if (Sp == std::string::npos || First.substr(0, Sp) != ProtocolMagic)
    return Result<Parsed>::failure("bad protocol magic");
  P.Command = First.substr(Sp + 1);
  if (P.Command.empty())
    return Result<Parsed>::failure("missing command");
  ++Pos;
  while (Pos < Payload.size()) {
    size_t End = Payload.find('\n', Pos);
    if (End == std::string::npos)
      return Result<Parsed>::failure("truncated payload: unterminated header");
    if (End == Pos) {
      // Blank line: the rest is the body.
      P.Body = Payload.substr(End + 1);
      return Result<Parsed>::success(std::move(P));
    }
    std::string Line = Payload.substr(Pos, End - Pos);
    size_t Colon = Line.find(": ");
    if (Colon == std::string::npos || Colon == 0)
      return Result<Parsed>::failure("malformed header line '" + Line + "'");
    P.Headers.emplace_back(Line.substr(0, Colon), Line.substr(Colon + 2));
    Pos = End + 1;
  }
  // No blank line: header-only payload, empty body.
  return Result<Parsed>::success(std::move(P));
}

/// Checked u64 header value; hostile digits must not wrap silently.
bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 18)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Out = V;
  return true;
}

} // namespace

std::string encodeRequest(const Request &R) {
  std::string Out = std::string(ProtocolMagic) + " " + requestKindName(R.K) +
                    "\n";
  appendHeader(Out, "id", R.Id);
  appendHeaderU64(Out, "timeout-ms", R.TimeoutMs);
  if (R.NoCache)
    appendHeader(Out, "no-cache", "1");
  if (R.TestAbort)
    appendHeader(Out, "x-test-abort", "1");
  Out += '\n';
  Out += R.Smt2;
  return Out;
}

std::string encodeResponse(const Response &R) {
  std::string Out =
      std::string(ProtocolMagic) + " " + statusName(R.S) + "\n";
  appendHeader(Out, "id", R.Id);
  appendHeader(Out, "verdict", R.Verdict);
  appendHeader(Out, "reason", R.Reason);
  appendHeaderU64(Out, "exit-code", static_cast<uint64_t>(R.ExitCode));
  appendHeader(Out, "cache", R.Cache);
  appendHeaderU64(Out, "retry-after-ms", R.RetryAfterMs);
  appendHeader(Out, "message", R.Message);
  if (R.Publishable)
    appendHeader(Out, "x-publishable", "1");
  if (R.SelfCheckFailed)
    appendHeader(Out, "x-selfcheck-failed", "1");
  if (R.FaultFired)
    appendHeader(Out, "x-fault-fired", "1");
  Out += '\n';
  Out += R.Body;
  return Out;
}

Result<Request> decodeRequest(const std::string &Payload) {
  Result<Parsed> P = parsePayload(Payload);
  if (!P)
    return Result<Request>::failure(P.error());
  Request R;
  if (P->Command == "solve")
    R.K = Request::Solve;
  else if (P->Command == "stats")
    R.K = Request::Stats;
  else if (P->Command == "ping")
    R.K = Request::Ping;
  else if (P->Command == "shutdown")
    R.K = Request::Shutdown;
  else
    return Result<Request>::failure("unknown command '" + P->Command + "'");
  for (const auto &[K, V] : P->Headers) {
    if (K == "id")
      R.Id = V;
    else if (K == "timeout-ms") {
      if (!parseU64(V, R.TimeoutMs))
        return Result<Request>::failure("malformed timeout-ms '" + V + "'");
    } else if (K == "no-cache")
      R.NoCache = V == "1";
    else if (K == "x-test-abort")
      R.TestAbort = V == "1";
    // Unknown keys are skipped so the protocol can grow.
  }
  R.Smt2 = std::move(P->Body);
  return Result<Request>::success(std::move(R));
}

Result<Response> decodeResponse(const std::string &Payload) {
  Result<Parsed> P = parsePayload(Payload);
  if (!P)
    return Result<Response>::failure(P.error());
  Response R;
  if (P->Command == "ok")
    R.S = Response::Ok;
  else if (P->Command == "busy")
    R.S = Response::Busy;
  else if (P->Command == "error")
    R.S = Response::Error;
  else
    return Result<Response>::failure("unknown status '" + P->Command + "'");
  for (const auto &[K, V] : P->Headers) {
    uint64_t U = 0;
    if (K == "id")
      R.Id = V;
    else if (K == "verdict")
      R.Verdict = V;
    else if (K == "reason")
      R.Reason = V;
    else if (K == "exit-code" && parseU64(V, U))
      R.ExitCode = static_cast<int>(U);
    else if (K == "cache")
      R.Cache = V;
    else if (K == "retry-after-ms" && parseU64(V, U))
      R.RetryAfterMs = U;
    else if (K == "message")
      R.Message = V;
    else if (K == "x-publishable")
      R.Publishable = V == "1";
    else if (K == "x-selfcheck-failed")
      R.SelfCheckFailed = V == "1";
    else if (K == "x-fault-fired")
      R.FaultFired = V == "1";
  }
  R.Body = std::move(P->Body);
  return Result<Response>::success(std::move(R));
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

bool writeFrame(int Fd, const std::string &Payload) {
  unsigned char Prefix[4] = {
      static_cast<unsigned char>((Payload.size() >> 24) & 0xff),
      static_cast<unsigned char>((Payload.size() >> 16) & 0xff),
      static_cast<unsigned char>((Payload.size() >> 8) & 0xff),
      static_cast<unsigned char>(Payload.size() & 0xff),
  };
  auto WriteAll = [Fd](const void *Buf, size_t N) {
    const char *P = static_cast<const char *>(Buf);
    while (N > 0) {
      ssize_t W = ::write(Fd, P, N);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      P += W;
      N -= static_cast<size_t>(W);
    }
    return true;
  };
  return WriteAll(Prefix, 4) && WriteAll(Payload.data(), Payload.size());
}

Result<std::string> readFrame(int Fd, uint64_t MaxBytes,
                              uint64_t DeadlineMs) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(DeadlineMs);
  auto ReadAll = [&](void *Buf, size_t N,
                     bool AtStart) -> Result<std::string> {
    char *P = static_cast<char *>(Buf);
    while (N > 0) {
      if (DeadlineMs) {
        auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        Deadline - Clock::now())
                        .count();
        if (Left <= 0)
          return Result<std::string>::failure("timeout");
        struct pollfd Pfd = {Fd, POLLIN, 0};
        int PR = ::poll(&Pfd, 1, static_cast<int>(Left));
        if (PR < 0) {
          if (errno == EINTR)
            continue;
          return Result<std::string>::failure(std::strerror(errno));
        }
        if (PR == 0)
          return Result<std::string>::failure("timeout");
      }
      ssize_t R = ::read(Fd, P, N);
      if (R < 0) {
        if (errno == EINTR)
          continue;
        return Result<std::string>::failure(std::strerror(errno));
      }
      if (R == 0)
        return Result<std::string>::failure(AtStart && P == Buf
                                                ? "eof"
                                                : "unexpected eof mid-frame");
      P += R;
      N -= static_cast<size_t>(R);
      AtStart = false;
    }
    return Result<std::string>::success(std::string());
  };
  unsigned char Prefix[4];
  if (Result<std::string> R = ReadAll(Prefix, 4, /*AtStart=*/true); !R)
    return R;
  uint64_t Len = (uint64_t(Prefix[0]) << 24) | (uint64_t(Prefix[1]) << 16) |
                 (uint64_t(Prefix[2]) << 8) | uint64_t(Prefix[3]);
  if (Len > MaxBytes)
    return Result<std::string>::failure(
        "frame of " + std::to_string(Len) + " bytes exceeds the " +
        std::to_string(MaxBytes) + "-byte cap");
  std::string Payload(Len, '\0');
  if (Len)
    if (Result<std::string> R = ReadAll(Payload.data(), Len,
                                        /*AtStart=*/false);
        !R)
      return R;
  return Result<std::string>::success(std::move(Payload));
}

} // namespace serve
} // namespace postr
