//===- tools/postr_serve.cpp - Resident solver daemon -----------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The postr-serve daemon: listens on a Unix socket, frames SMT-LIB
// requests (serve/Protocol.h), and dispatches them to the fault-tolerant
// worker pool of serve/Server.h. Workers are forked child processes by
// default (`<exe> --worker-child <in> <out>` re-exec), so a crashed,
// killed, or runaway worker is contained, quarantined, and respawned
// while the daemon keeps serving.
//
//   postr_serve --socket /tmp/postr.sock [--no-fork] [--print-stats]
//
// Configuration is environment-driven (POSTR_SERVE_*, docs/KNOBS.md).
// A client `shutdown` request or SIGINT/SIGTERM stops the daemon; with
// --print-stats the final counter JSON lands on stdout at exit.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "serve/Worker.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace postr;

namespace {

std::atomic<bool> GStop{false};
int GListenFd = -1;

void onStopSignal(int) {
  GStop.store(true);
  // Closing the listen fd unblocks accept(); async-signal-safe.
  if (GListenFd >= 0)
    ::close(GListenFd);
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--no-fork] [--print-stats]\n"
               "       (configuration via POSTR_SERVE_* env vars, see "
               "docs/KNOBS.md)\n",
               Argv0);
  return 64;
}

/// One client connection: a sequence of frames until EOF. `shutdown`
/// stops the whole daemon after the acknowledgement is written.
void serveConnection(int Fd, serve::Server &Server) {
  const uint64_t MaxBytes = Server.options().MaxRequestBytes;
  for (;;) {
    Result<std::string> Frame = serve::readFrame(Fd, MaxBytes);
    if (!Frame) {
      if (Frame.error() != "eof") {
        serve::Response R;
        R.S = serve::Response::Error;
        R.Message = Frame.error();
        serve::writeFrame(Fd, serve::encodeResponse(R));
      }
      break;
    }
    Result<serve::Request> Req = serve::decodeRequest(*Frame);
    serve::Response Resp;
    if (!Req) {
      Resp.S = serve::Response::Error;
      Resp.Message = Req.error();
      Resp.ExitCode = 1;
    } else {
      Resp = Server.submit(*Req);
    }
    if (!serve::writeFrame(Fd, serve::encodeResponse(Resp)))
      break;
    if (Req && Req->K == serve::Request::Shutdown) {
      GStop.store(true);
      if (GListenFd >= 0)
        ::shutdown(GListenFd, SHUT_RDWR);
      break;
    }
  }
  ::close(Fd);
}

} // namespace

int main(int Argc, char **Argv) {
  // Hidden re-exec entry for forked workers (see Server::spawnWorker).
  if (Argc >= 4 && std::strcmp(Argv[1], "--worker-child") == 0)
    return serve::workerChildMain(std::atoi(Argv[2]), std::atoi(Argv[3]),
                                  serve::serveOptionsFromEnv());

  std::string SocketPath;
  bool NoFork = false, PrintStats = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--socket" && I + 1 < Argc)
      SocketPath = Argv[++I];
    else if (A == "--no-fork")
      NoFork = true;
    else if (A == "--print-stats")
      PrintStats = true;
    else
      return usage(Argv[0]);
  }
  if (SocketPath.empty() || SocketPath.size() >= sizeof(sockaddr_un{}.sun_path))
    return usage(Argv[0]);

  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction SA = {};
  SA.sa_handler = onStopSignal;
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);

  serve::ServeOptions Opts = serve::serveOptionsFromEnv();
  Opts.ForkWorkers = !NoFork;
  serve::Server Server(Opts);

  // Close-on-exec sockets: forked workers re-exec and must hold no fd
  // but their own pipes.
  GListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (GListenFd < 0) {
    std::perror("socket");
    return 1;
  }
  ::unlink(SocketPath.c_str());
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);
  if (::bind(GListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(GListenFd, 64) < 0) {
    std::perror("bind/listen");
    return 1;
  }
  std::fprintf(stderr, "postr-serve: listening on %s (%u %s workers)\n",
               SocketPath.c_str(), Opts.Workers,
               Opts.ForkWorkers ? "forked" : "in-process");

  std::vector<std::thread> Conns;
  while (!GStop.load()) {
    int Fd = ::accept4(GListenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // listen fd closed (signal/shutdown) or fatal
    }
    Conns.emplace_back(serveConnection, Fd, std::ref(Server));
  }
  for (std::thread &T : Conns)
    T.join();
  ::unlink(SocketPath.c_str());
  if (PrintStats)
    std::printf("%s\n", Server.statsJson().c_str());
  return 0;
}
