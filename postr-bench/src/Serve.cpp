//===- postr-bench/src/Serve.cpp - serve-replay: the postr_serve daemon ---===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Starts the real postr_serve daemon (forked workers, Workers=2) on a
// Unix socket inside the checkout and drives it with two client
// connections through serve/Protocol.h framing, closed loop. Each
// client's log visits its half of the pool (see buildInputs) once (cold: a
// cache miss that a worker solves) and revisits queries it has already
// had answered (a whole-query cache hit), four revisits per cold query,
// so hits are four fifths of the requests: the p50 sits inside the hit
// mode and the p90 at the miss mode's median, where the misses lie
// densest. A client only revisits its own answered queries, so every
// revisit is a hit and the hit count repeats exactly.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "serve/Protocol.h"
#include "smtlib/Printer.h"
#include "smtlib/Reader.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace pbench;
using namespace postr;

namespace {

constexpr int Clients = 2;
constexpr uint32_t RevisitsPerCold = 4;

int connectTo(const std::string &Path, double WaitMs) {
  Clock::time_point T0 = Clock::now();
  for (;;) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    sockaddr_un Addr = {};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    ::close(Fd);
    if (msSince(T0) >= WaitMs)
      return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// One request/reply exchange. A transport or decode failure comes back
/// as an Error response.
serve::Response call(int Fd, const serve::Request &Req) {
  serve::Response Resp;
  Resp.S = serve::Response::Error;
  if (!serve::writeFrame(Fd, serve::encodeRequest(Req)))
    return Resp;
  Result<std::string> Frame =
      serve::readFrame(Fd, serve::DefaultMaxFrameBytes);
  if (!Frame)
    return Resp;
  Result<serve::Response> R = serve::decodeResponse(*Frame);
  return R ? *R : Resp;
}

/// A client connection, closed on destruction.
class Conn {
public:
  explicit Conn(const std::string &Sock) : Fd(connectTo(Sock, 10000)) {}
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  bool ok() const { return Fd >= 0; }
  serve::Response call(const serve::Request &Req) const {
    return ::call(Fd, Req);
  }

private:
  int Fd;
};

serve::Request request(serve::Request::Kind K, const std::string &Text = "") {
  serve::Request R;
  R.K = K;
  R.TimeoutMs = GenerousCapMs;
  R.Smt2 = Text;
  return R;
}

/// The postr_serve daemon as a child process; stopped (and waited for)
/// on destruction at the latest. A daemon exits within milliseconds of
/// a shutdown request, except when two of its workers were spawned at
/// the same moment: one can then inherit the other's pipe, and the
/// daemon waits for both forever. startDaemon spawns them one at a time;
/// should a daemon still hang, it is killed, and its workers, orphaned
/// to this process (a child subreaper, see runServe), end on their
/// closed pipes and are reaped here.
class Daemon {
  static constexpr double StopWaitMs = 2000;

public:
  Daemon(const std::string &Bin, const std::string &Sock) : Sock(Sock) {
    Pid = ::fork();
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM); // never outlive the benchmark
      ::dup2(2, 1);                       // keep the result stream clean
      ::setenv("POSTR_SERVE_WORKERS", "2", 1);
      ::execl(Bin.c_str(), Bin.c_str(), "--socket", Sock.c_str(),
              static_cast<char *>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool started() const { return Pid > 0; }
  const std::string &socket() const { return Sock; }

  /// Asks for a shutdown, then waits; a daemon that has not exited after
  /// StopWaitMs is killed.
  void stop() {
    if (Pid <= 0)
      return;
    {
      Conn C(Sock);
      if (C.ok())
        C.call(request(serve::Request::Shutdown));
    }
    int Status = 0;
    Clock::time_point T0 = Clock::now();
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (msSince(T0) > StopWaitMs) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Pid = -1;
    // Reap whatever the daemon left behind (see the class comment).
    T0 = Clock::now();
    while (::waitpid(-1, &Status, WNOHANG) >= 0 && msSince(T0) < 10000)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

private:
  std::string Sock;
  pid_t Pid = -1;
};

/// Per-client request logs (indices into the pool) for one replay pass;
/// see the file comment. The cold queries are dealt to the clients in
/// pairs of neighbours by recorded cost, a seeded coin deciding who gets
/// which, so both clients carry the same solving load whatever the seed.
std::vector<std::vector<size_t>> buildLogs(const std::vector<double> &Cost,
                                           uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<size_t> ByCost(Cost.size());
  for (size_t I = 0; I < ByCost.size(); ++I)
    ByCost[I] = I;
  std::sort(ByCost.begin(), ByCost.end(),
            [&](size_t A, size_t B) { return Cost[A] > Cost[B]; });
  static_assert(Clients == 2, "cold queries are dealt in pairs");
  std::vector<std::vector<size_t>> Cold(Clients);
  for (size_t I = 0; I < ByCost.size(); I += 2) {
    size_t First = Rng() % 2;
    Cold[First].push_back(ByCost[I]);
    if (I + 1 < ByCost.size())
      Cold[1 - First].push_back(ByCost[I + 1]);
  }
  std::vector<std::vector<size_t>> Logs(Clients);
  for (int C = 0; C < Clients; ++C) {
    std::shuffle(Cold[C].begin(), Cold[C].end(), Rng);
    // 1 = the client's next cold query, 0 = a revisit; a log opens cold.
    std::vector<char> Slots(Cold[C].size() * (1 + RevisitsPerCold), 0);
    std::fill_n(Slots.begin(), Cold[C].size(), 1);
    std::shuffle(Slots.begin() + 1, Slots.end(), Rng);
    size_t Next = 0;
    for (char IsCold : Slots)
      Logs[C].push_back(IsCold ? Cold[C][Next++] : Cold[C][Rng() % Next]);
  }
  return Logs;
}

struct Sample {
  size_t Query = 0; ///< index into the pool
  double Ms = 0;
  bool Hit = false;
  bool Decided = false;
  bool Failed = false;
};

struct Inputs {
  std::vector<Query> Pool;
  std::vector<std::vector<size_t>> Logs;
  double PassCostMs = 0; ///< recorded solve times of the pool
};

/// Client-side re-timing of the daemon's dispatcher work.
struct ClientLayers {
  double ParseMs = 0, PrintMs = 0;
};

void replayClient(const std::string &Sock, const Inputs &In,
                  const std::vector<size_t> &Log, bool Trace,
                  std::vector<Sample> &Out, ClientLayers &L) {
  Conn C(Sock);
  for (size_t Index : Log) {
    const Query &Q = In.Pool[Index];
    if (Trace) {
      // The daemon parses and prints every request (the print is the
      // cache key) before its cache lookup.
      Clock::time_point T0 = Clock::now();
      Result<strings::Problem> P = smtlib::parseString(Q.Text);
      L.ParseMs += msSince(T0);
      T0 = Clock::now();
      if (P)
        smtlib::printProblem(*P);
      L.PrintMs += msSince(T0);
    }
    serve::Request Req = request(serve::Request::Solve, Q.Text);
    Req.Id = Q.Label;
    Sample S;
    S.Query = Index;
    Clock::time_point T0 = Clock::now();
    serve::Response R = C.ok() ? C.call(Req) : serve::Response{};
    S.Ms = msSince(T0);
    S.Hit = R.Cache == "hit";
    S.Decided = R.Verdict == "sat" || R.Verdict == "unsat";
    std::string Want = Q.Expected == Verdict::Sat ? "sat" : "unsat";
    if (!C.ok() || R.S != serve::Response::Ok || R.Verdict != Want) {
      S.Failed = true;
      std::fprintf(stderr, "postr-bench: %s: status %d verdict '%s' %s\n",
                   Q.Label.c_str(), static_cast<int>(R.S), R.Verdict.c_str(),
                   R.Message.c_str());
    }
    Out.push_back(S);
  }
}

/// One replay of every client's log, concurrently. Returns its wall in
/// seconds.
double replay(const std::string &Sock, const Inputs &In, bool Trace,
              std::vector<Sample> &Out, ClientLayers &L) {
  std::vector<std::vector<Sample>> Per(Clients);
  std::vector<ClientLayers> PerL(Clients);
  Clock::time_point T0 = Clock::now();
  {
    std::vector<std::thread> Threads;
    for (int C = 0; C < Clients; ++C)
      Threads.emplace_back(replayClient, std::cref(Sock), std::cref(In),
                           std::cref(In.Logs[C]), Trace, std::ref(Per[C]),
                           std::ref(PerL[C]));
    for (std::thread &T : Threads)
      T.join();
  }
  double WallS = msSince(T0) / 1000.0;
  for (int C = 0; C < Clients; ++C) {
    Out.insert(Out.end(), Per[C].begin(), Per[C].end());
    L.ParseMs += PerL[C].ParseMs;
    L.PrintMs += PerL[C].PrintMs;
  }
  return WallS;
}

/// Starts a daemon and warms it up outside the measured pool: one
/// connection pings and solves a fixed query, which spawns the first
/// worker; then every connection solves one at once, which spawns the
/// second while the first is busy (workers spawn lazily, and never two
/// at the same moment this way). Null when the daemon cannot be reached.
std::unique_ptr<Daemon> startDaemon(const RunArgs &A, int Generation) {
  std::string Sock = ".bench_build/serve-" + std::to_string(::getpid()) +
                     "-" + std::to_string(Generation) + ".sock";
  auto D = std::make_unique<Daemon>(A.ServeBin, Sock);
  if (!D->started())
    return nullptr;
  auto Solve = [](const Conn &C, const char *Text) {
    return C.call(request(serve::Request::Solve, Text)).S ==
           serve::Response::Ok;
  };
  {
    Conn First(Sock);
    if (!First.ok() ||
        First.call(request(serve::Request::Ping)).S != serve::Response::Ok ||
        !Solve(First, WarmUpQueries[0]))
      return nullptr;
  }
  std::vector<std::thread> Threads;
  bool Ok[Clients] = {};
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      Conn Client(Sock);
      Ok[C] = Client.ok() && Solve(Client, WarmUpQueries[C]);
    });
  for (std::thread &T : Threads)
    T.join();
  for (bool B : Ok)
    if (!B)
      return nullptr;
  return D;
}

/// The pool is solve-mix's fast mode, the queries recorded as decided in
/// under SlowMs. Its slow mode would be under 3% of the requests here
/// (one cold visit against four revisits), all beyond p90, so it would
/// move neither percentile; left out, it no longer takes nine tenths of
/// a pass, and a run makes about five times as many passes. A pass
/// takes about the pool's recorded single-threaded time, although two
/// workers share it: each pass starts fresh workers, and their first
/// solves run cold.
Inputs buildInputs(const RunArgs &A, uint64_t Pass) {
  Inputs In;
  std::vector<Recorded> All = readRecorded(A.Instances);
  std::vector<Query> Mix = recordedQueries(All, "solve-mix");
  std::vector<double> Cost;
  size_t I = 0;
  for (const Recorded &R : All) {
    if (R.Workload != "solve-mix")
      continue;
    if (R.DefineMs < SlowMs) {
      In.Pool.push_back(Mix[I]);
      Cost.push_back(R.DefineMs);
      In.PassCostMs += R.DefineMs;
    }
    ++I;
  }
  In.Logs = buildLogs(Cost, A.Seed * 1000003ull + Pass);
  return In;
}

/// The value of `"Key": N` in the daemon's stats JSON (keys are unique).
double statsField(const std::string &Json, const std::string &Key) {
  size_t At = Json.find("\"" + Key + "\": ");
  return At == std::string::npos
             ? -1
             : std::strtod(Json.c_str() + At + Key.size() + 4, nullptr);
}

std::string count(size_t N) { return "n=" + std::to_string(N); }

} // namespace

int pbench::runServe(const RunArgs &A) {
  std::signal(SIGPIPE, SIG_IGN);
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  // A set-up builds the pass's inputs and starts a fresh daemon. Besides
  // the one each pass needs, set-up is timed before the measurement and
  // again after it; setup_s is the median.
  std::vector<double> SetupS;
  int Generation = 0;
  Inputs In;
  std::unique_ptr<Daemon> D;
  auto TimedSetUp = [&](uint64_t Pass) {
    if (D)
      D->stop();
    Clock::time_point T0 = Clock::now();
    In = buildInputs(A, Pass);
    D = startDaemon(A, Generation++);
    SetupS.push_back(msSince(T0) / 1000.0);
    if (!D)
      std::fprintf(stderr, "postr-bench: cannot start %s\n",
                   A.ServeBin.c_str());
    return D != nullptr;
  };
  for (int I = 0; I < SetupsBefore; ++I)
    if (!TimedSetUp(0))
      return 1;

  // Untraced replays, each on a fresh daemon (a cold cache): as many as
  // --seconds buy at the recorded solve times (see passesFor); a traced
  // run makes one, its overhead baseline.
  std::vector<Sample> Samples;
  ClientLayers NoLayers;
  double WallS = 0;
  const int Passes = A.Trace ? 1 : passesFor(A.Seconds, In.PassCostMs);
  for (int Pass = 0; Pass < Passes; ++Pass) {
    if (Pass > 0 && !TimedSetUp(static_cast<uint64_t>(Pass)))
      return 1;
    WallS += replay(D->socket(), In, false, Samples, NoLayers);
  }

  // A key is a query in one cache state: its hits and its misses are
  // timed apart.
  std::vector<double> Ms;
  std::vector<size_t> Keys;
  uint64_t Failed = 0, Decided = 0, Hits = 0;
  for (const Sample &S : Samples) {
    Ms.push_back(S.Ms);
    Keys.push_back(2 * S.Query + (S.Hit ? 1 : 0));
    Failed += S.Failed;
    Decided += S.Decided;
    Hits += S.Hit;
  }
  const double N = static_cast<double>(Samples.size());
  Report Rep;
  Rep.note("serve-replay: " + std::to_string(In.Pool.size()) +
           " distinct queries, " + count(Samples.size()) + " requests over " +
           std::to_string(Clients) + " connections, cap " +
           std::to_string(GenerousCapMs) + " ms, hit share " +
           std::to_string(Hits / N));
  Rep.note("failed_share " + std::to_string(Failed / N) +
           " ratio; decided_share " + std::to_string(Decided / N) +
           " ratio; overrun_p50_ms n/a (no capped queries)");

  if (!A.Trace) {
    for (int I = 0; I < SetupsAfter; ++I)
      if (!TimedSetUp(0))
        return 1;
    D->stop();
    Rep.add("setup_s", percentile(SetupS, 0.5), "s",
            "median of " + std::to_string(SetupS.size()) +
                " set-ups (inputs, daemon start, warm-up)");
    Rep.addLatencies(Ms, Keys, Clients, WallS);
    Rep.add("peak_rss_mb", peakRssMiB(true), "MiB",
            "daemon and its workers");
    Rep.print(Failed == 0, Samples.size(), Failed);
    return 0;
  }

  // Traced run: the same log once more on a fresh daemon, with the
  // dispatcher's parse and print re-timed on the client side, then the
  // protocol alone (pings) and the daemon's own counters.
  double BaseMs = 0;
  for (double T : Ms)
    BaseMs += T;
  if (!TimedSetUp(0))
    return 1;
  std::vector<Sample> Traced;
  ClientLayers L;
  replay(D->socket(), In, true, Traced, L);
  std::vector<double> HitMs, MissMs, PingMs;
  double PathMs = 0;
  uint64_t TracedFailed = 0;
  for (const Sample &S : Traced) {
    (S.Hit ? HitMs : MissMs).push_back(S.Ms);
    PathMs += S.Ms;
    TracedFailed += S.Failed;
  }
  std::string Stats;
  {
    Conn C(D->socket());
    for (int I = 0; I < 64 && C.ok(); ++I) {
      Clock::time_point T0 = Clock::now();
      C.call(request(serve::Request::Ping));
      PingMs.push_back(msSince(T0));
    }
    if (C.ok())
      Stats = C.call(request(serve::Request::Stats)).Body;
  }
  D->stop();

  Rep.note("trace overhead: traced replay " + std::to_string(PathMs) +
           " ms vs untraced " + std::to_string(BaseMs) + " ms (" +
           count(HitMs.size()) + " hits, " + count(MissMs.size()) +
           " misses)");
  Rep.addLayers({
      {"smtlib.parse_ms", L.ParseMs},
      {"smtlib.print_ms", L.PrintMs},
      {"serve.ping_rtt_ms", percentile(PingMs, 0.5)},
      {"serve.hit_p50_ms", percentile(HitMs, 0.5)},
      {"serve.miss_p50_ms", percentile(MissMs, 0.5)},
      {"serve.hit_rate",
       static_cast<double>(HitMs.size()) / static_cast<double>(Traced.size())},
      {"serve.cache_entries", statsField(Stats, "entries")},
      {"serve.cache_bytes", statsField(Stats, "bytes")},
      {"serve.evictions", statsField(Stats, "evictions")},
      {"serve.quarantines", statsField(Stats, "quarantines")},
      {"serve.worker_kills", statsField(Stats, "worker_kills")},
      {"serve.shed", statsField(Stats, "shed")},
      {"decided_share", Decided / N},
      {"trace.overhead_pct", BaseMs > 0 ? (PathMs / BaseMs - 1) * 100 : 0},
  });
  Rep.print(Failed + TracedFailed == 0, Samples.size() + Traced.size(),
            Failed + TracedFailed);
  return 0;
}
