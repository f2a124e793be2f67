#pragma once

/// \file supervisor.hpp
/// Worker-process lifecycle for the proc transport.
///
/// The Supervisor forks one worker per rank and then watches three
/// signals until every rank is resolved:
///
///   - the per-worker result pipe: each worker writes exactly one
///     length-prefixed result frame (run finished / tolerated crash /
///     fatal error) before exiting — receiving it marks the rank
///     resolved;
///   - waitpid: a worker that dies before its frame is an unresolved
///     death, classified as a *crash* (WIFSIGNALED / nonzero exit);
///   - heartbeats: a live worker whose shared-memory heartbeat goes stale
///     past TransportTuning::staleAfterMs() is classified as a *hang*,
///     SIGKILLed, and then handled like any other death.
///
/// An unresolved death inside the respawn budget triggers a respawn with
/// exponential backoff (TransportTuning::backoffForAttemptMs): inbound
/// rings are cleared and the child runs the caller's respawn entry
/// instead of the original function. Past the budget the rank is finally
/// dead: with failure tolerance it is marked failed on the transport
/// (peers degrade, run continues), otherwise the whole run is aborted.
///
/// Every lifecycle event (spawn, frame, death taxonomy, respawn,
/// fallback) is appended to the supervisor log.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "casvm/net/transport.hpp"

namespace casvm::net {

class ProcTransport;

class Supervisor {
 public:
  struct Options {
    TransportTuning tuning;
    /// Respawns allowed per rank (0 = never respawn).
    int respawnBudget = 0;
    /// False when no respawn entry exists (then every death is final).
    bool allowRespawn = false;
    /// Mark finally dead ranks failed instead of aborting the run.
    bool tolerateFailures = false;
    /// Lifecycle log destination; empty = stderr.
    std::string logPath;
  };

  /// One length-prefixed message from a worker's result pipe.
  struct Frame {
    char type = 0;  ///< 'R' finished, 'C' tolerated crash, 'E' fatal error
    std::vector<std::byte> payload;
  };

  /// What a worker reports in its result frame. The frame payload is
  /// [error string] unless type is 'R', then [compute, comm, wait seconds
  /// as f64][board bytes][trace shard bytes] unless type is 'E'.
  struct Result {
    char type = 'R';  ///< as Frame::type
    std::string error;
    double computeSeconds = 0.0;
    double commSeconds = 0.0;
    double waitSeconds = 0.0;
    std::vector<std::byte> board;  ///< Engine::ResultChannel bytes
    std::vector<std::byte> shard;  ///< obs::TraceRecorder::encodeShard()
  };

  /// The complete [type u8][length u64][payload] frame for `result`.
  static std::vector<std::byte> encodeResult(const Result& result);
  /// Parse a received frame; throws casvm::Error on an unknown type or a
  /// malformed payload (the bytes crossed a process boundary).
  static Result decodeResult(const Frame& frame);

  struct RankOutcome {
    bool resolved = false;  ///< a result frame arrived
    int attempts = 0;       ///< respawns used
    bool sawHang = false;   ///< ever killed for a stale heartbeat
    Frame frame;            ///< valid when resolved
    std::string deathReason;  ///< set when finally dead without a frame
  };

  /// Worker body, run in the forked child. `attempt` is 0 for the first
  /// incarnation and the 1-based respawn count afterwards. Must write one
  /// result frame to `resultFd`; the supervisor _exit()s the child when
  /// it returns (or escapes with an exception).
  using ChildMain = std::function<void(int rank, int attempt, int resultFd)>;

  Supervisor(ProcTransport& transport, Options opts);
  ~Supervisor();

  /// Fork and supervise one worker per rank; returns when every rank is
  /// resolved or finally dead. Must be called from a single-threaded
  /// process (fork safety).
  std::vector<RankOutcome> run(const ChildMain& child);

 private:
  struct Worker;

  void log(const std::string& line);
  void spawn(const ChildMain& child, int rank, int attempt);
  void drainPipe(Worker& w);
  void handleDeath(Worker& w, int status);

  ProcTransport& transport_;
  Options opts_;
  std::vector<Worker> workers_;
  void* logFile_ = nullptr;  // std::FILE*, kept opaque here
};

}  // namespace casvm::net
