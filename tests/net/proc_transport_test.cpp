// Lifecycle tests for the proc backend: bounded receives, real-signal
// fault injection (SIGKILL / SIGSTOP on forked workers), the supervisor's
// crash-vs-hang taxonomy, respawn with backoff, and degraded-mode
// fallback when a rank is finally dead.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "casvm/net/comm.hpp"
#include "casvm/net/proc_transport.hpp"
#include "casvm/net/supervisor.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/posix.hpp"

namespace casvm::net {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Engine preconfigured for the proc backend with fast-failure tuning so
/// the chaos tests stay quick.
Engine procEngine(int size, TransportTuning tuning = {}) {
  Engine engine(size);
  engine.setTransport(TransportKind::Proc, tuning);
  return engine;
}

TEST(ProcTransportTest, RecvFromSilentPeerTimesOutWithNamedError) {
  TransportTuning tuning;
  tuning.commTimeoutMs = 300;
  Engine engine = procEngine(2, tuning);
  try {
    engine.run([](Comm& comm) {
      if (comm.rank() == 0) comm.recv<double>(1, 5);  // never sent
    });
    FAIL() << "expected a comm timeout";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("comm timeout"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("supervisor log"), std::string::npos) << what;
  }
}

TEST(ProcTransportTest, ResultLengthNearU64MaxIsNeverAFrame) {
  // `header + length` must not wrap into "the frame is complete" and copy
  // far past the pipe buffer: the worker exits without a result instead.
  ProcTransport transport(1, TransportTuning{});
  Supervisor::Options opts;
  opts.logPath = testing::TempDir() + "casvm_hostile_frame.log";
  Supervisor supervisor(transport, opts);
  const auto outcomes = supervisor.run([](int, int, int fd) {
    support::ByteWriter w;
    w.scalar('R');
    w.scalar(~std::uint64_t{0} - 3);
    w.pad(16);
    const std::vector<std::byte> bytes = w.take();
    support::writeFull(fd, bytes.data(), bytes.size());
  });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].resolved);
  EXPECT_NE(outcomes[0].deathReason.find("without a result"),
            std::string::npos)
      << outcomes[0].deathReason;
}

TEST(ProcTransportTest, KilledWorkerIsClassifiedAsCrash) {
  FaultPlan plan = FaultPlan::parse("kill:rank=1,op=1");
  TransportTuning tuning;
  tuning.commTimeoutMs = 10000;
  Engine engine = procEngine(2, tuning);
  engine.setFaultPlan(plan);
  const std::string logPath =
      testing::TempDir() + "casvm_kill_taxonomy.log";
  std::remove(logPath.c_str());
  engine.setSupervisorLogPath(logPath);
  try {
    engine.run([](Comm& comm) {
      if (comm.rank() == 1) {
        comm.send(0, 7.0);  // op 1: SIGKILL fires here
      } else {
        comm.recv<double>(1);  // woken by the abort, not the timeout
      }
    });
    FAIL() << "expected the run to fail";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("killed by signal 9"), std::string::npos) << what;
  }
  const std::string log = slurp(logPath);
  EXPECT_NE(log.find("crash (killed by signal 9)"), std::string::npos) << log;
  EXPECT_NE(log.find("aborting the whole run"), std::string::npos) << log;
}

TEST(ProcTransportTest, StoppedWorkerIsClassifiedAsHangAndKilled) {
  FaultPlan plan = FaultPlan::parse("hang:rank=1,op=1");
  TransportTuning tuning;
  tuning.heartbeatMs = 10;  // staleAfterMs() floors at 500ms
  tuning.commTimeoutMs = 10000;
  Engine engine = procEngine(2, tuning);
  engine.setFaultPlan(plan);
  const std::string logPath = testing::TempDir() + "casvm_hang_taxonomy.log";
  std::remove(logPath.c_str());
  engine.setSupervisorLogPath(logPath);
  try {
    engine.run([](Comm& comm) {
      if (comm.rank() == 1) {
        comm.send(0, 7.0);  // op 1: SIGSTOP fires here
      } else {
        comm.recv<double>(1);
      }
    });
    FAIL() << "expected the run to fail";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hang (heartbeat stale"), std::string::npos) << what;
    EXPECT_NE(what.find("SIGKILLed"), std::string::npos) << what;
  }
  const std::string log = slurp(logPath);
  EXPECT_NE(log.find("taxonomy: hang"), std::string::npos) << log;
}

TEST(ProcTransportTest, KilledWorkerRespawnsAndRunRecovers) {
  FaultPlan plan = FaultPlan::parse("kill:rank=1,op=1");
  TransportTuning tuning;
  tuning.commTimeoutMs = 20000;
  tuning.respawnBackoffMs = 10;
  Engine engine = procEngine(2, tuning);
  engine.setFaultPlan(plan);
  engine.setRespawnBudget(2);
  // The respawned incarnation runs this instead of the original body; the
  // fault plan is not re-armed, so the send goes through.
  engine.setRespawnFn(
      [](Comm& comm, int attempt) { comm.send(0, 100.0 + attempt); });
  const std::string logPath = testing::TempDir() + "casvm_respawn.log";
  std::remove(logPath.c_str());
  engine.setSupervisorLogPath(logPath);

  // Ship rank 0's received value back through the result channel (the
  // value lives in the worker process's memory).
  std::vector<double> got(2, 0.0);
  Engine::ResultChannel channel;
  channel.serialize = [&](int rank) {
    std::vector<std::byte> out(sizeof(double));
    std::memcpy(out.data(), &got[static_cast<std::size_t>(rank)],
                sizeof(double));
    return out;
  };
  channel.absorb = [&](int rank, const std::vector<std::byte>& bytes) {
    ASSERT_EQ(bytes.size(), sizeof(double));
    std::memcpy(&got[static_cast<std::size_t>(rank)], bytes.data(),
                sizeof(double));
  };
  engine.setResultChannel(std::move(channel));

  const RunStats stats = engine.run([&](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send(0, 7.0);  // SIGKILLed before this lands
    } else {
      got[0] = comm.recv<double>(1);  // satisfied by the respawn
    }
  });
  // run() returning at all proves the respawn resolved rank 1; the value
  // proves rank 0's blocked recv was satisfied by the second incarnation.
  EXPECT_TRUE(stats.failures.empty());
  EXPECT_EQ(got[0], 101.0);  // attempt 1, not the original 7.0
  const std::string log = slurp(logPath);
  EXPECT_NE(log.find("scheduling respawn attempt 1"), std::string::npos)
      << log;
  EXPECT_NE(log.find("attempt 1"), std::string::npos) << log;
}

TEST(ProcTransportTest, FinalDeathDegradesWhenTolerated) {
  FaultPlan plan = FaultPlan::parse("kill:rank=1,op=1");
  TransportTuning tuning;
  tuning.commTimeoutMs = 10000;
  Engine engine = procEngine(2, tuning);
  engine.setFaultPlan(plan);
  engine.setTolerateRankFailures(true);  // no respawn fn: death is final
  const RunStats stats = engine.run([](Comm& comm) {
    if (comm.rank() == 1) comm.send(0, 7.0);
    // rank 0 does not depend on rank 1 — communication-avoiding shape.
  });
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_EQ(stats.failures[0].rank, 1);
  EXPECT_NE(stats.failures[0].reason.find("killed by signal 9"),
            std::string::npos)
      << stats.failures[0].reason;
  EXPECT_TRUE(stats.degraded());
}

TEST(ProcTransportTest, RunStatsCarryCrossProcessTrafficAndClocks) {
  Engine engine = procEngine(2);
  const RunStats stats = engine.run([](Comm& comm) {
    for (int i = 0; i < 3; ++i) comm.allreduceSum(1.0);
  });
  EXPECT_GT(stats.traffic.totalBytes(), 0u);
  EXPECT_GT(stats.traffic.totalOps(), 0u);
  // Virtual clocks crossed the process boundary via result frames.
  EXPECT_GT(stats.commSeconds.at(0) + stats.commSeconds.at(1), 0.0);
}

TEST(ProcTransportTest, HostileTuningIsRejectedAtConfigurationTime) {
  Engine engine(2);
  TransportTuning zeroTimeout;
  zeroTimeout.commTimeoutMs = 0;
  EXPECT_THROW(engine.setTransport(TransportKind::Proc, zeroTimeout), Error);
  TransportTuning negativeBeat;
  negativeBeat.heartbeatMs = -5;
  EXPECT_THROW(engine.setTransport(TransportKind::Proc, negativeBeat), Error);
  TransportTuning hugeBackoff;
  hugeBackoff.respawnBackoffMs = 1 << 30;
  EXPECT_THROW(engine.setTransport(TransportKind::Proc, hugeBackoff), Error);
}

TEST(ProcTransportTest, ThreadBackendRejectsKillAndHangPlans) {
  Engine engine(2);  // default thread backend
  engine.setFaultPlan(FaultPlan::parse("hang:rank=0,op=1"));
  try {
    engine.run([](Comm&) {});
    FAIL() << "expected the thread backend to reject the plan";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--transport proc"), std::string::npos) << what;
    EXPECT_NE(what.find("hang:rank=0,op=1"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace casvm::net
