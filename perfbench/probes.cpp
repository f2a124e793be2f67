// Per-layer probes for traced runs. Each one calls a public casvm entry
// point at the workload's own shape, inside a span named after the layer.

#include <algorithm>
#include <cstring>
#include <sstream>

#include "bench.hpp"
#include "casvm/cluster/balanced_kmeans.hpp"
#include "casvm/kernel/row_source.hpp"
#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/net/comm.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/solver/smo.hpp"

namespace perfbench {
namespace {

namespace net = casvm::net;
using casvm::data::Dataset;

// Repeat `body` until `budget` seconds have passed (at least once); returns
// the calls made and the seconds they took.
template <class F>
std::pair<std::size_t, double> repeatFor(double budget, F&& body) {
  const auto start = Clock::now();
  std::size_t calls = 0;
  double secs = 0.0;
  do {
    for (int k = 0; k < 8; ++k) body(calls++);
    secs = secondsBetween(start, Clock::now());
  } while (secs < budget);
  return {calls, secs};
}

double tileGflops(const Dataset& ds, double budget, Tracer& tracer) {
  namespace tile = casvm::kernel::tile;
  std::vector<float> tiles;
  tile::pack(ds, tiles);
  const tile::DotFn dot = tile::dotFn();
  const std::size_t m = ds.rows();
  const std::size_t n = ds.cols();
  std::vector<double> out(tile::blockCount(m) * tile::kRows);
  std::vector<float> row(n);
  std::vector<std::vector<double>> queries;
  for (std::size_t i = 0; i < std::min<std::size_t>(m, 64); ++i) {
    ds.copyRowDense(i, row);
    queries.emplace_back(row.begin(), row.end());
  }
  Tracer::Scope span(tracer, "kernel.tile_dot");
  const auto [calls, secs] = repeatFor(budget, [&](std::size_t c) {
    dot(tiles.data(), queries[c % queries.size()].data(), m, n, out.data());
  });
  span.close();
  return 2.0 * static_cast<double>(m * n) * static_cast<double>(calls) /
         secs / 1e9;
}

// One Engine::run over `procs` ranks on `kind`. Rank 0's `slots` doubles
// are its result; under the proc transport they cross back through the
// engine's result channel.
std::vector<double> runOnRanks(net::TransportKind kind, int procs,
                               std::size_t slots,
                               const std::function<void(net::Comm&,
                                                        std::vector<double>&)>&
                                   body) {
  net::Engine engine(procs);
  engine.setTransport(kind);
  std::vector<double> result(slots, 0.0);
  engine.setResultChannel(
      {[&](int rank) {
         std::vector<std::byte> bytes;
         if (rank == 0) {
           bytes.resize(result.size() * sizeof(double));
           std::memcpy(bytes.data(), result.data(), bytes.size());
         }
         return bytes;
       },
       [&](int rank, const std::vector<std::byte>& bytes) {
         if (rank == 0 && bytes.size() == result.size() * sizeof(double)) {
           std::memcpy(result.data(), bytes.data(), bytes.size());
         }
       }});
  engine.run([&](net::Comm& comm) { body(comm, result); });
  return result;
}

struct SweepPoint {
  std::size_t bytes = 0;
  double pingpongUs = 0.0;  ///< half a round trip
  double streamMbps = 0.0;  ///< one-way, back-to-back messages
};

// Ping-pong and streaming between two ranks at message sizes 16 B..1 MiB.
std::vector<SweepPoint> netSweep(net::TransportKind kind, bool tiny) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 16; s <= (1u << 20); s *= 4) sizes.push_back(s);
  const auto reps = [&](std::size_t s) -> int {
    const std::size_t cap = tiny ? 20 : (s <= 4096 ? 400 : 100);
    return static_cast<int>(
        std::clamp<std::size_t>((32u << 20) / s, 4, cap));
  };
  const std::vector<double> r = runOnRanks(
      kind, 2, 2 * sizes.size(), [&](net::Comm& comm, std::vector<double>& out) {
        const bool root = comm.rank() == 0;
        const std::byte ack[1] = {};
        for (std::size_t k = 0; k < sizes.size(); ++k) {
          const std::vector<std::byte> buf(sizes[k]);
          const int n = reps(sizes[k]);
          const auto pingpong = [&](int count) {
            for (int i = 0; i < count; ++i) {
              if (root) {
                comm.sendBytes(1, 1, buf.data(), buf.size());
                comm.recvBytes(1, 1);
              } else {
                comm.recvBytes(0, 1);
                comm.sendBytes(0, 1, buf.data(), buf.size());
              }
            }
          };
          pingpong(4);
          comm.barrier();
          auto t0 = Clock::now();
          pingpong(n);
          if (root) out[2 * k] = secondsBetween(t0, Clock::now()) / n / 2 * 1e6;
          comm.barrier();
          t0 = Clock::now();
          for (int i = 0; i < n; ++i) {
            if (root) {
              comm.sendBytes(1, 2, buf.data(), buf.size());
            } else {
              comm.recvBytes(0, 2);
            }
          }
          if (root) {
            comm.recvBytes(1, 3);
            out[2 * k + 1] = static_cast<double>(sizes[k]) * n /
                             secondsBetween(t0, Clock::now()) / 1e6;
          } else {
            comm.sendBytes(0, 3, ack, sizeof ack);
          }
        }
      });
  std::vector<SweepPoint> points;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    points.push_back({sizes[k], r[2 * k], r[2 * k + 1]});
  }
  return points;
}

void probeNet(bool tiny, Tracer& tracer, Metrics& metrics,
              std::string& sweepJson) {
  std::ostringstream json;
  json << "[";
  bool first = true;
  for (const auto& [kind, label] :
       {std::pair{net::TransportKind::Thread, "thread"},
        std::pair{net::TransportKind::Proc, "proc"}}) {
    std::vector<SweepPoint> points;
    {
      Tracer::Scope span(tracer, "net.sweep");
      points = netSweep(kind, tiny);
    }
    for (const SweepPoint& p : points) {
      json << (first ? "" : ",") << "{\"transport\":\"" << label
           << "\",\"bytes\":" << p.bytes
           << ",\"pingpong_us\":" << p.pingpongUs
           << ",\"stream_mbps\":" << p.streamMbps << "}";
      first = false;
      if (p.bytes == 16) {
        metrics.set(std::string("net.pingpong_us.") + label, p.pingpongUs,
                    "us");
      }
      if (p.bytes == (1u << 20)) {
        metrics.set(std::string("net.stream_mbps.") + label, p.streamMbps,
                    "MB/s");
      }
    }
  }
  json << "]";
  sweepJson = json.str();

  // Worker start-up and teardown of an empty proc run at P=3.
  std::vector<double> spawns;
  for (int k = 0; k < 3; ++k) {
    Tracer::Scope span(tracer, "net.spawn", k);
    runOnRanks(net::TransportKind::Proc, 3, 0,
               [](net::Comm&, std::vector<double>&) {});
    spawns.push_back(span.close() * 1e3);
  }
  metrics.set("net.spawn_ms.proc", median(spawns), "ms");

  // Dis-SMO's per-iteration collectives at P=3 over processes: the
  // (value, index) allreduce that elects a working pair and the broadcast
  // of a 22-double kernel row (ijcnn's width).
  const int ops = tiny ? 20 : 500;
  Tracer::Scope span(tracer, "net.collectives");
  const std::vector<double> c = runOnRanks(
      net::TransportKind::Proc, 3, 2,
      [&](net::Comm& comm, std::vector<double>& out) {
        const double v = static_cast<double>(comm.rank());
        for (int i = 0; i < 10; ++i) comm.allreduceMaxloc(v, comm.rank());
        comm.barrier();
        auto t0 = Clock::now();
        for (int i = 0; i < ops; ++i) comm.allreduceMaxloc(v + i, comm.rank());
        out[0] = secondsBetween(t0, Clock::now()) / ops * 1e6;
        std::vector<double> row(22, 1.0);
        comm.barrier();
        t0 = Clock::now();
        for (int i = 0; i < ops; ++i) comm.bcast(row, 0);
        out[1] = secondsBetween(t0, Clock::now()) / ops * 1e6;
      });
  span.close();
  metrics.set("net.allreduce_us.proc", c[0], "us");
  metrics.set("net.bcast_row_us.proc", c[1], "us");
}

}  // namespace

void probeLayers(const ProbeInputs& in, Tracer& tracer, Metrics& metrics,
                 Tally& tally, std::string& sweepJson) {
  const Dataset& train = in.data->train;
  const casvm::core::TrainConfig& cfg = *in.config;
  const casvm::core::TrainResult& trained = *in.trained;
  const double budget = in.tiny ? 0.02 : 0.3;

  // cluster: the BKM-CA partitioner on the workload's training set.
  casvm::cluster::BalancedKMeansOptions kopt;
  kopt.parts = cfg.processes;
  kopt.ratioBalanced = cfg.ratioBalance;
  kopt.maxKmeansLoops = cfg.kmeansMaxLoops;
  kopt.kmeansChangeThreshold = cfg.kmeansChangeThreshold;
  kopt.seed = cfg.seed;
  Tracer::Scope partSpan(tracer, "cluster.balanced_kmeans");
  const casvm::cluster::BalancedKMeansResult parts =
      casvm::cluster::balancedKmeans(train, kopt);
  metrics.set("cluster.partition_s", partSpan.close(), "s");
  metrics.set("cluster.kmeans_loops", static_cast<double>(parts.kmeansLoops),
              "count");
  const Dataset part = train.subset(parts.partition.groups().front());

  // kernel tile micro-kernel: the rank's rows, or the served SV pack.
  std::size_t largest = 0;
  for (std::size_t i = 1; i < trained.model.numModels(); ++i) {
    if (trained.model.model(i).numSupportVectors() >
        trained.model.model(largest).numSupportVectors()) {
      largest = i;
    }
  }
  const Dataset& tileShape =
      in.serveShape ? trained.model.model(largest).supportVectors() : part;
  metrics.set("kernel.tile_gflops", tileGflops(tileShape, budget, tracer),
              "GFLOP/s");

  // kernel rows: full exact row fills over the rank's rows.
  {
    const casvm::kernel::Kernel kernel(cfg.solver.kernel);
    casvm::kernel::ExactRowSource source(kernel, part);
    std::vector<double> row(part.rows());
    Tracer::Scope span(tracer, "kernel.fill_row");
    const auto [calls, secs] = repeatFor(budget, [&](std::size_t c) {
      source.fillRow(c % part.rows(), row);
    });
    span.close();
    metrics.set("kernel.row_fill_us", secs / calls * 1e6, "us");
  }

  // solver: one rank-sized SMO solve with the workload's options.
  {
    const casvm::solver::SmoSolver solver(cfg.solver);
    Tracer::Scope span(tracer, "solver.solve");
    const casvm::solver::SolverResult r = solver.solve(part);
    const double secs = span.close();
    tally.check(r.converged, "rank-sized SMO solve did not converge");
    const double fills =
        static_cast<double>(r.kernelRowHits + r.kernelRowsComputed);
    metrics.set("solver.iterations", static_cast<double>(r.iterations),
                "count");
    metrics.set("solver.us_per_iter",
                secs / static_cast<double>(std::max<std::size_t>(
                           r.iterations, 1)) * 1e6,
                "us");
    metrics.set("kernel.rows_computed",
                static_cast<double>(r.kernelRowsComputed), "count");
    metrics.set("kernel.cache_hit_rate",
                fills > 0 ? static_cast<double>(r.kernelRowHits) / fills : 0.0,
                "fraction");
  }

  // net: transport sweep, proc spawn, Dis-SMO's collectives.
  probeNet(in.tiny, tracer, metrics, sweepJson);

  // core: the workload's own train (untraced), wall against modelled time.
  const casvm::net::RunStats& rs = trained.runStats;
  metrics.set("net.messages", static_cast<double>(rs.traffic.totalOps()),
              "count");
  metrics.set("net.bytes", static_cast<double>(rs.traffic.totalBytes()), "B");
  const double virt = rs.virtualSeconds();
  double maxWait = 0.0;
  for (double wsec : rs.waitSeconds) maxWait = std::max(maxWait, wsec);
  metrics.set("core.virtual_s", virt, "s_modelled");
  metrics.set("core.virtual_comm_s", rs.maxCommSeconds(), "s_modelled");
  metrics.set("core.virtual_wait_s", maxWait, "s_modelled");
  metrics.set("core.unmodeled_s", trained.wallSeconds - virt, "s");
  metrics.set("core.critical_iterations",
              static_cast<double>(trained.criticalIterations), "count");

  // obs: the same train with and without a TraceRecorder, back to back.
  {
    const std::vector<std::byte> expect = trained.model.pack();
    casvm::obs::TraceRecorder recorder;
    casvm::core::TrainConfig traced = cfg;
    traced.trace = &recorder;
    Tracer::Scope plainSpan(tracer, "core.train_plain");
    const casvm::core::TrainResult plain = casvm::core::train(train, cfg);
    const double plainSecs = plainSpan.close();
    Tracer::Scope tracedSpan(tracer, "core.train_obs_traced");
    const casvm::core::TrainResult withTrace = casvm::core::train(train, traced);
    const double tracedSecs = tracedSpan.close();
    tally.check(plain.model.pack() == expect && withTrace.model.pack() == expect,
                "obs-traced train changed the model");
    metrics.set("obs.trace_overhead_frac", tracedSecs / plainSecs - 1.0,
                "fraction");
  }

  // serve: compile and batch scoring of the trained model.
  {
    std::vector<double> compiles;
    for (int k = 0; k < 3; ++k) {
      Tracer::Scope span(tracer, "serve.compile", k);
      const auto model =
          casvm::serve::CompiledDistributedModel::compile(trained.model);
      compiles.push_back(span.close() * 1e3);
    }
    metrics.set("serve.compile_ms", median(compiles), "ms");
    const Dataset& test = in.data->test;
    casvm::serve::BatchScratch scratch;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      std::vector<std::size_t> rows(batch);
      std::vector<double> out(batch);
      Tracer::Scope span(tracer, "serve.decision_batch");
      const auto [calls, secs] = repeatFor(budget, [&](std::size_t c) {
        for (std::size_t j = 0; j < batch; ++j) {
          rows[j] = (c * batch + j) % test.rows();
        }
        in.compiled->decisionBatch(test, rows, out, scratch);
      });
      span.close();
      metrics.set("serve.score_us.b" + std::to_string(batch),
                  secs / calls * 1e6, "us");
    }
  }
}

}  // namespace perfbench
