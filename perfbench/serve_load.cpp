// Open-loop load against a ServeEngine. Requests arrive as a Poisson
// process, are timed with this file's own steady_clock from the moment each
// was due (so a stall also charges the requests queued behind it), and every
// Ok reply is compared bitwise with the reference decision.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>

#include "bench.hpp"
#include "casvm/support/rng.hpp"

namespace perfbench {
namespace {

using casvm::serve::ServeCode;
using casvm::serve::ServeEngine;
using casvm::serve::ServeReply;

// The load generator runs alone on the highest CPU this process may use
// (the lowest tends to take the most interrupts), and engine threads are
// created with that CPU masked out. Otherwise the scheduler places a worker
// it wakes on the generator's CPU, and the generator loses that CPU for
// milliseconds right after a submit.
int generatorCpu(const cpu_set_t& allowed) {
  if (CPU_COUNT(&allowed) < 2) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &allowed)) return c;
  }
  return -1;
}

cpu_set_t allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
  return set;
}

// Keeps each of `cpus` busy with a spinning thread of SCHED_IDLE policy,
// which gives way at once to any other thread there. On a virtual machine
// a CPU with nothing to run halts, and a thread woken on it then waits for
// the host to schedule that virtual CPU again, which takes milliseconds
// whenever co-tenants keep the host busy. Measured on a shared 4-vCPU
// machine: in runs where such an episode doubled the train times, serving
// p50 rose fivefold without spinners and stayed put with them.
class IdleSpinners {
 public:
  explicit IdleSpinners(const cpu_set_t& cpus) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &cpus)) continue;
      threads_.emplace_back([this, c] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// A step whose generator noticed more than this share of its requests more
// than kHostLateSeconds after they were due, for reasons other than the
// engine's own submit time, measured the host rather than the engine.
constexpr double kHostLateSeconds = 0.5e-3;
constexpr double kHostLateShare = 0.01;

// One fixed-rate step of `seconds`. `traceSubmits` records a span around
// every submit.
StepResult runStep(ServeEngine& engine,
                   const std::vector<std::vector<float>>& queries,
                   const std::vector<double>& reference, double qps,
                   double seconds, double limitMs, casvm::Rng& rng,
                   long long& okSeen, long long corruptReply,
                   bool traceSubmits, Tracer& tracer) {
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(qps * seconds)));
  std::vector<std::size_t> query(n);
  std::vector<double> offset(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.uniform()) / qps;
    offset[i] = t;
    query[i] = static_cast<std::size_t>(rng.below(queries.size()));
  }

  const casvm::serve::ServeStats before = engine.stats();
  std::vector<std::future<ServeReply>> futures(n);
  std::vector<Clock::time_point> due(n);
  std::vector<double> latency(n, 0.0);
  std::vector<double> hostLate(n, 0.0);
  std::vector<char> okFlag(n, 0);
  std::vector<char> mismatch(n, 0);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset[i]));
  }

  // One thread sends and collects, polling instead of sleeping: a sleeping
  // thread can wake milliseconds late on a virtual CPU, which would charge
  // the generator's lateness to the engine. Replies are collected in
  // submission order, as a FIFO client would see them.
  tracer.setPaused(!traceSubmits);
  std::size_t sent = 0;
  std::size_t done = 0;
  std::size_t backlog = 0;
  Clock::time_point lastSubmitReturn = start;
  while (done < n) {
    const Clock::time_point now = Clock::now();
    if (sent < n && now >= due[sent]) {
      // Lateness the host caused: how long after the request was due, and
      // after the previous submit returned, the generator got to it. Time
      // spent inside ServeEngine::submit is the engine's and never counts.
      hostLate[sent] =
          secondsBetween(std::max(due[sent], lastSubmitReturn), now);
      {
        Tracer::Scope span(tracer, "serve.submit", static_cast<int>(sent));
        futures[sent] = engine.submit(queries[query[sent]]);
      }
      lastSubmitReturn = Clock::now();
      if (++sent == n) backlog = n - done;
      continue;
    }
    while (done < sent && futures[done].wait_for(std::chrono::seconds(0)) ==
                              std::future_status::ready) {
      ServeReply reply = futures[done].get();
      latency[done] = secondsBetween(due[done], Clock::now());
      if (reply.code == ServeCode::Ok) {
        okFlag[done] = 1;
        if (corruptReply >= 0 && okSeen == corruptReply) {
          std::uint64_t bits = 0;
          std::memcpy(&bits, &reply.decision, sizeof bits);
          bits ^= 1;
          std::memcpy(&reply.decision, &bits, sizeof bits);
        }
        ++okSeen;
        mismatch[done] = std::memcmp(&reply.decision,
                                     &reference[query[done]],
                                     sizeof(double)) != 0;
      }
      ++done;
    }
  }
  tracer.setPaused(false);
  const casvm::serve::ServeStats after = engine.stats();

  StepResult r;
  r.qps = qps;
  r.requests = n;
  r.backlog = backlog;
  r.traced = traceSubmits;
  std::size_t hostLateCount = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (okFlag[j]) {
      ++r.ok;
      r.mismatches += mismatch[j] ? 1 : 0;
    } else {
      ++r.refused;
      latency[j] = std::max(seconds, latency[j]);  // misses any limit
    }
    hostLateCount += hostLate[j] > kHostLateSeconds ? 1 : 0;
  }
  r.p50Ms = quantile(latency, 0.50) * 1e3;
  r.p99Ms = quantile(latency, 0.99) * 1e3;
  r.hostLateP99Ms = quantile(hostLate, 0.99) * 1e3;
  r.disturbed = static_cast<double>(hostLateCount) >
                kHostLateShare * static_cast<double>(n);
  const std::uint64_t batches = after.batches - before.batches;
  r.meanBatchRows =
      batches == 0 ? 0.0
                   : static_cast<double>(after.completed - before.completed) /
                         static_cast<double>(batches);
  // A step whose unanswered requests at the end exceed what the limit
  // allows in flight (plus two full batches per worker) is falling behind.
  const double inFlightAllowance =
      qps * limitMs * 1e-3 +
      2.0 * static_cast<double>(engine.config().batchSize) *
          engine.config().workers;
  r.pass = r.refused == 0 && r.p99Ms <= limitMs &&
           static_cast<double>(backlog) <= inFlightAllowance;
  return r;
}

}  // namespace

std::unique_ptr<ServeEngine> startEngine(
    const casvm::serve::CompiledDistributedModel& model) {
  const cpu_set_t all = allowedCpus();
  const int gen = generatorCpu(all);
  if (gen >= 0) {
    cpu_set_t rest = all;
    CPU_CLR(gen, &rest);
    sched_setaffinity(0, sizeof rest, &rest);
  }
  auto engine =
      std::make_unique<ServeEngine>(model, casvm::serve::ServeConfig{});
  if (gen >= 0) sched_setaffinity(0, sizeof all, &all);
  return engine;
}

LoadResult runLoad(ServeEngine& engine,
                   const std::vector<std::vector<float>>& queries,
                   const std::vector<double>& reference, const LoadPlan& plan,
                   std::uint64_t seed, long long corruptReply, Tracer& tracer,
                   Tally& tally) {
  casvm::Rng rng(seed ^ 0x5e7e0ULL);
  long long okSeen = 0;
  const cpu_set_t all = allowedCpus();
  const int gen = generatorCpu(all);
  if (gen >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(gen, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  // The generator spins on its own CPU; the engine's CPUs get spinners.
  cpu_set_t engineCpus = all;
  if (gen >= 0) CPU_CLR(gen, &engineCpus);
  const IdleSpinners spinners(engineCpus);
  LoadResult out;
  Tracer::Scope loadSpan(tracer, "serve.load");

  // Nominal passes alternate with the steps of a rate staircase until the
  // budget is spent, so the nominal figures are read over passes spread
  // through the whole phase rather than one stretch of it. The staircase
  // starts at twice the nominal rate, which is about two thirds of the
  // highest passing rate, and climbs by kStair squared until a step fails
  // (a pass needs p99 <= limit, no refusal and no growing backlog). From
  // then on it moves up by kStair after a pass and down by kStair after a
  // failure, so it oscillates around the rate at which half of the steps
  // pass; max_qps is the geometric mean of the rates it visits from there,
  // which one noisy step barely moves. A step whose generator the host
  // disturbed decides nothing.
  constexpr double kStair = 1.1;
  constexpr std::size_t kMinTrackingSteps = 6;
  double rate = 2.0 * plan.nominalQps;
  std::vector<double> tracking;  // log rates from the first failure on

  // One pass first whose timings are dropped: the first requests after
  // set-up meet cold caches and freshly started worker threads.
  const StepResult warm =
      runStep(engine, queries, reference, plan.nominalQps, plan.stepSeconds,
              plan.p99LimitMs, rng, okSeen, corruptReply, false, tracer);
  tally.count(warm.ok, warm.mismatches,
              "served decision differs from the reference");
  std::vector<double> p50s, p99s, lates, batchRows, tracedP50s, untracedP50s;
  const auto phaseStart = Clock::now();
  bool nominalTurn = true;
  int nominalPasses = 0;
  while (secondsBetween(phaseStart, Clock::now()) + plan.stepSeconds <=
             plan.seconds ||
         nominalPasses == 0) {
    const bool nominal = nominalTurn;
    nominalTurn = !nominalTurn;
    const double qps = nominal ? plan.nominalQps : rate;
    // Traced runs record submit spans on every other nominal pass, so the
    // passes without give the tracing overhead.
    const bool traceSubmits =
        tracer.enabled() && nominal && nominalPasses % 2 == 1;
    StepResult step =
        runStep(engine, queries, reference, qps, plan.stepSeconds,
                plan.p99LimitMs, rng, okSeen, corruptReply, traceSubmits,
                tracer);
    step.nominal = nominal;
    tally.count(step.ok, step.mismatches,
                "served decision differs from the reference");
    if (nominal) {
      ++nominalPasses;
      // Refusals at the nominal rate are failed requests; on the ladder
      // they are the overload it looks for.
      out.refusedNominal += step.refused;
      out.requestsNominal += step.requests;
      lates.push_back(step.hostLateP99Ms);
      if (!step.disturbed) {
        p50s.push_back(step.p50Ms);
        p99s.push_back(step.p99Ms);
        batchRows.push_back(step.meanBatchRows);
        (traceSubmits ? tracedP50s : untracedP50s).push_back(step.p50Ms);
      }
    } else if (!step.disturbed) {
      if (!step.pass || !tracking.empty()) tracking.push_back(std::log(qps));
      const double up = tracking.empty() ? kStair * kStair : kStair;
      rate = step.pass ? rate * up : rate / kStair;
    }
    out.steps.push_back(step);
  }
  if (gen >= 0) sched_setaffinity(0, sizeof all, &all);

  out.validNominalPasses = p50s.size();
  out.nominalP50Ms = median(p50s);
  // Co-tenants of a shared machine only ever add latency, in episodes that
  // can outlast the whole phase, and a pass's p99 moves with the slightest
  // of them. The quietest tenth of the passes is what the engine itself
  // holds; a change that lifts the tail in most passes still moves it.
  out.nominalP99Ms = quantile(p99s, 0.10);
  out.hostLateMs = median(lates);
  out.meanBatchRows = median(batchRows);
  double logSum = 0.0;
  for (double v : tracking) logSum += v;
  out.maxQps = tracking.empty()
                   ? 0.0
                   : std::exp(logSum / static_cast<double>(tracking.size()));
  out.ladderFinished = tracking.size() >= kMinTrackingSteps;
  if (!tracedP50s.empty() && !untracedP50s.empty()) {
    out.traceOverheadFrac = median(tracedP50s) / median(untracedP50s) - 1.0;
  }
  return out;
}

}  // namespace perfbench
