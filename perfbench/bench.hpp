#pragma once

// Shared pieces of the casvm benchmark: in-memory spans around calls
// into the library, the metric sink, and the workload shapes.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "casvm/core/train.hpp"
#include "casvm/data/dataset.hpp"
#include "casvm/serve/compiled_ensemble.hpp"
#include "casvm/serve/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// One span around a call into a casvm layer.
struct Span {
  const char* name = "";  ///< a string literal
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at the root
  int rep = -1;        ///< repetition id within the workload, -1 = n/a
};

/// Keeps spans in memory while tracing is on. Scopes always measure their
/// own duration, so untraced runs time the same code path without
/// recording anything. Spans are opened and closed on one thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Suspend recording (enabled runs alternate to measure the overhead).
  void setPaused(bool paused) { paused_ = paused; }
  bool recording() const { return enabled_ && !paused_; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int rep = -1);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// End the span (idempotent); returns its duration in seconds.
    double close();

   private:
    Tracer& tracer_;
    Clock::time_point start_;
    int index_ = -1;      ///< recorded span, -1 when not recording
    int prevCurrent_ = -1;
    bool open_ = true;
    double seconds_ = 0.0;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: total duration minus the part its children cover.
  std::map<std::string, double> selfSeconds() const;

 private:
  bool enabled_;
  bool paused_ = false;
  Clock::time_point origin_;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// Named metric values with units, printed in insertion-independent order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& values()
      const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Operations attempted and failed, over every check the run makes.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;  ///< failures that are wrong outputs
  std::vector<std::string> failures;  ///< first few failure descriptions

  /// One attempted operation whose output is wrong when !ok.
  void check(bool ok, const std::string& what) { count(1, ok ? 0 : 1, what); }
  /// `attempts` operations of which `bad` failed; `wrongOutput` says
  /// whether those failures are wrong outputs or failures to serve.
  void count(std::size_t attempts, std::size_t bad, const std::string& what,
             bool wrongOutput = true);
};

/// One training configuration: a stand-in at an explicit size, a method,
/// the rank count and the transport.
struct TrainSpec {
  const char* standin;
  std::size_t samples;
  casvm::core::Method method;
  int procs;
  casvm::net::TransportKind transport;
};

struct WorkloadData {
  casvm::data::Dataset train;
  casvm::data::Dataset test;
  double gamma = 0.0;
  double C = 1.0;
};

/// Training and held-out rows for `spec` (see main.cpp).
WorkloadData makeData(const TrainSpec& spec);
/// Gaussian kernel with the stand-in's gamma and C, default solver options.
casvm::core::TrainConfig trainConfig(const TrainSpec& spec,
                                     const WorkloadData& data);

// --- open-loop serving (serve_load.cpp) ------------------------------------

struct LoadPlan {
  double nominalQps = 0.0;   ///< rate the p50/p99 metrics are read at
  double seconds = 0.0;      ///< budget of the whole serving phase
  double stepSeconds = 0.0;  ///< length of each fixed-rate step
  double p99LimitMs = 0.0;   ///< latency limit a passing step meets
};

struct StepResult {
  double qps = 0.0;
  bool nominal = false;  ///< a nominal pass, else a ladder step
  bool traced = false;   ///< submit spans recorded
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t refused = 0;     ///< Shed / Timeout / other non-Ok replies
  std::size_t mismatches = 0;  ///< Ok replies differing from the reference
  double p50Ms = 0.0;  ///< from each request's due time; refusals count as
  double p99Ms = 0.0;  ///< the step length
  double hostLateP99Ms = 0.0;  ///< generator lateness not spent in submit
  bool disturbed = false;      ///< the host held the generator back
  std::size_t backlog = 0;     ///< unanswered when the last request was sent
  double meanBatchRows = 0.0;  ///< ServeStats completed / batches, this step
  bool pass = false;
};

struct LoadResult {
  std::vector<StepResult> steps;  ///< in the order run
  /// Over the nominal passes the host did not disturb: the median pass
  /// p50, the lower decile of pass p99s, the median batch size.
  double nominalP50Ms = 0.0;
  double nominalP99Ms = 0.0;
  double meanBatchRows = 0.0;
  std::size_t validNominalPasses = 0;
  /// Median over all nominal passes of the generator's host lateness p99.
  double hostLateMs = 0.0;
  std::size_t requestsNominal = 0;
  std::size_t refusedNominal = 0;
  double maxQps = 0.0;  ///< rate at which half the ladder steps pass
  bool ladderFinished = false;  ///< the ladder tracked that rate long enough
  /// Traced runs only: median p50 of nominal passes with submit spans
  /// recorded over that of the passes without, minus one.
  double traceOverheadFrac = 0.0;
};

/// A ServeEngine with default settings whose threads avoid the CPU
/// runLoad's generator runs on.
std::unique_ptr<casvm::serve::ServeEngine> startEngine(
    const casvm::serve::CompiledDistributedModel& model);

/// Drive `engine` open-loop for `plan.seconds`: Poisson arrivals in
/// nominal passes alternating with the steps of a rate ladder that finds
/// the highest rate meeting the limit. Every Ok reply is compared
/// bitwise with reference[query]. `corruptReply` >= 0 flips one bit of that
/// Ok reply before the comparison (the benchmark's self-test of its gate).
LoadResult runLoad(casvm::serve::ServeEngine& engine,
                   const std::vector<std::vector<float>>& queries,
                   const std::vector<double>& reference, const LoadPlan& plan,
                   std::uint64_t seed, long long corruptReply, Tracer& tracer,
                   Tally& tally);

// --- per-layer probes (probes.cpp) -----------------------------------------

struct ProbeInputs {
  const WorkloadData* data = nullptr;
  const casvm::core::TrainConfig* config = nullptr;
  const casvm::core::TrainResult* trained = nullptr;  ///< one untraced train
  const casvm::serve::CompiledDistributedModel* compiled = nullptr;
  bool serveShape = false;  ///< tile probe at the served SV pack's shape
  bool tiny = false;
};

/// Run every per-layer probe, setting its metrics. Appends the net
/// message-size sweep to `sweepJson` as a JSON array.
void probeLayers(const ProbeInputs& in, Tracer& tracer, Metrics& metrics,
                 Tally& tally, std::string& sweepJson);

}  // namespace perfbench
