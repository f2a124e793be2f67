// casvm benchmark.
//
//   casvm_perfbench --workload <bkmca-thread|serve-open>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--tiny] [--corrupt-reply <k>]
//
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// metrics; either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. It calls only the
// library's public entry points and checks every output against a second
// path: BKM-CA trains against a proc-transport train of the same config,
// served decisions against
// CompiledDistributedModel::decision. Any mismatch makes the exit code 1.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "casvm/data/registry.hpp"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, int rep)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_.recording()) return;
  Span span;
  span.name = name;
  span.start = secondsBetween(tracer_.origin_, start_);
  span.parent = tracer_.current_;
  span.rep = rep;
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(span);
  prevCurrent_ = tracer_.current_;
  tracer_.current_ = index_;
}

double Tracer::Scope::close() {
  if (!open_) return seconds_;
  open_ = false;
  const Clock::time_point end = Clock::now();
  seconds_ = secondsBetween(start_, end);
  if (index_ >= 0) {
    tracer_.spans_[static_cast<std::size_t>(index_)].end =
        secondsBetween(tracer_.origin_, end);
    tracer_.current_ = prevCurrent_;
  }
  return seconds_;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  // Children of one span are sequential (spans nest on one thread), so the
  // part of a span its children cover is the sum of their durations.
  std::vector<double> childTotal(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childTotal[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - childTotal[i];
  }
  return self;
}

void Tally::count(std::size_t attempts, std::size_t bad,
                  const std::string& what, bool wrongOutput) {
  attempted += attempts;
  failed += bad;
  if (wrongOutput) wrong += bad;
  if (bad > 0 && failures.size() < 8) {
    failures.push_back(std::to_string(bad) + " x " + what);
  }
}

// The training sets are the fixed stand-ins at the workload's size
// (generator seed 42), trained with the default K-means seed. SMO's path
// is chaotic in its input: a 1% relative jitter of the features moved
// BKM-CA's critical-path iterations by 25% (Dis-SMO's by 10%), so a
// training set drawn per workload seed would make train time and traffic
// measure the seed rather than the code. The workload seed draws the
// served queries and their arrival times (see runLoad).
constexpr std::uint64_t kDatasetSeed = 42;

WorkloadData makeData(const TrainSpec& spec) {
  casvm::data::NamedDataset nd =
      casvm::data::standinSized(spec.standin, spec.samples, kDatasetSeed);
  WorkloadData out;
  out.train = std::move(nd.train);
  out.test = std::move(nd.test);
  out.gamma = nd.suggestedGamma;
  out.C = nd.suggestedC;
  return out;
}

casvm::core::TrainConfig trainConfig(const TrainSpec& spec,
                                     const WorkloadData& data) {
  casvm::core::TrainConfig cfg;
  cfg.method = spec.method;
  cfg.processes = spec.procs;
  cfg.solver.kernel = casvm::kernel::KernelParams::gaussian(data.gamma);
  cfg.solver.C = data.C;
  cfg.transport = spec.transport;
  return cfg;
}

}  // namespace perfbench

namespace {

using namespace perfbench;
namespace core = casvm::core;
namespace serve = casvm::serve;
using casvm::net::TransportKind;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  long long corruptReply = -1;
  std::string outDir = ".bench_build/perfbench/out";
};

struct Workload {
  TrainSpec spec;
  bool serveOnly;     ///< training happens in set-up; the run is the load
  double nominalQps;  ///< serving rate the p50/p99 metrics are read at
};

// Why each workload exists is recorded in BENCHMARK.json; the sizes here
// are what those reasons rest on (see perfbench/layers.json for the map
// from layer metrics to the end-to-end metrics they should move).
// The model is served at a nominal rate of about a third of its measured
// highest rate meeting the p99 limit (about 24k-30k req/s with 2 workers on
// a 4-vCPU virtual machine).
Workload findWorkload(const std::string& name, bool tiny) {
  const TrainSpec bkmca{"epsilon", tiny ? 900u : 24000u, core::Method::BkmCa,
                        3, TransportKind::Thread};
  if (name == "bkmca-thread") return {bkmca, false, 8000.0};
  if (name == "serve-open") return {bkmca, true, 8000.0};
  throw std::runtime_error("unknown workload '" + name +
                           "' (bkmca-thread | serve-open)");
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (a == "--out-dir") {
      o.outDir = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt-reply") {
      o.corruptReply = std::stoll(value());
    } else {
      throw std::runtime_error("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) {
    throw std::runtime_error("--seconds must be in (0, 600]");
  }
  return o;
}

std::vector<std::vector<float>> queryRows(const casvm::data::Dataset& ds) {
  std::vector<std::vector<float>> rows(ds.rows(),
                                       std::vector<float>(ds.cols()));
  for (std::size_t i = 0; i < ds.rows(); ++i) ds.copyRowDense(i, rows[i]);
  return rows;
}

std::vector<double> referenceDecisions(
    const serve::CompiledDistributedModel& model,
    const std::vector<std::vector<float>>& queries) {
  serve::BatchScratch scratch;
  std::vector<double> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out[i] = model.decision(queries[i], scratch);
  }
  return out;
}

// Largest resident set of this process and of any proc-transport worker.
double peakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string stepsJson(const LoadResult& load) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < load.steps.size(); ++i) {
    const StepResult& s = load.steps[i];
    out << (i ? "," : "") << "{\"qps\":" << jsonNumber(s.qps)
        << ",\"nominal\":" << (s.nominal ? "true" : "false")
        << ",\"traced\":" << (s.traced ? "true" : "false")
        << ",\"requests\":" << s.requests << ",\"ok\":" << s.ok
        << ",\"refused\":" << s.refused
        << ",\"mismatches\":" << s.mismatches
        << ",\"p50_ms\":" << jsonNumber(s.p50Ms)
        << ",\"p99_ms\":" << jsonNumber(s.p99Ms)
        << ",\"host_late_p99_ms\":" << jsonNumber(s.hostLateP99Ms)
        << ",\"disturbed\":" << (s.disturbed ? "true" : "false")
        << ",\"backlog\":" << s.backlog
        << ",\"mean_batch_rows\":" << jsonNumber(s.meanBatchRows)
        << ",\"pass\":" << (s.pass ? "true" : "false") << "}";
  }
  out << "]";
  return out.str();
}

std::string spansJson(const Tracer& tracer) {
  std::ostringstream out;
  out << "[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"start\":" << jsonNumber(s.start)
        << ",\"end\":" << jsonNumber(s.end) << ",\"parent\":" << s.parent
        << ",\"rep\":" << s.rep << "}";
  }
  out << "]";
  return out.str();
}

void writeRunFile(const Options& o, const Tracer& tracer,
                  const std::vector<double>& trainWalls,
                  long long criticalIterations, const LoadResult& load,
                  const std::string& sweepJson) {
  std::filesystem::create_directories(o.outDir);
  const std::string path = o.outDir + "/" + (o.trace ? "trace-" : "run-") +
                           o.workload + "-seed" + std::to_string(o.seed) +
                           ".json";
  std::ofstream f(path);
  f << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
    << ",\"critical_iterations\":" << criticalIterations
    << ",\"train_walls_s\":[";
  for (std::size_t i = 0; i < trainWalls.size(); ++i) {
    f << (i ? "," : "") << jsonNumber(trainWalls[i]);
  }
  f << "],\"serve_valid_nominal_passes\":" << load.validNominalPasses
    << ",\"serve_ladder_finished\":" << (load.ladderFinished ? "true" : "false")
    << ",\"serve_steps\":" << stepsJson(load);
  if (o.trace) {
    f << ",\"self_seconds\":{";
    bool first = true;
    for (const auto& [name, secs] : tracer.selfSeconds()) {
      f << (first ? "" : ",") << "\"" << name << "\":" << jsonNumber(secs);
      first = false;
    }
    f << "},\"net_sweep\":" << sweepJson << ",\"spans\":" << spansJson(tracer);
  }
  f << "}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

int run(const Options& o) {
  const Workload w = findWorkload(o.workload, o.tiny);
  // The run lasts about --seconds past set-up: a training workload trains
  // for kTrainShare of it and serves for the rest; serve-open serves for
  // all of it.
  constexpr double kTrainShare = 0.6;
  LoadPlan plan;
  plan.nominalQps = w.nominalQps;
  plan.seconds = w.serveOnly ? o.seconds : (1.0 - kTrainShare) * o.seconds;
  plan.stepSeconds = o.tiny ? 0.05 : 0.25;
  plan.p99LimitMs = 20.0;
  Tracer tracer(o.trace);
  Metrics metrics;
  Tally tally;
  const auto runStart = Clock::now();
  const auto elapsed = [&] { return secondsBetween(runStart, Clock::now()); };

  // --- set-up, several times: setup_s is the median --------------------
  // Data generation for the training workloads; for serve-open also the
  // training, compile and engine start that stand between data and replies.
  const int setups = o.tiny ? 2 : (w.serveOnly ? 5 : 9);
  std::vector<double> setupSeconds;
  std::vector<double> generateSeconds;
  std::vector<double> trainWalls;
  WorkloadData data;
  core::TrainConfig cfg;
  core::TrainResult trained;
  std::vector<std::byte> modelBytes;
  std::size_t commBytes = 0;
  std::unique_ptr<serve::CompiledDistributedModel> compiled;
  std::unique_ptr<serve::ServeEngine> engine;
  for (int k = 0; k < setups; ++k) {
    engine.reset();
    Tracer::Scope setupSpan(tracer, "bench.setup", k);
    {
      Tracer::Scope gen(tracer, "data.generate", k);
      data = makeData(w.spec);
      generateSeconds.push_back(gen.close());
    }
    cfg = trainConfig(w.spec, data);
    if (w.serveOnly) {
      {
        Tracer::Scope train(tracer, "core.train", k);
        trained = core::train(data.train, cfg);
        trainWalls.push_back(train.close());
      }
      std::vector<std::byte> bytes = trained.model.pack();
      if (k == 0) {
        modelBytes = std::move(bytes);
        commBytes = trained.totalTrafficBytes();
      } else {
        tally.check(bytes == modelBytes, "set-up trains differ in model bytes");
        tally.check(trained.totalTrafficBytes() == commBytes,
                    "set-up trains differ in traffic");
      }
      {
        Tracer::Scope span(tracer, "serve.compile", k);
        compiled = std::make_unique<serve::CompiledDistributedModel>(
            serve::CompiledDistributedModel::compile(trained.model));
      }
      Tracer::Scope span(tracer, "serve.engine_start", k);
      engine = startEngine(*compiled);
    }
    setupSeconds.push_back(setupSpan.close());
  }

  // --- training repetitions (training workloads) -----------------------
  if (!w.serveOnly) {
    // Every repetition must reproduce, bit for bit, the model and traffic
    // of a proc-transport train of the same config.
    {
      core::TrainConfig procCfg = cfg;
      procCfg.transport = TransportKind::Proc;
      Tracer::Scope span(tracer, "bench.reference_train");
      const core::TrainResult ref = core::train(data.train, procCfg);
      modelBytes = ref.model.pack();
      commBytes = ref.totalTrafficBytes();
    }
    // Repetitions fill the training share of --seconds (at least three).
    const int minReps = o.tiny ? 2 : 3;
    const auto trainStart = Clock::now();
    std::vector<double> tracedWalls;
    for (int rep = 0;
         rep < minReps ||
         secondsBetween(trainStart, Clock::now()) + median(trainWalls) <
             kTrainShare * o.seconds;
         ++rep) {
      // Traced runs record spans on every other repetition so the two
      // halves give the tracing overhead.
      const bool traced = tracer.enabled() && rep % 2 == 0;
      tracer.setPaused(tracer.enabled() && !traced);
      double wall = 0.0;
      {
        Tracer::Scope span(tracer, "core.train", rep);
        trained = core::train(data.train, cfg);
        wall = span.close();
      }
      tracer.setPaused(false);
      (traced ? tracedWalls : trainWalls).push_back(wall);
      std::vector<std::byte> bytes = trained.model.pack();
      tally.check(bytes == modelBytes,
                  "train repetition " + std::to_string(rep) +
                      " differs from the reference model");
      tally.check(trained.totalTrafficBytes() == commBytes,
                  "train repetition " + std::to_string(rep) +
                      " differs in traffic bytes");
      if (tracer.enabled() && !trainWalls.empty() && !tracedWalls.empty()) {
        metrics.set("bench.trace_overhead_frac",
                    median(tracedWalls) / median(trainWalls) - 1.0,
                    "fraction");
      }
    }
    if (trainWalls.empty()) trainWalls = tracedWalls;
    Tracer::Scope span(tracer, "serve.compile");
    compiled = std::make_unique<serve::CompiledDistributedModel>(
        serve::CompiledDistributedModel::compile(trained.model));
    span.close();
    engine = startEngine(*compiled);
  }

  // --- serving ----------------------------------------------------------
  const std::vector<std::vector<float>> queries = queryRows(data.test);
  const std::vector<double> reference = referenceDecisions(*compiled, queries);
  // Sampled before the load: the generator's own request bookkeeping
  // grows with the rates the ladder reaches.
  const double peakRss = peakRssMb();
  serve::BatchScratch scratch;
  const double accuracy = compiled->accuracy(data.test, scratch);
  const LoadResult load = runLoad(*engine, queries, reference, plan, o.seed,
                                  o.corruptReply, tracer, tally);
  engine->drain();
  tally.count(load.requestsNominal, load.refusedNominal,
              "request refused at the nominal rate", false);
  // Serving figures stand only on enough passes the host left alone and a
  // ladder that finished; otherwise the run says so by one failed
  // operation, which is not a wrong output.
  constexpr std::size_t kMinValidPasses = 3;
  const bool serveValid =
      load.validNominalPasses >= kMinValidPasses && load.ladderFinished;
  tally.count(1, serveValid ? 0 : 1,
              "serving figures invalid: " +
                  std::to_string(load.validNominalPasses) +
                  " undisturbed nominal passes, ladder " +
                  (load.ladderFinished ? "finished" : "unfinished"),
              false);

  // --- metrics ----------------------------------------------------------
  std::string sweepJson = "[]";
  if (!o.trace) {
    metrics.set("train_wall_s", median(trainWalls), "s");
    metrics.set("accuracy", accuracy, "fraction");
    metrics.set("comm_bytes", static_cast<double>(commBytes), "B");
    metrics.set("serve_p50_ms", load.nominalP50Ms, "ms");
    metrics.set("serve_p99_ms", load.nominalP99Ms, "ms");
    metrics.set("serve_max_qps", load.maxQps, "req/s");
    metrics.set("setup_s", median(setupSeconds), "s");
    metrics.set("peak_rss_mb", peakRss, "MiB");
  } else {
    if (w.serveOnly) {
      metrics.set("bench.trace_overhead_frac", load.traceOverheadFrac,
                  "fraction");
    }
    metrics.set("serve.generator_late_ms", load.hostLateMs, "ms");
    metrics.set("serve.mean_batch_rows", load.meanBatchRows, "rows");
    metrics.set("data.generate_s", median(generateSeconds), "s");
    ProbeInputs in;
    in.data = &data;
    in.config = &cfg;
    in.trained = &trained;
    in.compiled = compiled.get();
    in.serveShape = w.serveOnly;
    in.tiny = o.tiny;
    probeLayers(in, tracer, metrics, tally, sweepJson);
  }
  writeRunFile(o, tracer, trainWalls, trained.criticalIterations, load,
               sweepJson);

  std::fprintf(stderr,
               "%s seed %llu: %zu train walls (median %.3f s), accuracy "
               "%.4f, %zu B; serve nominal %.0f qps p50 %.3f ms p99 %.3f ms "
               "over %zu passes, max %.0f qps over %zu steps; %.1f s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               trainWalls.size(), median(trainWalls), accuracy,
               commBytes, plan.nominalQps, load.nominalP50Ms,
               load.nominalP99Ms, load.validNominalPasses, load.maxQps,
               load.steps.size(), elapsed());
  for (const std::string& f : tally.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }

  std::ostringstream out;
  out << "{\"correct\": " << (tally.wrong == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics.values()) {
    out << (first ? "" : ", ") << "\"" << name
        << "\": {\"value\": " << jsonNumber(vu.first) << ", \"unit\": \""
        << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return tally.wrong == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casvm_perfbench: %s\n", e.what());
    return 2;
  }
}
