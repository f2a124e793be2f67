// Property tests for the compiled batch scoring path. The contract under
// test is bitwise identity: every decision value produced by the compiled
// path must have the same 64-bit pattern as the scalar Model::decisionFor /
// DistributedModel::decisionFor / MulticlassModel::predictFor result, for
// every kernel family, both storage layouts and any batch size.

#include "casvm/serve/compiled_ensemble.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "casvm/core/multiclass.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/support/error.hpp"

namespace casvm::serve {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

data::Dataset denseData(std::size_t samples, std::uint64_t seed) {
  return data::generateTwoGaussians(samples, 12, 4.0, seed);
}

data::Dataset sparseData(std::size_t samples, std::uint64_t seed) {
  data::MixtureSpec spec;
  spec.samples = samples;
  spec.features = 40;
  spec.clusters = 4;
  spec.sparsity = 0.7;
  spec.clusterSparsePattern = true;
  spec.sparseOutput = true;
  spec.seed = seed;
  return data::generateMixture(spec);
}

std::vector<kernel::KernelParams> allKernels() {
  return {kernel::KernelParams::linear(),
          kernel::KernelParams::polynomial(0.5, 1.0, 3),
          kernel::KernelParams::gaussian(0.3),
          kernel::KernelParams::sigmoid(0.01, -0.1)};
}

solver::Model train(const data::Dataset& ds, kernel::KernelParams params) {
  solver::SolverOptions opts;
  opts.kernel = params;
  opts.maxIterations = 5000;
  return solver::SmoSolver(opts).solve(ds).model;
}

// The core property: for all 4 kernel families x dense/sparse SV storage
// x batch sizes {1, 7, 64}, compiled batch decisions equal the scalar
// path bit for bit.
TEST(CompiledModelTest, BitwiseIdenticalAcrossKernelsStorageAndBatchSize) {
  for (bool sparse : {false, true}) {
    const data::Dataset trainSet =
        sparse ? sparseData(120, 11) : denseData(120, 11);
    const data::Dataset testSet =
        sparse ? sparseData(64, 13) : denseData(64, 13);
    for (const kernel::KernelParams& params : allKernels()) {
      const solver::Model model = train(trainSet, params);
      ASSERT_GT(model.numSupportVectors(), 0u);
      const CompiledModel compiled = compile(model);
      BatchScratch scratch;
      for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}}) {
        for (std::size_t at = 0; at < testSet.rows(); at += batch) {
          const std::size_t n = std::min(batch, testSet.rows() - at);
          std::vector<std::size_t> rows(n);
          std::iota(rows.begin(), rows.end(), at);
          std::vector<double> out(n);
          compiled.decisionBatch(testSet, rows, out, scratch);
          for (std::size_t j = 0; j < n; ++j) {
            const double scalar = model.decisionFor(testSet, rows[j]);
            ASSERT_EQ(bits(out[j]), bits(scalar))
                << "kernel=" << kernel::kernelName(params.type)
                << " sparse=" << sparse << " batch=" << batch
                << " row=" << rows[j] << " got " << out[j] << " want "
                << scalar;
          }
        }
      }
    }
  }
}

TEST(CompiledModelTest, RawVectorDecisionMatchesModelDecision) {
  const data::Dataset trainSet = denseData(100, 17);
  const data::Dataset testSet = denseData(20, 19);
  for (const kernel::KernelParams& params : allKernels()) {
    const solver::Model model = train(trainSet, params);
    const CompiledModel compiled = compile(model);
    BatchScratch scratch;
    for (std::size_t i = 0; i < testSet.rows(); ++i) {
      const auto row = testSet.denseRow(i);
      ASSERT_EQ(bits(compiled.decision(row, scratch)),
                bits(model.decision(row)));
    }
  }
}

TEST(CompiledModelTest, EmptyModelScoresBiasEverywhere) {
  const CompiledModel compiled(kernel::KernelParams::gaussian(1.0),
                               data::Dataset(), {}, -0.75);
  EXPECT_TRUE(compiled.empty());
  const data::Dataset testSet = denseData(9, 23);
  BatchScratch scratch;
  std::vector<double> out(testSet.rows());
  compiled.decisionAll(testSet, out, scratch);
  for (double d : out) EXPECT_EQ(bits(d), bits(-0.75));
  EXPECT_EQ(bits(compiled.decision(testSet.denseRow(0), scratch)),
            bits(-0.75));
}

TEST(CompiledModelTest, AccuracyRoutesThroughBatchPathUnchanged) {
  const data::Dataset trainSet = denseData(150, 29);
  const data::Dataset testSet = denseData(80, 31);
  const solver::Model model = train(trainSet, kernel::KernelParams::gaussian(0.3));
  // Model::accuracy uses the compiled path internally; cross-check against
  // the scalar loop it replaced.
  std::size_t correct = 0;
  for (std::size_t i = 0; i < testSet.rows(); ++i) {
    correct += (model.predictFor(testSet, i) == testSet.label(i));
  }
  EXPECT_DOUBLE_EQ(model.accuracy(testSet),
                   double(correct) / double(testSet.rows()));
}

core::DistributedModel routedModel(const data::Dataset& all,
                                   kernel::KernelParams params) {
  // Split rows in half, train one sub-model per half, use the halves'
  // means as routing centers — a miniature CP-SVM outcome.
  const std::size_t half = all.rows() / 2;
  std::vector<std::size_t> left(half), right(all.rows() - half);
  std::iota(left.begin(), left.end(), 0);
  std::iota(right.begin(), right.end(), half);
  std::vector<solver::Model> models = {train(all.subset(left), params),
                                       train(all.subset(right), params)};
  std::vector<std::vector<float>> centers(
      2, std::vector<float>(all.cols(), 0.0f));
  std::vector<double> acc(all.cols());
  for (int part = 0; part < 2; ++part) {
    const auto& idx = part == 0 ? left : right;
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::size_t i : idx) all.addRowTo(i, acc);
    for (std::size_t c = 0; c < all.cols(); ++c) {
      centers[part][c] = static_cast<float>(acc[c] / double(idx.size()));
    }
  }
  return core::DistributedModel::routed(std::move(models), std::move(centers));
}

TEST(CompiledEnsembleTest, RoutedDecisionsBitwiseMatchScalar) {
  const data::Dataset all = denseData(160, 37);
  const data::Dataset testSet = denseData(50, 41);
  const core::DistributedModel model =
      routedModel(all, kernel::KernelParams::gaussian(0.3));
  const CompiledDistributedModel compiled =
      CompiledDistributedModel::compile(model);
  ASSERT_TRUE(compiled.isRouted());
  BatchScratch scratch;
  std::vector<double> out(testSet.rows());
  compiled.decisionAll(testSet, out, scratch);
  for (std::size_t i = 0; i < testSet.rows(); ++i) {
    EXPECT_EQ(compiled.route(testSet, i), model.route(testSet, i));
    ASSERT_EQ(bits(out[i]), bits(model.decisionFor(testSet, i))) << i;
  }
  EXPECT_DOUBLE_EQ(compiled.accuracy(testSet, scratch),
                   model.accuracy(testSet));
}

TEST(CompiledEnsembleTest, SingleModelDecisionsBitwiseMatchScalar) {
  const data::Dataset trainSet = sparseData(100, 43);
  const data::Dataset testSet = sparseData(30, 47);
  const core::DistributedModel model = core::DistributedModel::single(
      train(trainSet, kernel::KernelParams::gaussian(0.2)));
  const CompiledDistributedModel compiled =
      CompiledDistributedModel::compile(model);
  EXPECT_FALSE(compiled.isRouted());
  BatchScratch scratch;
  std::vector<double> out(testSet.rows());
  compiled.decisionAll(testSet, out, scratch);
  for (std::size_t i = 0; i < testSet.rows(); ++i) {
    ASSERT_EQ(bits(out[i]), bits(model.decisionFor(testSet, i))) << i;
  }
}

// Dense batches are scored through the multi-query tile kernel, which
// splits them into passes of up to four queries (9 rows: 3 + 3 + 3). Every
// batch size from 1 to 9 must give each row the bits a lone decision()
// gives it, routed or not, with rows repeated and out of order.
TEST(CompiledEnsembleTest, DecisionBatchMatchesDecisionForBatchSizes1To9) {
  const data::Dataset all = denseData(200, 59);
  const data::Dataset testSet = denseData(40, 61);
  const auto params = kernel::KernelParams::gaussian(0.3);
  const core::DistributedModel routed = routedModel(all, params);
  const core::DistributedModel single =
      core::DistributedModel::single(train(all, params));
  for (const core::DistributedModel* model : {&routed, &single}) {
    const CompiledDistributedModel compiled =
        CompiledDistributedModel::compile(*model);
    ASSERT_EQ(compiled.isRouted(), model == &routed);
    const CompiledModel& first = compiled.model(0);
    BatchScratch scratch;
    for (std::size_t batch = 1; batch <= 9; ++batch) {
      std::vector<std::size_t> rows(batch);
      for (std::size_t j = 0; j < batch; ++j) {
        rows[j] = (7 * j + batch) % testSet.rows();
      }
      if (batch > 2) rows[batch - 1] = rows[0];  // a repeated row
      std::vector<double> out(batch), outFirst(batch);
      compiled.decisionBatch(testSet, rows, out, scratch);
      first.decisionBatch(testSet, rows, outFirst, scratch);
      for (std::size_t j = 0; j < batch; ++j) {
        const auto x = testSet.denseRow(rows[j]);
        ASSERT_EQ(bits(out[j]), bits(compiled.decision(x, scratch)))
            << "batch " << batch << " row " << j;
        ASSERT_EQ(bits(out[j]), bits(model->decisionFor(testSet, rows[j])))
            << "batch " << batch << " row " << j;
        ASSERT_EQ(bits(outFirst[j]), bits(first.decision(x, scratch)))
            << "batch " << batch << " row " << j;
      }
    }
  }
}

data::MulticlassData fourClasses(std::size_t samples, std::uint64_t seed) {
  data::MixtureSpec spec;
  spec.samples = samples;
  spec.features = 8;
  spec.clusters = 8;
  spec.labelNoise = 0.0;
  spec.minCenterSeparation = 10.0;
  spec.seed = seed;
  return data::generateMulticlassMixture(spec, 4);
}

TEST(CompiledEnsembleTest, MulticlassSharedPoolMatchesScalarPredictions) {
  const auto mc = fourClasses(400, 53);
  const auto probe = fourClasses(120, 53);
  core::TrainConfig cfg;
  cfg.method = core::Method::Cascade;  // tree method: single sub-models,
  cfg.processes = 2;                   // so the shared SV pool is eligible
  cfg.solver.kernel = kernel::KernelParams::gaussian(0.5);
  const core::MulticlassModel model =
      core::trainMulticlass(mc.features, mc.labels, cfg).model;

  const CompiledMulticlassModel compiled =
      CompiledMulticlassModel::compile(model);
  EXPECT_TRUE(compiled.sharesPool());
  EXPECT_GT(compiled.poolSize(), 0u);
  // Dedup can only shrink: unique pool entries <= total pair SV references.
  EXPECT_LE(compiled.poolSize(), compiled.pairSvTotal());

  BatchScratch scratch;
  std::vector<int> out(probe.features.rows());
  compiled.predictAll(probe.features, out, scratch);
  for (std::size_t i = 0; i < probe.features.rows(); ++i) {
    ASSERT_EQ(out[i], model.predictFor(probe.features, i)) << i;
  }
  EXPECT_DOUBLE_EQ(compiled.accuracy(probe.features, probe.labels, scratch),
                   model.accuracy(probe.features, probe.labels));
}

TEST(CompiledEnsembleTest, MulticlassRoutedFallbackMatchesScalarPredictions) {
  const auto mc = fourClasses(400, 59);
  const auto probe = fourClasses(120, 59);
  core::TrainConfig cfg;
  cfg.method = core::Method::RaCa;  // partitioned: routed pair models,
  cfg.processes = 4;                // shared pool ineligible -> fallback
  cfg.solver.kernel = kernel::KernelParams::gaussian(0.5);
  const core::MulticlassModel model =
      core::trainMulticlass(mc.features, mc.labels, cfg).model;

  const CompiledMulticlassModel compiled =
      CompiledMulticlassModel::compile(model);
  EXPECT_FALSE(compiled.sharesPool());

  BatchScratch scratch;
  std::vector<int> out(probe.features.rows());
  compiled.predictAll(probe.features, out, scratch);
  for (std::size_t i = 0; i < probe.features.rows(); ++i) {
    ASSERT_EQ(out[i], model.predictFor(probe.features, i)) << i;
  }
}

}  // namespace
}  // namespace casvm::serve
