// Bit pins for training and scoring: a first-order SMO solve and a routed
// ensemble's batch scores must reproduce exactly the bits they produced
// when these constants were recorded. Kernel fills and batch scoring may
// change how they reach a number (row pairs, query chunks, SIMD width) but
// never the number itself: a failure here means a model or a score moved.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "casvm/core/train.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/serve/compiled_ensemble.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/support/checksum.hpp"

namespace casvm {
namespace {

template <class T>
std::uint32_t crcOf(std::span<const T> values, std::uint32_t seed = 0) {
  return support::crc32(std::as_bytes(values), seed);
}

template <class T>
std::uint32_t crcOf(const T& value, std::uint32_t seed) {
  return crcOf(std::span<const T>(&value, 1), seed);
}

// A 16-row cache over 600 rows keeps both working-set rows missing on many
// iterations, so the solve runs through the pair fills as well as single
// fills and hits.
TEST(TrainScorePinTest, FirstOrderDenseGaussianSolve) {
  const data::Dataset ds = data::generateTwoGaussians(600, 20, 1.5, 17);
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.05);
  opts.C = 1.0;
  opts.selection = solver::Selection::FirstOrder;
  opts.cacheBytes = 16 * ds.rows() * sizeof(double);
  const solver::SolverResult res = solver::SmoSolver(opts).solve(ds);
  std::uint32_t crc = crcOf(std::span<const double>(res.alpha));
  crc = crcOf(res.model.bias(), crc);
  crc = crcOf(static_cast<std::uint64_t>(res.iterations), crc);
  EXPECT_EQ(res.iterations, 613u) << "iterations";
  EXPECT_EQ(crc, 0x9c704578U) << std::hex << "crc 0x" << crc;
}

// BKM-CA over 3 ranks, compiled, then one decisionBatch over 64 rows: the
// rows route to all three sub-models, so every sub-model scores a batch.
TEST(TrainScorePinTest, RoutedDecisionBatchOver64Rows) {
  const data::Dataset train = data::generateTwoGaussians(900, 16, 1.5, 23);
  const data::Dataset test = data::generateTwoGaussians(64, 16, 1.5, 29);
  core::TrainConfig cfg;
  cfg.method = core::Method::BkmCa;
  cfg.processes = 3;
  cfg.solver.kernel = kernel::KernelParams::gaussian(0.05);
  const core::TrainResult trained = core::train(train, cfg);
  const serve::CompiledDistributedModel compiled =
      serve::CompiledDistributedModel::compile(trained.model);
  ASSERT_TRUE(compiled.isRouted());
  std::vector<std::size_t> rows(test.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  std::vector<std::size_t> routed(compiled.numModels(), 0);
  for (std::size_t r : rows) ++routed[compiled.route(test, r)];
  for (std::size_t count : routed) EXPECT_GT(count, 0u);
  std::vector<double> out(rows.size());
  serve::BatchScratch scratch;
  compiled.decisionBatch(test, rows, out, scratch);
  const std::uint32_t crc = crcOf(std::span<const double>(out));
  EXPECT_EQ(crc, 0x99e854b5U) << std::hex << "crc 0x" << crc;
}

}  // namespace
}  // namespace casvm
