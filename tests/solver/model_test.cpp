#include "casvm/solver/model.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "casvm/core/multiclass.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/support/error.hpp"

namespace casvm::solver {
namespace {

Model trainedModel(std::uint64_t seed = 61) {
  const auto ds = data::generateTwoGaussians(150, 4, 5.0, seed);
  SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.2);
  return SmoSolver(opts).solve(ds).model;
}

TEST(ModelTest, CoefficientCountMustMatchSVs) {
  const auto svs = data::Dataset::fromDense(1, {1.0f}, {1});
  EXPECT_THROW(Model(kernel::KernelParams::linear(), svs, {0.5, 0.5}, 0.0),
               Error);
}

TEST(ModelTest, DecisionMatchesManualSum) {
  const auto svs = data::Dataset::fromDense(1, {-1.0f, 1.0f}, {-1, 1});
  const Model m(kernel::KernelParams::linear(), svs, {-0.5, 0.5}, 0.25);
  // decision(x) = -0.5*(-1*x) ... coefficients are alpha*y already:
  // = -0.5*(-1 . x) + 0.5*(1 . x) + 0.25 = x + 0.25
  const std::vector<float> probe{2.0f};
  EXPECT_NEAR(m.decision(probe), 2.25, 1e-12);
}

TEST(ModelTest, DecisionForMatchesDecision) {
  const Model m = trainedModel();
  const auto test = data::generateTwoGaussians(20, 4, 5.0, 67);
  for (std::size_t i = 0; i < test.rows(); ++i) {
    EXPECT_NEAR(m.decisionFor(test, i), m.decision(test.denseRow(i)), 1e-9);
  }
}

TEST(ModelTest, PredictSignOfDecision) {
  const Model m = trainedModel();
  const auto test = data::generateTwoGaussians(30, 4, 5.0, 71);
  for (std::size_t i = 0; i < test.rows(); ++i) {
    const std::int8_t expected = m.decisionFor(test, i) >= 0.0 ? 1 : -1;
    EXPECT_EQ(m.predictFor(test, i), expected);
  }
}

TEST(ModelTest, AccuracyHighOnSeparableData) {
  const Model m = trainedModel();
  const auto test = data::generateTwoGaussians(200, 4, 5.0, 73);
  EXPECT_GT(m.accuracy(test), 0.97);
}

TEST(ModelTest, EmptyModelPredictsBias) {
  const Model m(kernel::KernelParams::gaussian(1.0), data::Dataset(), {}, -1.0);
  const auto test = data::generateTwoGaussians(10, 4, 5.0, 79);
  for (std::size_t i = 0; i < test.rows(); ++i) {
    EXPECT_EQ(m.predictFor(test, i), -1);
  }
}

TEST(ModelTest, PackUnpackRoundTrip) {
  const Model m = trainedModel();
  const Model back = Model::unpack(m.pack());
  EXPECT_EQ(back.numSupportVectors(), m.numSupportVectors());
  EXPECT_DOUBLE_EQ(back.bias(), m.bias());
  EXPECT_EQ(back.kernelParams().type, m.kernelParams().type);
  const auto test = data::generateTwoGaussians(25, 4, 5.0, 83);
  for (std::size_t i = 0; i < test.rows(); ++i) {
    EXPECT_NEAR(back.decisionFor(test, i), m.decisionFor(test, i), 1e-12);
  }
}

TEST(ModelTest, SaveLoadRoundTrip) {
  const Model m = trainedModel();
  const std::string path = ::testing::TempDir() + "/casvm_model_test.bin";
  m.save(path);
  const Model back = Model::load(path);
  EXPECT_EQ(back.numSupportVectors(), m.numSupportVectors());
  EXPECT_DOUBLE_EQ(back.bias(), m.bias());
  std::remove(path.c_str());
}

TEST(ModelTest, LoadMissingFileThrows) {
  EXPECT_THROW((void)Model::load("/nonexistent/model.bin"), Error);
}

TEST(ModelTest, LoadTruncatedFileThrows) {
  // A file cut short (crash mid-copy, partial download) must be rejected
  // with Error, never turned into a half-initialized model.
  const Model m = trainedModel();
  const std::string path = ::testing::TempDir() + "/casvm_model_trunc.bin";
  m.save(path);
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  EXPECT_THROW((void)Model::load(path), Error);
  std::remove(path.c_str());
}

TEST(ModelTest, LoadGarbageFileThrows) {
  const std::string path = ::testing::TempDir() + "/casvm_model_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a model, it is a text file full of nonsense bytes";
  }
  EXPECT_THROW((void)Model::load(path), Error);
  std::remove(path.c_str());
}

/// save() goes through the atomic temp-file + rename helper: a second save
/// fully replaces the first (no stale tail bytes), the directory holds
/// exactly the final file (no .tmp.* stragglers), and a hard link to the
/// first file still reads the first model (the rename gave the new bytes a
/// new inode; an in-place rewrite, which a crash can leave truncated, would
/// have changed the linked file too).
template <class M>
void expectAtomicOverwrite(const M& a, const M& b, const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/casvm_" + name + "_atomic";
  const std::string link = dir + ".first";
  std::filesystem::remove_all(dir);
  std::filesystem::remove(link);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/model.bin";
  a.save(path);
  std::filesystem::create_hard_link(path, link);
  b.save(path);
  EXPECT_EQ(M::load(path).pack(), b.pack());
  EXPECT_EQ(M::load(link).pack(), a.pack());
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
  std::filesystem::remove(link);
}

TEST(ModelTest, SaveOverwritesAtomicallyLeavingNoTemp) {
  expectAtomicOverwrite(trainedModel(61), trainedModel(67), "model");
}

TEST(ModelTest, MulticlassSaveOverwritesAtomicallyLeavingNoTemp) {
  const auto pairModel = [](std::uint64_t seed) {
    return core::DistributedModel::single(trainedModel(seed));
  };
  const core::MulticlassModel a({1, 2}, {{1, 2, pairModel(61)}});
  const core::MulticlassModel b({1, 2}, {{1, 2, pairModel(67)}});
  expectAtomicOverwrite(a, b, "multiclass");
}

TEST(ModelTest, TruncatedPackThrows) {
  const Model m = trainedModel();
  auto bytes = m.pack();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)Model::unpack(bytes), Error);
}

TEST(ModelTest, TruncationAtEveryPrefixThrowsNotCrashes) {
  const Model m = trainedModel();
  const auto bytes = m.pack();
  // Every strict prefix must be rejected with Error — in particular cuts
  // inside the header, inside the coefficient array and inside the SV
  // payload must never reach an allocation sized from garbage.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{39},
                          std::size_t{47}, std::size_t{55}, std::size_t{56},
                          bytes.size() - 1}) {
    if (cut >= bytes.size()) continue;
    EXPECT_THROW((void)Model::unpack(std::span(bytes).first(cut)), Error)
        << "cut=" << cut;
  }
}

TEST(ModelTest, HostileCoefficientCountThrows) {
  const Model m = trainedModel();
  auto bytes = m.pack();
  // The alphaY count lives right after the kernel params and the bias.
  // Claiming 2^64-1 coefficients must throw (count validated against the
  // remaining payload, with no overflow in the size computation) instead
  // of attempting an absurd allocation.
  const std::size_t countOffset = sizeof(kernel::KernelParams) + sizeof(double);
  ASSERT_LT(countOffset + sizeof(std::uint64_t), bytes.size());
  for (std::size_t b = 0; b < sizeof(std::uint64_t); ++b) {
    bytes[countOffset + b] = std::byte{0xFF};
  }
  EXPECT_THROW((void)Model::unpack(bytes), Error);
}

TEST(ModelTest, CorruptCountJustPastPayloadThrows) {
  const Model m = trainedModel();
  auto bytes = m.pack();
  const std::size_t countOffset = sizeof(kernel::KernelParams) + sizeof(double);
  // One more coefficient than the payload can hold: the count/payload
  // cross-check must reject it even though the multiply would not overflow.
  const std::size_t remaining =
      bytes.size() - countOffset - sizeof(std::uint64_t);
  const std::uint64_t count = remaining / sizeof(double) + 1;
  std::memcpy(bytes.data() + countOffset, &count, sizeof(count));
  EXPECT_THROW((void)Model::unpack(bytes), Error);
}

TEST(ModelTest, AccuracyOnEmptyTestSetThrows) {
  const Model m = trainedModel();
  EXPECT_THROW((void)m.accuracy(data::Dataset()), Error);
}

}  // namespace
}  // namespace casvm::solver
