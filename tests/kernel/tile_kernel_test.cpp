// The multi-query tile-dot contract: every output of every dotMany
// implementation the CPU runs is bitwise-identical to Dataset::dot for the
// same pair of rows, for any query count (group splits and remainders),
// row count (full and tail blocks) and feature count.

#include "casvm/kernel/tile_kernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "casvm/support/rng.hpp"

namespace casvm::kernel::tile {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// m + q rows of n features: rows [0, m) are tiled, rows [m, m+q) are the
/// queries. Magnitudes span 2^-8..2^8 with both signs, so any change in
/// accumulation order shows up in the low bits.
data::Dataset randomRows(std::size_t rows, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(rows * n);
  for (float& v : values) {
    const double mag = std::ldexp(rng.uniform(), int(rng.below(17)) - 8);
    v = static_cast<float>(rng.uniform() < 0.5 ? -mag : mag);
  }
  return data::Dataset::fromDense(n, std::move(values),
                                  std::vector<std::int8_t>(rows, 1));
}

const DotManyImpl* findImpl(const std::string& name) {
  for (const DotManyImpl& impl : dotManyImpls()) {
    if (name == impl.name) return &impl;
  }
  return nullptr;
}

class DotManyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DotManyTest, BitwiseEqualsDatasetDot) {
  const DotManyImpl* impl = findImpl(GetParam());
  if (impl == nullptr || !impl->supported) {
    GTEST_SKIP() << GetParam() << " is not supported on this CPU";
  }
  constexpr std::size_t kMaxQ = 9;
  for (std::size_t n : {1, 7, 200}) {
    for (std::size_t m : {1, 15, 16, 17, 100, 2401}) {
      const data::Dataset ds = randomRows(m + kMaxQ, n, 1000 * n + m);
      std::vector<std::size_t> tileRows(m);
      for (std::size_t j = 0; j < m; ++j) tileRows[j] = j;
      std::vector<float> tiles;
      pack(ds.subset(tileRows), tiles);
      std::vector<double> xd(kMaxQ * n);
      for (std::size_t p = 0; p < kMaxQ; ++p) {
        const auto r = ds.denseRow(m + p);
        for (std::size_t k = 0; k < n; ++k) xd[p * n + k] = double(r[k]);
      }
      for (std::size_t q = 1; q <= kMaxQ; ++q) {
        // A sentinel tail catches writes past q*m outputs.
        std::vector<double> out(q * m + 1, -7.0);
        impl->fn(tiles.data(), xd.data(), q, m, n, out.data());
        ASSERT_EQ(out[q * m], -7.0) << "wrote past the output, q=" << q;
        for (std::size_t p = 0; p < q; ++p) {
          for (std::size_t j = 0; j < m; ++j) {
            ASSERT_EQ(bits(out[p * m + j]), bits(ds.dot(m + p, j)))
                << "q=" << q << " m=" << m << " n=" << n << " query " << p
                << " row " << j;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Impls, DotManyTest, ::testing::Values("portable", "avx2", "avx512"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(TileDotTest, DispatchedEntryPointsAgreeWithDotFn) {
  const std::size_t m = 100, n = 33, q = 6;
  const data::Dataset ds = randomRows(m + q, n, 77);
  std::vector<std::size_t> tileRows(m);
  for (std::size_t j = 0; j < m; ++j) tileRows[j] = j;
  std::vector<float> tiles;
  pack(ds.subset(tileRows), tiles);
  std::vector<double> xd(q * n);
  for (std::size_t p = 0; p < q; ++p) {
    const auto r = ds.denseRow(m + p);
    for (std::size_t k = 0; k < n; ++k) xd[p * n + k] = double(r[k]);
  }
  std::vector<double> many(q * m), one(m);
  dotMany(tiles.data(), xd.data(), q, m, n, many.data());
  for (std::size_t p = 0; p < q; ++p) {
    dotFn()(tiles.data(), xd.data() + p * n, m, n, one.data());
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(bits(many[p * m + j]), bits(one[j])) << p << "," << j;
    }
  }
}

TEST(TileDotTest, PortableIsAlwaysListedAndSupported) {
  const DotManyImpl* portable = findImpl("portable");
  ASSERT_NE(portable, nullptr);
  EXPECT_TRUE(portable->supported);
}

}  // namespace
}  // namespace casvm::kernel::tile
