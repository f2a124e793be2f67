#include "casvm/cluster/balanced_kmeans.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

#include "casvm/data/synth.hpp"
#include "casvm/support/error.hpp"

namespace casvm::cluster {
namespace {

data::Dataset clusteredData(std::size_t rows = 400, std::uint64_t seed = 5,
                            double posFrac = 0.5) {
  data::MixtureSpec spec;
  spec.samples = rows;
  spec.features = 6;
  spec.clusters = 4;  // fewer natural clusters than parts -> imbalance
  spec.positiveFraction = posFrac;
  spec.seed = seed;
  return data::generateMixture(spec);
}

std::size_t ceilDiv(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

TEST(BalancedKMeansTest, PerfectSizeBalanceAfterRebalance) {
  const auto ds = clusteredData(397);
  BalancedKMeansOptions opts;
  opts.parts = 8;
  const BalancedKMeansResult res = balancedKmeans(ds, opts);
  res.partition.validate(ds.rows());
  const auto sizes = res.partition.sizes();
  for (std::size_t s : sizes) EXPECT_LE(s, ceilDiv(397, 8));
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            397u);
}

TEST(BalancedKMeansTest, MovesReportedWhenImbalanced) {
  const auto ds = clusteredData(400, 7);
  BalancedKMeansOptions opts;
  opts.parts = 8;  // 8 parts over 4 natural clusters forces migration
  const BalancedKMeansResult res = balancedKmeans(ds, opts);
  EXPECT_GT(res.moves, 0u);
  EXPECT_GE(res.kmeansLoops, 1u);
}

TEST(BalancedKMeansTest, RatioBalanceEqualizesClasses) {
  const auto ds = clusteredData(600, 11, 0.15);
  BalancedKMeansOptions opts;
  opts.parts = 6;
  opts.ratioBalanced = true;
  const BalancedKMeansResult res = balancedKmeans(ds, opts);
  const auto pos = res.partition.positiveCounts(ds);
  for (std::size_t c : pos) EXPECT_LE(c, ceilDiv(ds.positives(), 6));
  const auto sizes = res.partition.sizes();
  for (std::size_t s : sizes) {
    EXPECT_LE(s, ceilDiv(ds.positives(), 6) + ceilDiv(ds.negatives(), 6));
  }
}

TEST(BalancedKMeansTest, PreservesLocalityBetterThanRandom) {
  // Rebalancing moves only boundary samples, so the average distance from
  // a sample to its part center should stay well below a random split's.
  const auto ds = clusteredData(400, 13);
  BalancedKMeansOptions opts;
  opts.parts = 4;
  const Partition bkm = balancedKmeans(ds, opts).partition;
  const Partition rnd = randomPartition(ds, 4, 13);

  auto meanDistToCenter = [&](const Partition& p) {
    double total = 0.0;
    for (std::size_t i = 0; i < ds.rows(); ++i) {
      const auto& c = p.centers[static_cast<std::size_t>(p.assign[i])];
      double self = 0.0;
      for (float v : c) self += double(v) * double(v);
      total += ds.squaredDistanceTo(i, c, self);
    }
    return total / ds.rows();
  };
  EXPECT_LT(meanDistToCenter(bkm), meanDistToCenter(rnd) * 0.9);
}

TEST(BalancedKMeansTest, DeterministicInSeed) {
  const auto ds = clusteredData();
  BalancedKMeansOptions opts;
  opts.parts = 4;
  opts.seed = 41;
  EXPECT_EQ(balancedKmeans(ds, opts).partition.assign,
            balancedKmeans(ds, opts).partition.assign);
}

TEST(BalancedKMeansTest, FewerSamplesThanPartsThrows) {
  const auto ds = clusteredData(20);
  BalancedKMeansOptions opts;
  opts.parts = 30;
  EXPECT_THROW((void)balancedKmeans(ds, opts), Error);
}

class DistributedBkmTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedBkmTest, LocalBlocksBalanced) {
  const int P = GetParam();
  const auto ds = clusteredData(320, 17);
  const Partition blocks = blockPartition(ds, P);
  const auto groups = blocks.groups();

  BalancedKMeansOptions opts;
  opts.parts = P;
  opts.seed = 43;

  std::vector<std::vector<int>> assign(P);
  net::Engine engine(P);
  engine.run([&](net::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const data::Dataset local = ds.subset(groups[r]);
    assign[r] = balancedKmeansDistributed(comm, local, opts).partition.assign;
  });

  // Global sizes end up near m/P (each rank balances its own block).
  std::vector<std::size_t> global(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    for (int a : assign[r]) {
      ASSERT_GE(a, 0);
      ASSERT_LT(a, P);
      ++global[static_cast<std::size_t>(a)];
    }
  }
  const std::size_t balanced = ds.rows() / static_cast<std::size_t>(P);
  for (std::size_t g : global) {
    EXPECT_GE(g, balanced - static_cast<std::size_t>(P));
    EXPECT_LE(g, balanced + static_cast<std::size_t>(P));
  }
}

// --- Rebalance equivalence -------------------------------------------------

/// Algorithm 5's migration exactly as first written: one full rescan of
/// the bucket per move over an m-vector of P-vectors. balancedKmeans drains
/// each over-loaded center from one sorted list instead; this is the
/// reference it must replay move for move.
std::size_t scanRebalance(const data::Dataset& ds, Partition& partition,
                          bool ratioBalanced) {
  const int parts = partition.parts;
  const auto p = static_cast<std::size_t>(parts);
  const std::size_t m = ds.rows();
  std::vector<double> centerSelf(p, 0.0);
  for (std::size_t c = 0; c < p; ++c) {
    for (float v : partition.centers[c]) centerSelf[c] += double(v) * double(v);
  }
  std::vector<std::vector<double>> dist(m, std::vector<double>(p));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < p; ++c) {
      dist[i][c] = ds.squaredDistanceTo(i, partition.centers[c], centerSelf[c]);
    }
  }
  auto bucket = [&](std::vector<std::size_t>& load,
                    const std::vector<std::size_t>& quota, auto eligible) {
    std::size_t moves = 0;
    for (int j = 0; j < parts; ++j) {
      const auto uj = static_cast<std::size_t>(j);
      while (load[uj] > quota[uj]) {
        double maxDist = -1.0;
        std::size_t maxInd = m;
        for (std::size_t i = 0; i < m; ++i) {
          if (partition.assign[i] != j || !eligible(i)) continue;
          if (dist[i][uj] > maxDist) {
            maxDist = dist[i][uj];
            maxInd = i;
          }
        }
        double minDist = std::numeric_limits<double>::infinity();
        int minInd = -1;
        for (int c = 0; c < parts; ++c) {
          const auto uc = static_cast<std::size_t>(c);
          if (load[uc] >= quota[uc]) continue;
          if (dist[maxInd][uc] < minDist) {
            minDist = dist[maxInd][uc];
            minInd = c;
          }
        }
        partition.assign[maxInd] = minInd;
        --load[uj];
        ++load[static_cast<std::size_t>(minInd)];
        ++moves;
      }
    }
    return moves;
  };
  if (!ratioBalanced) {
    std::vector<std::size_t> load(p, 0);
    for (int a : partition.assign) ++load[static_cast<std::size_t>(a)];
    const std::vector<std::size_t> quota(p, ceilDiv(m, p));
    return bucket(load, quota, [](std::size_t) { return true; });
  }
  std::size_t moves = 0;
  for (const std::int8_t cls : {std::int8_t{1}, std::int8_t{-1}}) {
    std::vector<std::size_t> load(p, 0);
    std::size_t classTotal = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (ds.label(i) == cls) {
        ++load[static_cast<std::size_t>(partition.assign[i])];
        ++classTotal;
      }
    }
    if (classTotal == 0) continue;
    const std::vector<std::size_t> quota(p, ceilDiv(classTotal, p));
    moves += bucket(load, quota,
                    [&](std::size_t i) { return ds.label(i) == cls; });
  }
  return moves;
}

/// balancedKmeans against K-means + the reference scan, for both variants.
void expectRebalanceMatchesScan(const data::Dataset& ds, int parts,
                                std::uint64_t seed) {
  for (const bool ratio : {false, true}) {
    BalancedKMeansOptions opts;
    opts.parts = parts;
    opts.ratioBalanced = ratio;
    opts.recomputeCenters = false;
    opts.seed = seed;
    const BalancedKMeansResult fast = balancedKmeans(ds, opts);

    KMeansOptions km;
    km.clusters = parts;
    km.maxLoops = opts.maxKmeansLoops;
    km.changeThreshold = opts.kmeansChangeThreshold;
    km.seed = seed;
    Partition ref = kmeans(ds, km).partition;
    const std::size_t refMoves = scanRebalance(ds, ref, ratio);
    EXPECT_GT(refMoves, 0u) << "ratio " << ratio << ": nothing rebalanced";
    EXPECT_EQ(fast.moves, refMoves) << "ratio " << ratio;
    EXPECT_EQ(fast.partition.assign, ref.assign) << "ratio " << ratio;
  }
}

TEST(BalancedKMeansRebalanceTest, MatchesScanOnRandomInputs) {
  for (std::uint64_t seed : {3, 11, 29}) {
    for (int parts : {3, 5, 8}) {
      expectRebalanceMatchesScan(clusteredData(397, seed, 0.3), parts, seed);
    }
  }
}

TEST(BalancedKMeansRebalanceTest, MatchesScanWithTiedDistances) {
  // Five distinct points, each repeated with alternating labels and
  // unequal multiplicities: every over-loaded center holds runs of
  // samples at exactly equal distance, so only the index tie-break
  // decides which of them moves first.
  const std::vector<std::vector<float>> points = {
      {0, 0}, {0, 1}, {5, 5}, {5, 6}, {9, 0}};
  const std::vector<std::size_t> repeats = {90, 7, 60, 5, 38};
  std::vector<float> values;
  std::vector<std::int8_t> labels;
  for (std::size_t r = 0; r < 90; ++r) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (r >= repeats[p]) continue;
      values.insert(values.end(), points[p].begin(), points[p].end());
      labels.push_back((r + p) % 3 == 0 ? -1 : 1);
    }
  }
  const data::Dataset ds =
      data::Dataset::fromDense(2, std::move(values), std::move(labels));
  for (int parts : {3, 4, 6}) expectRebalanceMatchesScan(ds, parts, 42);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedBkmTest,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace casvm::cluster
