#include "casvm/kernel/row_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "casvm/data/synth.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/rng.hpp"

namespace casvm::kernel {
namespace {

data::Dataset makeData(std::size_t rows = 30) {
  data::MixtureSpec spec;
  spec.samples = rows;
  spec.features = 5;
  spec.seed = 21;
  return data::generateMixture(spec);
}

TEST(RowCacheTest, ValuesMatchDirectEvaluation) {
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  const auto row = cache.row(3);
  ASSERT_EQ(row.size(), ds.rows());
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_DOUBLE_EQ(row[j], k.eval(ds, 3, j));
  }
}

TEST(RowCacheTest, HitsAndMissesCounted) {
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  cache.row(0);
  cache.row(0);
  cache.row(1);
  cache.row(0);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(RowCacheTest, EvictsLeastRecentlyUsed) {
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  // Budget for exactly two rows.
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(double));
  ASSERT_EQ(cache.capacityRows(), 2u);
  cache.row(0);  // miss
  cache.row(1);  // miss
  cache.row(0);  // hit (0 becomes MRU)
  cache.row(2);  // miss, evicts 1
  cache.row(0);  // hit
  cache.row(1);  // miss again (was evicted)
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(RowCacheTest, EvictedRowRecomputedCorrectly) {
  const auto ds = makeData(10);
  const Kernel k(KernelParams::linear());
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(double));  // two rows
  cache.row(0);
  cache.row(1);
  cache.row(2);  // evicts row 0
  const auto row0 = cache.row(0);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_DOUBLE_EQ(row0[j], k.eval(ds, 0, j));
  }
}

TEST(RowCacheTest, TinyBudgetStillGrantsTwoRows) {
  // SMO holds spans to two rows of the same iteration, so the cache never
  // shrinks below two slots no matter the budget.
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1);
  EXPECT_EQ(cache.capacityRows(), 2u);
  const auto a = cache.row(5);
  const auto b = cache.row(6);
  EXPECT_NE(a.data(), b.data());  // both rows live simultaneously
  EXPECT_EQ(a.size(), ds.rows());
}

TEST(RowCacheTest, OutOfRangeRowThrows) {
  const auto ds = makeData(10);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  EXPECT_THROW((void)cache.row(10), Error);
}

TEST(RowCacheTest, PinnedRowsSurviveEvictionPressure) {
  // The solver's exact usage at the capacity floor: two pinned rows, then
  // further fills. Eviction must never recycle a pinned slot's backing
  // vector, even when every budgeted slot is pinned.
  const auto ds = makeData(12);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(double));
  ASSERT_EQ(cache.capacityRows(), 2u);
  const auto rowA = cache.row(0);
  cache.pin(0);
  const auto genA = cache.generation(0);
  const auto rowB = cache.row(1);
  cache.pin(1);
  const auto genB = cache.generation(1);
  EXPECT_EQ(cache.pinnedRows(), 2u);
  // Both slots pinned: these fills must grow past the budget, not recycle.
  (void)cache.row(2);
  (void)cache.row(3);
  cache.checkLive(0, genA);
  cache.checkLive(1, genB);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_DOUBLE_EQ(rowA[j], k.eval(ds, 0, j));
    EXPECT_DOUBLE_EQ(rowB[j], k.eval(ds, 1, j));
  }
  cache.unpin(0);
  cache.unpin(1);
  EXPECT_EQ(cache.pinnedRows(), 0u);
}

TEST(RowCacheTest, PinsNest) {
  const auto ds = makeData(8);
  const Kernel k(KernelParams::linear());
  RowCache cache(k, ds, 1 << 20);
  (void)cache.row(4);
  cache.pin(4);
  cache.pin(4);
  EXPECT_EQ(cache.pinnedRows(), 1u);
  cache.unpin(4);
  EXPECT_EQ(cache.pinnedRows(), 1u);  // still pinned once
  cache.unpin(4);
  EXPECT_EQ(cache.pinnedRows(), 0u);
}

TEST(RowCacheTest, GenerationDetectsEviction) {
  const auto ds = makeData(10);
  const Kernel k(KernelParams::linear());
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(double));
  (void)cache.row(0);
  const auto gen = cache.generation(0);
  ASSERT_NE(gen, 0u);
  cache.checkLive(0, gen);   // cached: passes
  (void)cache.row(1);
  (void)cache.row(2);        // evicts row 0
  EXPECT_EQ(cache.generation(0), 0u);
  EXPECT_THROW(cache.checkLive(0, gen), Error);  // use-after-evict tripwire
  (void)cache.row(0);        // refilled under a fresh generation
  EXPECT_NE(cache.generation(0), gen);
  EXPECT_THROW(cache.checkLive(0, gen), Error);  // stale generation rejected
}

TEST(RowCacheTest, PartialFillComputesActiveEntriesOnly) {
  // Large enough that the small active sets below stay under the
  // full-fill cutoff (active * 4 < rows) and genuinely fill partially.
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  const std::vector<std::size_t> active = {0, 2, 5, 9};
  const auto row = cache.row(3, active);
  EXPECT_EQ(cache.partialFills(), 1u);
  for (std::size_t j : active) {
    EXPECT_DOUBLE_EQ(row[j], k.eval(ds, 3, j));
  }
  // A shrunk active set (subset of the fill set) is served from the same
  // partial slot.
  const std::vector<std::size_t> shrunk = {2, 9};
  (void)cache.row(3, shrunk);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.partialFills(), 1u);
}

TEST(RowCacheTest, FullReadUpgradesPartialFill) {
  // Large enough that the small active sets below stay under the
  // full-fill cutoff (active * 4 < rows) and genuinely fill partially.
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  const std::vector<std::size_t> active = {1, 4, 7};
  (void)cache.row(3, active);
  const auto full = cache.row(3);  // upgrade: counted as a miss
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_DOUBLE_EQ(full[j], k.eval(ds, 3, j));
  }
}

TEST(RowCacheTest, InvalidatePartialDropsOnlyPartialRows) {
  // Large enough that the small active sets below stay under the
  // full-fill cutoff (active * 4 < rows) and genuinely fill partially.
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  const std::vector<std::size_t> active = {0, 1, 2};
  (void)cache.row(5, active);  // partial
  (void)cache.row(6);          // full
  cache.invalidatePartial();
  EXPECT_EQ(cache.generation(5), 0u);  // dropped
  EXPECT_NE(cache.generation(6), 0u);  // kept
  // Re-reading the dropped row over a *grown* active set recomputes it.
  const std::vector<std::size_t> grown = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto row = cache.row(5, grown);
  for (std::size_t j : grown) {
    EXPECT_DOUBLE_EQ(row[j], k.eval(ds, 5, j));
  }
}

// --- Pair fetch ---------------------------------------------------------

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Counts fills and forwards them to the exact kernel.
class CountingSource final : public RowSource {
 public:
  CountingSource(const Kernel& k, const data::Dataset& ds) : exact_(k, ds) {}
  std::size_t rows() const override { return exact_.rows(); }
  void fillRow(std::size_t i, std::span<double> out) override {
    ++singleFills;
    exact_.fillRow(i, out);
  }
  void fillRowPair(std::size_t a, std::span<double> outA, std::size_t b,
                   std::span<double> outB) override {
    ++pairFills;
    exact_.fillRowPair(a, outA, b, outB);
  }
  void fillRowSubset(std::size_t i, std::span<const std::size_t> active,
                     std::span<double> out) override {
    exact_.fillRowSubset(i, active, out);
  }
  void fillDiagonal(std::span<double> out) override {
    exact_.fillDiagonal(out);
  }
  bool preferFullFill(std::size_t activeCount) const override {
    return exact_.preferFullFill(activeCount);
  }

  std::size_t singleFills = 0;
  std::size_t pairFills = 0;

 private:
  ExactRowSource exact_;
};

/// Every observable of the cache: counters plus, per row, its generation
/// (0 when not cached) — the set of cached rows after a run of fetches
/// pins down the eviction order.
void expectSameState(const RowCache& pair, const RowCache& seq,
                     std::size_t rows, const std::string& where) {
  ASSERT_EQ(pair.hits(), seq.hits()) << where;
  ASSERT_EQ(pair.misses(), seq.misses()) << where;
  ASSERT_EQ(pair.pinnedRows(), seq.pinnedRows()) << where;
  ASSERT_EQ(pair.partialFills(), seq.partialFills()) << where;
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_EQ(pair.generation(i), seq.generation(i)) << where << " row " << i;
  }
}

/// Random fetch sequence under eviction pressure: rowPair on one cache,
/// row(a); pin(a); row(b); pin(b) on another, with long-lived pins and
/// partial fills mixed in. Values, counters, pins, generations and the
/// cached set must agree after every step.
void pairFetchMatchesSequential(const data::Dataset& ds) {
  const Kernel k(KernelParams::gaussian(0.4));
  const std::size_t m = ds.rows();
  const std::size_t budget = 5 * m * sizeof(double);
  ExactRowSource srcPair(k, ds), srcSeq(k, ds);
  RowCache pair(srcPair, budget), seq(srcSeq, budget);
  ASSERT_EQ(pair.capacityRows(), 5u);
  Rng rng(99);
  std::vector<std::size_t> held;  // rows pinned across steps, on both
  const std::vector<std::size_t> active = {1, 2, 3};  // partial: 3*4 < m
  for (int step = 0; step < 400; ++step) {
    const std::string where = "step " + std::to_string(step);
    const std::size_t a = rng.below(m);
    const std::size_t b = rng.below(8) == 0 ? a : rng.below(m);
    if (rng.below(10) == 0) {
      // A partial fill that a later full read must upgrade.
      (void)pair.row(a, active);
      (void)seq.row(a, active);
      expectSameState(pair, seq, m, where);
      continue;
    }
    const auto [rowA, rowB] = pair.rowPair(a, b);
    const auto seqA = seq.row(a);
    seq.pin(a);
    const auto seqB = seq.row(b);
    seq.pin(b);
    expectSameState(pair, seq, m, where);
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(bits(rowA[j]), bits(seqA[j])) << where;
      ASSERT_EQ(bits(rowB[j]), bits(seqB[j])) << where;
      ASSERT_EQ(bits(rowA[j]), bits(k.eval(ds, a, j))) << where;
      ASSERT_EQ(bits(rowB[j]), bits(k.eval(ds, b, j))) << where;
    }
    // Usually release the pair; sometimes keep one row pinned for a while.
    for (std::size_t r : {a, b}) {
      if (rng.below(6) == 0 && held.size() < 4) {
        held.push_back(r);
      } else {
        pair.unpin(r);
        seq.unpin(r);
      }
    }
    if (!held.empty() && rng.below(3) == 0) {
      pair.unpin(held.front());
      seq.unpin(held.front());
      held.erase(held.begin());
    }
    expectSameState(pair, seq, m, where);
  }
}

TEST(RowCachePairTest, DenseMatchesSequentialFetches) {
  pairFetchMatchesSequential(makeData(40));
}

TEST(RowCachePairTest, SparseMatchesSequentialFetches) {
  data::MixtureSpec spec;
  spec.samples = 40;
  spec.features = 30;
  spec.sparsity = 0.7;
  spec.sparseOutput = true;
  spec.seed = 23;
  const auto ds = data::generateMixture(spec);
  ASSERT_EQ(ds.storage(), data::Storage::Sparse);
  pairFetchMatchesSequential(ds);
}

TEST(RowCachePairTest, BothMissesFillInOnePass) {
  const auto ds = makeData(40);
  const Kernel k(KernelParams::gaussian(0.4));
  CountingSource src(k, ds);
  RowCache cache(src, 1 << 20);
  (void)cache.rowPair(3, 7);  // both miss: one pair fill
  EXPECT_EQ(src.pairFills, 1u);
  EXPECT_EQ(src.singleFills, 0u);
  cache.unpin(3);
  cache.unpin(7);
  (void)cache.rowPair(7, 9);  // one miss: a single fill
  EXPECT_EQ(src.pairFills, 1u);
  EXPECT_EQ(src.singleFills, 1u);
  cache.unpin(7);
  cache.unpin(9);
  (void)cache.rowPair(11, 11);  // same row twice: a miss, then a hit
  EXPECT_EQ(src.singleFills, 2u);
  EXPECT_EQ(cache.pinnedRows(), 1u);
  cache.unpin(11);
  cache.unpin(11);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(RowCachePairTest, KernelRowPairMatchesTwoRowFills) {
  const auto ds = makeData(37);  // 37 rows: a tail block of 5
  for (const KernelParams& params :
       {KernelParams::linear(), KernelParams::polynomial(0.5, 1.0, 3),
        KernelParams::gaussian(0.4), KernelParams::sigmoid(0.01, -0.1)}) {
    const Kernel k(params);
    RowWorkspace ws;
    std::vector<double> a(ds.rows()), b(ds.rows()), ra(ds.rows()),
        rb(ds.rows());
    k.rowPair(ds, 4, a, 36, b, ws);
    k.row(ds, 4, ra, ws);
    k.row(ds, 36, rb, ws);
    for (std::size_t j = 0; j < ds.rows(); ++j) {
      ASSERT_EQ(bits(a[j]), bits(ra[j])) << j;
      ASSERT_EQ(bits(b[j]), bits(rb[j])) << j;
    }
  }
}

}  // namespace
}  // namespace casvm::kernel
