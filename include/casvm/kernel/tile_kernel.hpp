#pragma once

/// \file tile_kernel.hpp
/// The blocked tile-dot micro-kernel behind RowWorkspace-accelerated row
/// fills, exposed so other subsystems (the serve engine's compiled models,
/// the Nyström factor) can score against the same 16-row k-major float
/// tiling the solver uses.
///
/// Layout: tiles[block][k][0..15] holds column k of rows 16*block ..
/// 16*block+15 (tail block zero-padded). One dot pass needs no
/// transposition — per k it broadcasts xd[k] and streams 16 contiguous
/// floats — and every output row accumulates serially over ascending k into
/// a single double, so the sums are bitwise-identical to Dataset::dot /
/// Dataset::dotWith against the same row bytes (multiplies and adds are
/// kept separate; no FMA contraction).
///
/// Two entry points share that contract. dotFn() scores one query per pass
/// over the tiles (AVX2 or portable). dotMany() scores a batch of queries
/// and streams each tile once for up to kMaxQueries of them: on AVX-512
/// CPUs a group kernel keeps 2-4 queries' accumulators in registers
/// against one load of the tile, so a pass costs little more than one
/// query's pass. A lone query still goes through dotFn's AVX2 kernel, which
/// is as fast as a single-query AVX-512 pass. Every output of dotMany is
/// bitwise-identical to the dotFn output for the same query.

#include <cstddef>
#include <span>
#include <vector>

#include "casvm/data/dataset.hpp"

namespace casvm::kernel::tile {

/// Rows per block of the tiled layout.
inline constexpr std::size_t kRows = 16;

/// Queries that dotMany streams through one pass over the tiles.
inline constexpr std::size_t kMaxQueries = 4;

/// Number of 16-row blocks needed for m rows.
inline constexpr std::size_t blockCount(std::size_t m) {
  return m / kRows + (m % kRows != 0);  // no wrap for m near SIZE_MAX
}

/// Pack the dense rows of `ds` into the blocked k-major layout
/// (blockCount(rows) * cols * kRows floats, tail block zero-padded).
/// Only valid for Storage::Dense.
void pack(const data::Dataset& ds, std::vector<float>& tiles);

/// out[j] = sum_k xd[k] * tiles(j, k) for j in [0, m). `xd` has n entries;
/// accumulation per row is serial over ascending k into one double.
using DotFn = void (*)(const float* tiles, const double* xd, std::size_t m,
                       std::size_t n, double* out);

/// Runtime-dispatched implementation (AVX2 when the CPU supports it,
/// portable otherwise). Both produce bitwise-identical sums.
DotFn dotFn();

/// out[p*m + j] = sum_k xd[p*n + k] * tiles(j, k) for query p in [0, q)
/// and row j in [0, m): q queries of n entries each, q output rows of m.
using DotManyFn = void (*)(const float* tiles, const double* xd,
                           std::size_t q, std::size_t m, std::size_t n,
                           double* out);

/// Runtime-dispatched multi-query tile-dot (see file comment): AVX-512
/// query groups when the CPU supports them, one AVX2 pass per query when it
/// only has AVX2, portable query groups otherwise.
void dotMany(const float* tiles, const double* xd, std::size_t q,
             std::size_t m, std::size_t n, double* out);

/// One implementation of dotMany, listed so tests can run each kernel the
/// CPU supports against the scalar reference.
struct DotManyImpl {
  const char* name;  ///< "portable", "avx2" or "avx512"
  bool supported;    ///< this CPU can run it
  DotManyFn fn;
};

/// Every implementation compiled in, supported or not.
std::span<const DotManyImpl> dotManyImpls();

}  // namespace casvm::kernel::tile
