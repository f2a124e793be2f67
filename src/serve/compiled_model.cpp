#include "casvm/serve/compiled_model.hpp"

#include <algorithm>
#include <cmath>

#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/support/error.hpp"

namespace casvm::serve {

namespace {

/// Rows scored per dotRows call: several multi-query passes' worth, so
/// tile::dotMany can size the passes evenly (10 rows: 4 + 3 + 3) while the
/// per-chunk kernel values stay a few hundred KiB.
constexpr std::size_t kChunk = 4 * kernel::tile::kMaxQueries;

}  // namespace

CompiledSvSet::CompiledSvSet(const data::Dataset& svs)
    : count_(svs.rows()), cols_(svs.cols()),
      dense_(svs.storage() == data::Storage::Dense) {
  selfDots_.reserve(count_);
  for (std::size_t s = 0; s < count_; ++s) selfDots_.push_back(svs.selfDot(s));
  if (count_ == 0) return;
  if (dense_) {
    kernel::tile::pack(svs, tiles_);
    return;
  }
  rowPtr_.reserve(count_ + 1);
  rowPtr_.push_back(0);
  for (std::size_t s = 0; s < count_; ++s) {
    const auto idx = svs.sparseIndices(s);
    const auto val = svs.sparseValues(s);
    colIdx_.insert(colIdx_.end(), idx.begin(), idx.end());
    vals_.insert(vals_.end(), val.begin(), val.end());
    rowPtr_.push_back(colIdx_.size());
  }
}

std::size_t CompiledSvSet::packedBytes() const {
  return tiles_.size() * sizeof(float) + vals_.size() * sizeof(float) +
         colIdx_.size() * sizeof(std::uint32_t) +
         rowPtr_.size() * sizeof(std::size_t) +
         selfDots_.size() * sizeof(double);
}

void CompiledSvSet::dotAgainstScratch(std::size_t q, std::span<double> kval,
                                      BatchScratch& scratch) const {
  if (dense_) {
    kernel::tile::dotMany(tiles_.data(), scratch.xd.data(), q, count_, cols_,
                          kval.data());
    return;
  }
  // CSR scatter: each query sits densified in scratch.xd; each SV streams
  // its nonzeros against it in ascending-column order, which is
  // bitwise-identical to Dataset::dotWith / the sparse-sparse merge join
  // (zero products never perturb the running sum).
  for (std::size_t p = 0; p < q; ++p) {
    const double* xd = scratch.xd.data() + p * cols_;
    double* out = kval.data() + p * count_;
    for (std::size_t s = 0; s < count_; ++s) {
      double acc = 0.0;
      for (std::size_t e = rowPtr_[s]; e < rowPtr_[s + 1]; ++e) {
        acc += double(vals_[e]) * xd[colIdx_[e]];
      }
      out[s] = acc;
    }
  }
}

void CompiledSvSet::dotRow(const data::Dataset& ds, std::size_t i,
                           std::span<double> kval,
                           BatchScratch& scratch) const {
  dotRows(ds, std::span<const std::size_t>(&i, 1), kval, scratch);
}

void CompiledSvSet::dotRows(const data::Dataset& ds,
                            std::span<const std::size_t> rows,
                            std::span<double> kval,
                            BatchScratch& scratch) const {
  CASVM_CHECK(ds.cols() == cols_, "query feature count differs from SVs");
  CASVM_CHECK(kval.size() >= rows.size() * count_,
              "kernel value buffer too small");
  scratch.xd.assign(rows.size() * cols_, 0.0);
  for (std::size_t p = 0; p < rows.size(); ++p) {
    double* xd = scratch.xd.data() + p * cols_;
    if (ds.storage() == data::Storage::Dense) {
      const std::span<const float> r = ds.denseRow(rows[p]);
      for (std::size_t k = 0; k < cols_; ++k) xd[k] = double(r[k]);
    } else {
      const auto idx = ds.sparseIndices(rows[p]);
      const auto val = ds.sparseValues(rows[p]);
      for (std::size_t e = 0; e < idx.size(); ++e) xd[idx[e]] = double(val[e]);
    }
  }
  dotAgainstScratch(rows.size(), kval, scratch);
}

void CompiledSvSet::dotVector(std::span<const float> x, std::span<double> kval,
                              BatchScratch& scratch) const {
  CASVM_CHECK(x.size() == cols_, "query feature count differs from SVs");
  CASVM_CHECK(kval.size() >= count_, "kernel value buffer too small");
  scratch.xd.resize(cols_);
  for (std::size_t k = 0; k < cols_; ++k) scratch.xd[k] = double(x[k]);
  dotAgainstScratch(1, kval, scratch);
}

void transformDots(const kernel::KernelParams& params, const CompiledSvSet& svs,
                   double querySelfDot, std::span<double> kval) {
  const std::size_t m = svs.size();
  switch (params.type) {
    case kernel::KernelType::Linear:
      break;
    case kernel::KernelType::Polynomial:
      for (std::size_t s = 0; s < m; ++s) {
        kval[s] = std::pow(params.a * kval[s] + params.r, params.degree);
      }
      break;
    case kernel::KernelType::Gaussian:
      for (std::size_t s = 0; s < m; ++s) {
        // Same order as Kernel::fromDot: selfI (SV) + selfJ (query) first.
        const double d2 = svs.selfDot(s) + querySelfDot - 2.0 * kval[s];
        kval[s] = std::exp(-params.gamma * (d2 > 0.0 ? d2 : 0.0));
      }
      break;
    case kernel::KernelType::Sigmoid:
      for (std::size_t s = 0; s < m; ++s) {
        kval[s] = std::tanh(params.a * kval[s] + params.r);
      }
      break;
  }
}

CompiledModel::CompiledModel(kernel::KernelParams params,
                             const data::Dataset& svs,
                             std::vector<double> alphaY, double bias)
    : params_(params), svs_(svs), alphaY_(std::move(alphaY)), bias_(bias) {
  CASVM_CHECK(svs_.size() == alphaY_.size(),
              "one coefficient per support vector required");
}

double CompiledModel::reduce(std::span<const double> kval) const {
  double acc = bias_;
  for (std::size_t s = 0; s < alphaY_.size(); ++s) {
    acc += alphaY_[s] * kval[s];
  }
  return acc;
}

void CompiledModel::scoreChunk(const data::Dataset& ds,
                               std::span<const std::size_t> rows, double* out,
                               BatchScratch& scratch) const {
  const std::size_t count = svs_.size();
  scratch.kval.resize(rows.size() * count);
  svs_.dotRows(ds, rows, scratch.kval, scratch);
  for (std::size_t p = 0; p < rows.size(); ++p) {
    const std::span<double> kval(scratch.kval.data() + p * count, count);
    transformDots(params_, svs_, ds.selfDot(rows[p]), kval);
    out[p] = reduce(kval);
  }
}

void CompiledModel::decisionBatch(const data::Dataset& ds,
                                  std::span<const std::size_t> rows,
                                  std::span<double> out,
                                  BatchScratch& scratch) const {
  CASVM_CHECK(out.size() >= rows.size(), "output buffer too small");
  if (svs_.empty()) {
    for (std::size_t j = 0; j < rows.size(); ++j) out[j] = bias_;
    return;
  }
  for (std::size_t j = 0; j < rows.size(); j += kChunk) {
    const std::size_t q = std::min(kChunk, rows.size() - j);
    scoreChunk(ds, rows.subspan(j, q), out.data() + j, scratch);
  }
}

void CompiledModel::decisionAll(const data::Dataset& ds, std::span<double> out,
                                BatchScratch& scratch) const {
  CASVM_CHECK(out.size() >= ds.rows(), "output buffer too small");
  if (svs_.empty()) {
    for (std::size_t i = 0; i < ds.rows(); ++i) out[i] = bias_;
    return;
  }
  std::size_t rows[kChunk];
  for (std::size_t i = 0; i < ds.rows(); i += kChunk) {
    const std::size_t q = std::min(kChunk, ds.rows() - i);
    for (std::size_t p = 0; p < q; ++p) rows[p] = i + p;
    scoreChunk(ds, std::span<const std::size_t>(rows, q), out.data() + i,
               scratch);
  }
}

double CompiledModel::decision(std::span<const float> x,
                               BatchScratch& scratch) const {
  if (svs_.empty()) return bias_;
  // Same accumulation order as Model::decision's xSelf.
  double xSelf = 0.0;
  for (float v : x) xSelf += double(v) * double(v);
  scratch.kval.resize(svs_.size());
  svs_.dotVector(x, scratch.kval, scratch);
  transformDots(params_, svs_, xSelf, scratch.kval);
  return reduce(scratch.kval);
}

}  // namespace casvm::serve
