#include "casvm/data/dataset.hpp"

#include <algorithm>

#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"

namespace casvm::data {

namespace {

void checkLabels(const std::vector<std::int8_t>& labels) {
  for (std::int8_t y : labels) {
    CASVM_CHECK(y == 1 || y == -1, "labels must be +1 or -1");
  }
}

}  // namespace

Dataset Dataset::fromDense(std::size_t cols, std::vector<float> values,
                           std::vector<std::int8_t> labels) {
  CASVM_CHECK(cols > 0 || labels.empty(),
              "non-empty dataset needs at least one feature");
  CASVM_CHECK(values.size() == cols * labels.size(),
              "values size must be rows*cols");
  checkLabels(labels);
  Dataset ds;
  ds.storage_ = Storage::Dense;
  ds.cols_ = cols;
  ds.dense_ = std::move(values);
  ds.labels_ = std::move(labels);
  ds.computeSelfDots();
  return ds;
}

Dataset Dataset::fromSparse(std::size_t cols, std::vector<std::size_t> rowPtr,
                            std::vector<std::uint32_t> colIdx,
                            std::vector<float> values,
                            std::vector<std::int8_t> labels) {
  CASVM_CHECK(cols > 0 || labels.empty(),
              "non-empty dataset needs at least one feature");
  CASVM_CHECK(rowPtr.size() == labels.size() + 1,
              "rowPtr must have rows+1 entries");
  CASVM_CHECK(rowPtr.front() == 0 && rowPtr.back() == colIdx.size(),
              "rowPtr must start at 0 and end at nnz");
  CASVM_CHECK(colIdx.size() == values.size(), "colIdx/values size mismatch");
  checkLabels(labels);
  for (std::size_t i = 0; i + 1 < rowPtr.size(); ++i) {
    CASVM_CHECK(rowPtr[i] <= rowPtr[i + 1], "rowPtr must be nondecreasing");
    for (std::size_t k = rowPtr[i]; k + 1 < rowPtr[i + 1]; ++k) {
      CASVM_CHECK(colIdx[k] < colIdx[k + 1],
                  "column indices must be strictly increasing per row");
    }
  }
  for (std::uint32_t c : colIdx) {
    CASVM_CHECK(c < cols, "column index out of range");
  }
  Dataset ds;
  ds.storage_ = Storage::Sparse;
  ds.cols_ = cols;
  ds.rowPtr_ = std::move(rowPtr);
  ds.colIdx_ = std::move(colIdx);
  ds.sparseVals_ = std::move(values);
  ds.labels_ = std::move(labels);
  ds.computeSelfDots();
  return ds;
}

std::size_t Dataset::positives() const {
  std::size_t count = 0;
  for (std::int8_t y : labels_) count += (y == 1);
  return count;
}

std::size_t Dataset::nonzeros() const {
  return storage_ == Storage::Dense ? rows() * cols_ : sparseVals_.size();
}

std::size_t Dataset::sampleBytes() const {
  if (storage_ == Storage::Dense) return dense_.size() * sizeof(float);
  return colIdx_.size() * sizeof(std::uint32_t) +
         sparseVals_.size() * sizeof(float) +
         rowPtr_.size() * sizeof(std::size_t);
}

std::span<const float> Dataset::denseRow(std::size_t i) const {
  CASVM_ASSERT(storage_ == Storage::Dense, "denseRow on sparse dataset");
  CASVM_ASSERT(i < rows(), "row out of range");
  return {dense_.data() + i * cols_, cols_};
}

std::span<const std::uint32_t> Dataset::sparseIndices(std::size_t i) const {
  CASVM_ASSERT(storage_ == Storage::Sparse, "sparseIndices on dense dataset");
  CASVM_ASSERT(i < rows(), "row out of range");
  return {colIdx_.data() + rowPtr_[i], rowPtr_[i + 1] - rowPtr_[i]};
}

std::span<const float> Dataset::sparseValues(std::size_t i) const {
  CASVM_ASSERT(storage_ == Storage::Sparse, "sparseValues on dense dataset");
  CASVM_ASSERT(i < rows(), "row out of range");
  return {sparseVals_.data() + rowPtr_[i], rowPtr_[i + 1] - rowPtr_[i]};
}

double Dataset::dot(std::size_t i, std::size_t j) const {
  CASVM_ASSERT(i < rows() && j < rows(), "row out of range");
  if (storage_ == Storage::Dense) {
    const float* a = dense_.data() + i * cols_;
    const float* b = dense_.data() + j * cols_;
    double acc = 0.0;
    for (std::size_t k = 0; k < cols_; ++k) acc += double(a[k]) * double(b[k]);
    return acc;
  }
  // Sparse-sparse merge join over sorted column indices.
  std::size_t pa = rowPtr_[i], ea = rowPtr_[i + 1];
  std::size_t pb = rowPtr_[j], eb = rowPtr_[j + 1];
  double acc = 0.0;
  while (pa < ea && pb < eb) {
    const std::uint32_t ca = colIdx_[pa], cb = colIdx_[pb];
    if (ca == cb) {
      acc += double(sparseVals_[pa]) * double(sparseVals_[pb]);
      ++pa;
      ++pb;
    } else if (ca < cb) {
      ++pa;
    } else {
      ++pb;
    }
  }
  return acc;
}

double Dataset::dotWith(std::size_t i, std::span<const float> x) const {
  CASVM_ASSERT(i < rows(), "row out of range");
  CASVM_CHECK(x.size() == cols_, "external vector has wrong length");
  double acc = 0.0;
  if (storage_ == Storage::Dense) {
    const float* a = dense_.data() + i * cols_;
    for (std::size_t k = 0; k < cols_; ++k) acc += double(a[k]) * double(x[k]);
    return acc;
  }
  for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
    acc += double(sparseVals_[p]) * double(x[colIdx_[p]]);
  }
  return acc;
}

void Dataset::addRowTo(std::size_t i, std::span<double> acc) const {
  CASVM_ASSERT(i < rows(), "row out of range");
  CASVM_CHECK(acc.size() == cols_, "accumulator has wrong length");
  if (storage_ == Storage::Dense) {
    const float* a = dense_.data() + i * cols_;
    for (std::size_t k = 0; k < cols_; ++k) acc[k] += a[k];
    return;
  }
  for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
    acc[colIdx_[p]] += sparseVals_[p];
  }
}

void Dataset::copyRowDense(std::size_t i, std::span<float> out) const {
  CASVM_ASSERT(i < rows(), "row out of range");
  CASVM_CHECK(out.size() == cols_, "output has wrong length");
  if (storage_ == Storage::Dense) {
    const float* a = dense_.data() + i * cols_;
    std::copy(a, a + cols_, out.begin());
    return;
  }
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
    out[colIdx_[p]] = sparseVals_[p];
  }
}

Dataset Dataset::subset(std::span<const std::size_t> idx) const {
  std::vector<std::int8_t> labels;
  labels.reserve(idx.size());
  for (std::size_t i : idx) {
    CASVM_CHECK(i < rows(), "subset index out of range");
    labels.push_back(labels_[i]);
  }
  if (storage_ == Storage::Dense) {
    std::vector<float> values;
    values.reserve(idx.size() * cols_);
    for (std::size_t i : idx) {
      const float* a = dense_.data() + i * cols_;
      values.insert(values.end(), a, a + cols_);
    }
    return fromDense(cols_, std::move(values), std::move(labels));
  }
  std::vector<std::size_t> rowPtr{0};
  std::vector<std::uint32_t> colIdx;
  std::vector<float> values;
  for (std::size_t i : idx) {
    for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
      colIdx.push_back(colIdx_[p]);
      values.push_back(sparseVals_[p]);
    }
    rowPtr.push_back(colIdx.size());
  }
  return fromSparse(cols_, std::move(rowPtr), std::move(colIdx),
                    std::move(values), std::move(labels));
}

Dataset Dataset::concat(const Dataset& a, const Dataset& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  CASVM_CHECK(a.cols_ == b.cols_, "concat: feature counts differ");
  CASVM_CHECK(a.storage_ == b.storage_, "concat: storage kinds differ");
  std::vector<std::int8_t> labels = a.labels_;
  labels.insert(labels.end(), b.labels_.begin(), b.labels_.end());
  if (a.storage_ == Storage::Dense) {
    std::vector<float> values = a.dense_;
    values.insert(values.end(), b.dense_.begin(), b.dense_.end());
    return fromDense(a.cols_, std::move(values), std::move(labels));
  }
  std::vector<std::size_t> rowPtr = a.rowPtr_;
  const std::size_t offset = a.sparseVals_.size();
  for (std::size_t i = 1; i < b.rowPtr_.size(); ++i) {
    rowPtr.push_back(b.rowPtr_[i] + offset);
  }
  std::vector<std::uint32_t> colIdx = a.colIdx_;
  colIdx.insert(colIdx.end(), b.colIdx_.begin(), b.colIdx_.end());
  std::vector<float> values = a.sparseVals_;
  values.insert(values.end(), b.sparseVals_.begin(), b.sparseVals_.end());
  return fromSparse(a.cols_, std::move(rowPtr), std::move(colIdx),
                    std::move(values), std::move(labels));
}

Dataset Dataset::relabel(Dataset ds, std::vector<std::int8_t> labels) {
  CASVM_CHECK(labels.size() == ds.rows(), "one label per row required");
  checkLabels(labels);
  ds.labels_ = std::move(labels);
  return ds;
}

std::vector<std::byte> Dataset::pack(std::span<const std::size_t> idx) const {
  // Header: storage u8, 7 zero bytes, then rows, cols, nnz as u64 (the
  // layout of the 32-byte struct this format was first written from).
  const bool dense = storage_ == Storage::Dense;
  std::uint64_t nnz = dense ? idx.size() * cols_ : 0;
  if (!dense) {
    for (std::size_t i : idx) nnz += rowPtr_[i + 1] - rowPtr_[i];
  }
  support::ByteWriter w;
  w.reserve(32 + idx.size() +
            (dense ? nnz * sizeof(float)
                   : idx.size() * sizeof(std::uint64_t) +
                         nnz * (sizeof(std::uint32_t) + sizeof(float))));
  w.scalar(static_cast<std::uint8_t>(storage_));
  w.pad(7);
  w.scalar<std::uint64_t>(idx.size());
  w.scalar<std::uint64_t>(cols_);
  w.scalar(nnz);
  std::byte* labels = w.extend(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    labels[k] = static_cast<std::byte>(labels_[idx[k]]);
  }
  const std::span<const float> denseRows(dense_);
  const std::span<const std::uint32_t> cols(colIdx_);
  const std::span<const float> vals(sparseVals_);
  for (std::size_t i : idx) {
    if (dense) {
      w.raw(denseRows.subspan(i * cols_, cols_));
      continue;
    }
    const std::uint64_t len = rowPtr_[i + 1] - rowPtr_[i];
    w.scalar(len);
    w.raw(cols.subspan(rowPtr_[i], len));
    w.raw(vals.subspan(rowPtr_[i], len));
  }
  return w.take();
}

std::vector<std::byte> Dataset::packAll() const {
  std::vector<std::size_t> idx(rows());
  for (std::size_t i = 0; i < rows(); ++i) idx[i] = i;
  return pack(idx);
}

Dataset Dataset::unpack(std::span<const std::byte> bytes) {
  support::ByteReader in(bytes, "dataset unpack");
  const auto storage = in.scalar<std::uint8_t>();
  in.pad(7);
  const auto m = in.scalar<std::uint64_t>();
  const auto n = in.scalar<std::uint64_t>();
  const auto nnz = in.scalar<std::uint64_t>();
  std::vector<std::int8_t> labels = in.array<std::int8_t>(m);

  if (storage == static_cast<std::uint8_t>(Storage::Dense)) {
    std::vector<float> values = in.array<float>(in.product(m, n));
    in.expectEnd();
    return fromDense(n, std::move(values), std::move(labels));
  }

  // nnz only sizes the reservations, so it must fit what is left first.
  in.checkCount(nnz, sizeof(std::uint32_t) + sizeof(float));
  std::vector<std::size_t> rowPtr{0};
  std::vector<std::uint32_t> colIdx;
  std::vector<float> values;
  colIdx.reserve(nnz);
  values.reserve(nnz);
  for (std::size_t i = 0; i < m; ++i) {
    const auto len = in.scalar<std::uint64_t>();
    in.appendTo(colIdx, len);
    in.appendTo(values, len);
    rowPtr.push_back(colIdx.size());
  }
  in.expectEnd();
  return fromSparse(n, std::move(rowPtr), std::move(colIdx), std::move(values),
                    std::move(labels));
}

void Dataset::computeSelfDots() {
  selfDots_.resize(rows());
  for (std::size_t i = 0; i < rows(); ++i) {
    double acc = 0.0;
    if (storage_ == Storage::Dense) {
      const float* a = dense_.data() + i * cols_;
      for (std::size_t k = 0; k < cols_; ++k) acc += double(a[k]) * double(a[k]);
    } else {
      for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
        acc += double(sparseVals_[p]) * double(sparseVals_[p]);
      }
    }
    selfDots_[i] = acc;
  }
}

}  // namespace casvm::data
