#pragma once

/// \file bytes.hpp
/// The one binary codec. Every byte format that crosses a process boundary
/// or lands on disk — checkpoint frames and their payloads, model files,
/// partition payloads, board slots, worker result frames, trace shards,
/// Nyström factors and the run fingerprint — is written by a ByteWriter
/// and read back by a ByteReader making the mirror-image calls.
///
/// Scalars travel as their in-memory bit patterns (little-endian on every
/// supported host; the reader is the same build). Variable-length fields
/// carry a u64 element count. The reader checks every count against the
/// bytes that remain before it allocates, multiplies sizes with an
/// overflow check, and reports any malformed input as casvm::Error
/// prefixed with the caller's context ("model unpack", "trace shard", ...).
/// See DESIGN.md "Binary formats" for the layouts.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace casvm::support {

class ByteWriter {
 public:
  /// Make room for `bytes` more bytes without reallocating.
  void reserve(std::size_t bytes) { out_.reserve(out_.size() + bytes); }

  template <class T>
  void scalar(const T& v) {
    raw(std::span<const T>(&v, 1));
  }

  /// The elements of a contiguous range (vector, span, string), no prefix.
  template <class Range>
  void raw(const Range& range) {
    const std::span items(range);
    static_assert(std::is_trivially_copyable_v<
                  typename decltype(items)::element_type>);
    if (!items.empty()) {
      std::memcpy(extend(items.size_bytes()), items.data(),
                  items.size_bytes());
    }
  }

  /// u64 element count, then the elements (vectors, byte blobs, strings).
  template <class Range>
  void vec(const Range& range) {
    const std::span items(range);
    scalar<std::uint64_t>(items.size());
    raw(items);
  }

  /// `bytes` zero bytes: the padding a field-by-field layout keeps in
  /// place of a formerly memcpy'd struct's.
  void pad(std::size_t bytes) { out_.resize(out_.size() + bytes); }

  /// Append `bytes` zero bytes and return them for the caller to fill
  /// (for gathers that would otherwise cost one call per element). The
  /// pointer is valid until the next write.
  std::byte* extend(std::size_t bytes) {
    pad(bytes);
    return out_.data() + out_.size() - bytes;
  }

  std::size_t size() const { return out_.size(); }
  std::vector<std::byte> take() { return std::move(out_); }

 private:
  std::vector<std::byte> out_;
};

class ByteReader {
 public:
  /// `context` names the format in error messages; it must outlive the
  /// reader (a string literal in practice).
  ByteReader(std::span<const std::byte> in, const char* context)
      : in_(in), context_(context) {}

  template <class T>
  T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    std::memcpy(&v, take(sizeof(T)).data(), sizeof(T));
    return v;
  }

  /// Append `count` elements with no prefix to `out` (one copy).
  template <class T>
  void appendTo(std::vector<T>& out, std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    checkCount(count, sizeof(T));
    const std::size_t at = out.size();
    out.resize(at + count);
    if (count > 0) {
      std::memcpy(out.data() + at, take(count * sizeof(T)).data(),
                  count * sizeof(T));
    }
  }

  /// `count` elements with no prefix (the mirror of ByteWriter::raw).
  template <class T>
  std::vector<T> array(std::uint64_t count) {
    std::vector<T> out;
    appendTo(out, count);
    return out;
  }

  /// A u64 count, then that many elements (the mirror of ByteWriter::vec).
  template <class T>
  std::vector<T> vec() {
    return array<T>(scalar<std::uint64_t>());
  }

  /// A u64-prefixed byte blob, as a view into the input (no copy).
  std::span<const std::byte> bytes();
  /// A u64-prefixed string.
  std::string string();
  /// Skip `bytes` bytes of padding.
  void pad(std::size_t bytes) { (void)take(bytes); }
  /// Everything not yet read, as a view; the reader is then at its end.
  std::span<const std::byte> rest();

  /// Throw unless `count` items of `itemBytes` each fit in what remains.
  void checkCount(std::uint64_t count, std::size_t itemBytes) const;
  /// a*b, throwing instead of wrapping on overflow.
  std::uint64_t product(std::uint64_t a, std::uint64_t b) const;
  /// Throw if any input is left unread.
  void expectEnd() const;
  std::size_t remaining() const { return in_.size(); }

 private:
  std::span<const std::byte> take(std::size_t bytes);
  [[noreturn]] void fail(const char* what) const;

  std::span<const std::byte> in_;
  const char* context_;
};

}  // namespace casvm::support
