#include "casvm/support/bytes.hpp"

#include "casvm/support/error.hpp"

namespace casvm::support {

std::span<const std::byte> ByteReader::bytes() {
  const std::uint64_t count = scalar<std::uint64_t>();
  checkCount(count, 1);
  return take(count);
}

std::string ByteReader::string() {
  const std::span<const std::byte> b = bytes();
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::span<const std::byte> ByteReader::rest() { return take(in_.size()); }

void ByteReader::checkCount(std::uint64_t count, std::size_t itemBytes) const {
  if (count > in_.size() / itemBytes) fail("count exceeds payload");
}

std::uint64_t ByteReader::product(std::uint64_t a, std::uint64_t b) const {
  std::uint64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) fail("size overflows");
  return out;
}

void ByteReader::expectEnd() const {
  if (!in_.empty()) fail("trailing bytes");
}

std::span<const std::byte> ByteReader::take(std::size_t bytes) {
  if (bytes > in_.size()) fail("truncated payload");
  const std::span<const std::byte> out = in_.first(bytes);
  in_ = in_.subspan(bytes);
  return out;
}

void ByteReader::fail(const char* what) const {
  throw Error(std::string(context_) + ": " + what);
}

}  // namespace casvm::support
