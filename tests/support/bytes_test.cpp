#include "casvm/support/bytes.hpp"

#include <gtest/gtest.h>

#include <string>

#include "casvm/support/error.hpp"

namespace casvm::support {
namespace {

TEST(ByteCodecTest, ReaderMirrorsEveryWriterCall) {
  ByteWriter w;
  w.scalar<std::uint8_t>(7);
  w.pad(3);
  w.scalar(-2.5);
  w.raw(std::vector<float>{1.0f, 2.0f});
  w.vec(std::vector<std::int32_t>{4, -5, 6});
  w.vec(std::string("lane"));
  w.vec(std::vector<std::byte>{std::byte{9}});
  w.vec(std::vector<double>{});
  std::byte* gathered = w.extend(2);
  gathered[0] = std::byte{0xAB};
  gathered[1] = std::byte{0xCD};
  const std::vector<std::byte> bytes = w.take();
  ASSERT_EQ(bytes.size(),
            1u + 3 + 8 + 8 + (8 + 12) + (8 + 4) + (8 + 1) + 8 + 2);
  EXPECT_EQ(bytes[1], std::byte{0});  // padding is zeroed

  ByteReader r(bytes, "test format");
  EXPECT_EQ(r.scalar<std::uint8_t>(), 7);
  r.pad(3);
  EXPECT_EQ(r.scalar<double>(), -2.5);
  EXPECT_EQ(r.array<float>(2), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(r.vec<std::int32_t>(), (std::vector<std::int32_t>{4, -5, 6}));
  EXPECT_EQ(r.string(), "lane");
  const auto blob = r.bytes();
  ASSERT_EQ(blob.size(), 1u);
  EXPECT_EQ(blob[0], std::byte{9});
  EXPECT_TRUE(r.vec<double>().empty());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.rest().size(), 2u);
  EXPECT_NO_THROW(r.expectEnd());
}

TEST(ByteCodecTest, MalformedInputThrowsErrorNamingTheFormat) {
  ByteWriter w;
  w.scalar<std::uint64_t>(3);  // claims three doubles, carries one
  w.scalar(1.0);
  const std::vector<std::byte> bytes = w.take();
  const auto expectError = [](const auto& fn, const std::string& what) {
    try {
      fn();
      ADD_FAILURE() << "no error for " << what;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "model unpack: " + what);
    }
  };
  expectError([&] { ByteReader(bytes, "model unpack").vec<double>(); },
              "count exceeds payload");
  expectError(
      [&] {
        ByteReader(std::span(bytes).first(4), "model unpack").scalar<double>();
      },
      "truncated payload");
  expectError([&] { ByteReader(bytes, "model unpack").expectEnd(); },
              "trailing bytes");
  expectError(
      [&] {
        (void)ByteReader(bytes, "model unpack").product(1ULL << 32, 1ULL << 32);
      },
      "size overflows");
}

}  // namespace
}  // namespace casvm::support
