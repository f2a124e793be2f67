#include "casvm/ckpt/checkpoint.hpp"

#include <array>

#include "casvm/support/bytes.hpp"
#include "casvm/support/checksum.hpp"

namespace casvm::ckpt {

namespace {

using Magic = std::array<char, 8>;
constexpr Magic kMagic = {'C', 'A', 'S', 'V', 'M', 'C', 'K', 'P'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4;

bool knownKind(std::uint32_t k) {
  switch (static_cast<Kind>(k)) {
    case Kind::Meta:
    case Kind::Partition:
    case Kind::SolverState:
    case Kind::SubModel:
    case Kind::TreeLayer:
    case Kind::DisSmoState:
    case Kind::PbmRound:
    case Kind::LowRankFactor:
      return true;
  }
  return false;
}

}  // namespace

std::vector<std::byte> encodeFrame(Kind kind,
                                   std::span<const std::byte> payload) {
  support::ByteWriter w;
  w.reserve(kHeaderBytes + payload.size());
  w.scalar(kMagic);
  w.scalar<std::uint32_t>(kFormatVersion);
  w.scalar(static_cast<std::uint32_t>(kind));
  w.scalar<std::uint64_t>(payload.size());
  w.scalar(support::crc32(payload));
  w.raw(payload);
  return w.take();
}

std::optional<Frame> decodeFrame(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;  // short read
  support::ByteReader r(bytes, "checkpoint frame");
  if (r.scalar<Magic>() != kMagic) return std::nullopt;
  if (r.scalar<std::uint32_t>() != kFormatVersion) return std::nullopt;
  const auto kindRaw = r.scalar<std::uint32_t>();
  if (!knownKind(kindRaw)) return std::nullopt;
  const auto size = r.scalar<std::uint64_t>();
  const auto crc = r.scalar<std::uint32_t>();
  // The declared size must match the actual file length exactly: a frame
  // with trailing garbage is as suspect as a truncated one.
  if (size != r.remaining()) return std::nullopt;
  const std::span<const std::byte> payload = r.rest();
  if (support::crc32(payload) != crc) return std::nullopt;
  Frame frame;
  frame.kind = static_cast<Kind>(kindRaw);
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

}  // namespace casvm::ckpt
