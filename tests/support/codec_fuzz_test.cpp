// Deterministic mutation tests for every decoder of process-crossing or
// on-disk bytes. Each decoder gets a valid sample (codec_samples.hpp) and
// then every prefix of it, seeded random byte flips, and a hostile u64
// (0, 2^32, 2^63, ~0) written at every offset, which covers every count
// and length field. Decoding must either succeed or throw casvm::Error;
// any other exception fails here, and a wild read or a giant allocation
// fails under the ASan+UBSan CI job.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>

#include "casvm/ckpt/checkpoint.hpp"
#include "casvm/net/supervisor.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/rng.hpp"
#include "codec_samples.hpp"
#include "core/board_codec.hpp"

namespace casvm {
namespace {

namespace cs = codec_samples;
using Bytes = std::vector<std::byte>;
using Decode = std::function<void(std::span<const std::byte>)>;

struct Target {
  std::string name;
  Bytes sample;
  Decode decode;
};

Bytes resultFramePayload() {
  net::Supervisor::Result result;
  result.type = 'C';
  result.error = "injected fault";
  result.computeSeconds = 0.5;
  result.board = core::detail::encodeBoardSlot(cs::board(), 1);
  result.shard = cs::traceShard();
  const Bytes frame = net::Supervisor::encodeResult(result);
  return Bytes(frame.begin() + 9, frame.end());  // past [type][length]
}

std::vector<Target> targets() {
  return {
      {"dataset dense", cs::denseSet().packAll(),
       [](auto b) { (void)data::Dataset::unpack(b); }},
      {"dataset sparse", cs::sparseSet().packAll(),
       [](auto b) { (void)data::Dataset::unpack(b); }},
      {"model", cs::sparseModel().pack(),
       [](auto b) { (void)solver::Model::unpack(b); }},
      {"distributed model", cs::routedModel().pack(),
       [](auto b) { (void)core::DistributedModel::unpack(b); }},
      {"multiclass model", cs::multiclassModel().pack(),
       [](auto b) { (void)core::MulticlassModel::unpack(b); }},
      {"checkpoint frame",
       ckpt::encodeFrame(ckpt::Kind::PbmRound,
                         ckpt::encodePbmRound(cs::pbmRound())),
       [](auto b) { (void)ckpt::decodeFrame(b); }},
      {"checkpoint meta", ckpt::encodeMeta(ckpt::RunMeta{}),
       [](auto b) { (void)ckpt::decodeMeta(b); }},
      {"checkpoint partition", ckpt::encodePartition(cs::partitionState()),
       [](auto b) { (void)ckpt::decodePartition(b); }},
      {"checkpoint solver", ckpt::encodeSolverState(cs::solverSnapshot()),
       [](auto b) { (void)ckpt::decodeSolverState(b); }},
      {"checkpoint pbm round", ckpt::encodePbmRound(cs::pbmRound()),
       [](auto b) { (void)ckpt::decodePbmRound(b); }},
      {"checkpoint sub-model", ckpt::encodeSubModel(cs::subModel()),
       [](auto b) { (void)ckpt::decodeSubModel(b); }},
      {"checkpoint tree layer", ckpt::encodeTreeLayer(cs::treeLayer(true)),
       [](auto b) { (void)ckpt::decodeTreeLayer(b); }},
      {"board slot", core::detail::encodeBoardSlot(cs::board(), 1),
       [](auto b) {
         core::RankBoard board(3);
         core::detail::absorbBoardSlot(board, 1, b);
       }},
      {"trace shard", cs::traceShard(),
       [](auto b) { obs::TraceRecorder().absorbShard(b); }},
      {"nystrom factor", cs::nystromFactor().encode(),
       [](auto b) { (void)lowrank::NystromFactor::decode(b); }},
      {"worker result frame", resultFramePayload(),
       [](auto b) {
         (void)net::Supervisor::decodeResult({'C', Bytes(b.begin(), b.end())});
       }},
  };
}

void expectErrorOrSuccess(const Target& t, std::span<const std::byte> input,
                          const std::string& mutation) {
  try {
    t.decode(input);
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << t.name << " (" << mutation << "): " << e.what();
  }
}

TEST(CodecFuzzTest, EverySampleDecodes) {
  for (const Target& t : targets()) {
    EXPECT_NO_THROW(t.decode(t.sample)) << t.name;
  }
}

TEST(CodecFuzzTest, EveryTruncationDecodesOrThrowsError) {
  for (const Target& t : targets()) {
    for (std::size_t cut = 0; cut < t.sample.size(); ++cut) {
      expectErrorOrSuccess(t, std::span(t.sample).first(cut),
                           "prefix " + std::to_string(cut));
    }
  }
}

TEST(CodecFuzzTest, RandomByteFlipsDecodeOrThrowError) {
  Rng rng(2015);
  for (const Target& t : targets()) {
    for (int m = 0; m < 200; ++m) {
      Bytes bytes = t.sample;
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::byte>(1 + rng.below(255));
      }
      expectErrorOrSuccess(t, bytes, "mutation " + std::to_string(m));
    }
  }
}

TEST(CodecFuzzTest, HostileU64AtEveryOffsetDecodesOrThrowsError) {
  const std::uint64_t hostile[] = {0, 1ULL << 32, 1ULL << 63, ~0ULL};
  for (const Target& t : targets()) {
    for (std::size_t at = 0; at + 8 <= t.sample.size(); ++at) {
      for (const std::uint64_t v : hostile) {
        Bytes bytes = t.sample;
        std::memcpy(bytes.data() + at, &v, sizeof v);
        expectErrorOrSuccess(
            t, bytes, std::to_string(v) + " at " + std::to_string(at));
      }
    }
  }
}

// Inputs that escaped as std::bad_alloc / std::length_error, or decoded
// into a bogus object, before every size went through ByteReader.
TEST(CodecHostileSizeTest, EachDecoderThrowsCasvmError) {
  const auto datasetHeader = [](std::uint8_t storage, std::uint64_t rows,
                                std::uint64_t nnz) {
    support::ByteWriter w;
    w.scalar(storage);
    w.pad(7);
    w.scalar(rows);
    w.scalar<std::uint64_t>(1);  // cols
    w.scalar(nnz);
    w.pad(64);
    return w.take();
  };
  support::ByteWriter shard;  // one lane whose name length wraps `at + len`
  shard.scalar<std::uint64_t>(1);
  shard.scalar<std::int32_t>(0);
  shard.scalar<std::int32_t>(0);
  shard.scalar(~0ULL);
  shard.pad(16);
  support::ByteWriter slot;  // alphas count whose byte size wraps to 0
  slot.vec(ckpt::encodeSubModel(cs::subModel()));
  slot.scalar(1ULL << 61);
  slot.pad(16);
  support::ByteWriter factor;  // m=2^63, r=2: the tile count wraps to 0
  factor.scalar(1ULL << 63);
  factor.scalar<std::uint64_t>(2);
  factor.scalar<std::uint64_t>(1);
  factor.scalar<std::uint64_t>(1);
  factor.pad(sizeof(float) + sizeof(double) + 2 * sizeof(double));

  const std::vector<Target> cases = {
      {"dataset rows=2^62", datasetHeader(0, 1ULL << 62, 1ULL << 62),
       [](auto b) { (void)data::Dataset::unpack(b); }},
      {"sparse dataset nnz=2^62", datasetHeader(1, 0, 1ULL << 62),
       [](auto b) { (void)data::Dataset::unpack(b); }},
      {"trace shard name length ~0", shard.take(),
       [](auto b) { obs::TraceRecorder().absorbShard(b); }},
      {"board slot alphas 2^61", slot.take(),
       [](auto b) {
         core::RankBoard board(2);
         core::detail::absorbBoardSlot(board, 1, b);
       }},
      {"nystrom m=2^63 r=2", factor.take(),
       [](auto b) { (void)lowrank::NystromFactor::decode(b); }},
  };
  for (const Target& c : cases) {
    EXPECT_THROW(c.decode(c.sample), Error) << c.name;
  }
}

}  // namespace
}  // namespace casvm
