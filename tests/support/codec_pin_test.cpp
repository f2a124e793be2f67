// Format pins: every binary encoder, fed the fixed objects of
// codec_samples.hpp, must produce exactly the bytes it produced when these
// constants were recorded. A failure means an on-disk or on-wire format
// changed: old checkpoints, model files or mixed-version workers would no
// longer read. Bump the format's version instead of re-pinning silently.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "casvm/ckpt/checkpoint.hpp"
#include "casvm/ckpt/store.hpp"
#include "casvm/core/train.hpp"
#include "casvm/support/checksum.hpp"
#include "codec_samples.hpp"
#include "core/board_codec.hpp"

namespace casvm {
namespace {

namespace cs = codec_samples;

/// The run fingerprint as a fresh checkpointed run stamps it into "meta".
std::vector<std::byte> metaOfCheckpointedRun() {
  const std::string dir = ::testing::TempDir() + "/casvm_codec_pin_meta";
  std::filesystem::remove_all(dir);
  ckpt::CheckpointStore store(dir);
  core::TrainConfig cfg;
  cfg.method = core::Method::RaCa;
  cfg.processes = 2;
  cfg.checkpoints = &store;
  cfg.checkpointEvery = 1000;
  (void)core::train(data::generateTwoGaussians(40, 3, 4.0, 5), cfg);
  const auto meta = store.load("meta", ckpt::Kind::Meta);
  std::filesystem::remove_all(dir);
  return meta.value_or(std::vector<std::byte>{});
}

struct Pin {
  const char* name;
  std::function<std::vector<std::byte>()> encode;
  std::size_t size;
  std::uint32_t crc;
};

TEST(CodecPinTest, EveryEncoderIsByteIdenticalToItsPin) {
  const std::vector<std::size_t> someRows{4, 0, 3, 3};
  const std::vector<Pin> pins = {
      {"dataset dense", [] { return cs::denseSet().packAll(); },  //
       110, 0xffc00ce1U},
      {"dataset dense subset", [&] { return cs::denseSet().pack(someRows); },
       84, 0x85e45b29U},
      {"dataset sparse", [] { return cs::sparseSet().packAll(); },  //
       303, 0x50949333U},
      {"dataset sparse subset", [&] { return cs::sparseSet().pack(someRows); },
       236, 0xbbc45031U},
      {"model poly", [] { return cs::polyModel().pack(); },  //
       151, 0xc3580910U},
      {"model sparse", [] { return cs::sparseModel().pack(); },  //
       186, 0x0281b1a8U},
      {"distributed single",
       [] { return core::DistributedModel::single(cs::polyModel()).pack(); },
       175, 0xf09afba3U},
      {"distributed routed", [] { return cs::routedModel().pack(); },  //
       366, 0xd68bb0bcU},
      {"multiclass", [] { return cs::multiclassModel().pack(); },  //
       827, 0x359be11bU},
      {"ckpt meta",
       [] {
         ckpt::RunMeta meta;
         meta.fingerprint = 0x0123456789abcdefULL;
         meta.method = 6;
         meta.processes = 4;
         meta.rows = 1000;
         meta.cols = 22;
         return ckpt::encodeMeta(meta);
       },
       32, 0x51b5fdabU},
      {"ckpt partition",
       [] { return ckpt::encodePartition(cs::partitionState()); },  //
       146, 0x60f110e5U},
      {"ckpt solver",
       [] { return ckpt::encodeSolverState(cs::solverSnapshot()); },  //
       97, 0x82bc7382U},
      {"ckpt dis-smo",
       [] { return ckpt::encodeDisSmoState(cs::solverSnapshot()); },  //
       97, 0x82bc7382U},
      {"ckpt pbm round", [] { return ckpt::encodePbmRound(cs::pbmRound()); },
       72, 0xbd975118U},
      {"ckpt sub-model", [] { return ckpt::encodeSubModel(cs::subModel()); },
       210, 0xb5cead26U},
      {"ckpt tree layer",
       [] { return ckpt::encodeTreeLayer(cs::treeLayer(false)); },  //
       416, 0xf7f59108U},
      {"ckpt tree layer + model",
       [] { return ckpt::encodeTreeLayer(cs::treeLayer(true)); },  //
       575, 0xc5e0b258U},
      {"ckpt frame",
       [] {
         return ckpt::encodeFrame(ckpt::Kind::SubModel,
                                  ckpt::encodeSubModel(cs::subModel()));
       },
       238, 0x0768bb0aU},
      {"board slot",
       [] { return core::detail::encodeBoardSlot(cs::board(), 1); },  //
       476, 0x12221904U},
      {"board slot (empty rank)",
       [] { return core::detail::encodeBoardSlot(cs::board(), 2); },  //
       305, 0x03236e4cU},
      {"trace shard", [] { return cs::traceShard(); },  //
       335, 0x9be9325cU},
      {"nystrom factor", [] { return cs::nystromFactor().encode(); },  //
       232, 0x57eca1d9U},
      {"run fingerprint (meta)", [] { return metaOfCheckpointedRun(); },  //
       32, 0x19eafb98U},
  };
  for (const Pin& pin : pins) {
    const std::vector<std::byte> bytes = pin.encode();
    const std::uint32_t crc = support::crc32(bytes);
    EXPECT_TRUE(bytes.size() == pin.size && crc == pin.crc)
        << pin.name << ": got size " << bytes.size() << " crc 0x" << std::hex
        << crc << std::dec;
  }
}

}  // namespace
}  // namespace casvm
