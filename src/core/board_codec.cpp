#include "board_codec.hpp"

#include <cstdint>

#include "casvm/ckpt/state.hpp"
#include "casvm/support/bytes.hpp"

namespace casvm::core::detail {

std::vector<std::byte> encodeBoardSlot(const RankBoard& board, int rank) {
  const auto r = static_cast<std::size_t>(rank);
  support::ByteWriter w;

  // The model rides the checkpoint layer's exact sub-model codec.
  ckpt::SubModelState sub;
  sub.model = board.models[r];
  sub.iterations = board.iterations[r];
  sub.svs = board.svs[r];
  w.vec(ckpt::encodeSubModel(sub));

  w.vec(board.alphas[r]);
  w.vec(board.centers[r]);
  w.scalar(board.samples[r]);
  w.scalar(board.positives[r]);
  w.scalar(board.initEndVirtual[r]);
  w.scalar(board.trainEndVirtual[r]);
  w.scalar(static_cast<std::uint64_t>(board.kmeansLoops[r]));

  const auto& layers = board.layerRecords[r];
  w.scalar(static_cast<std::uint64_t>(layers.size()));
  for (const RankBoard::LayerRecord& rec : layers) {
    w.scalar(static_cast<std::int32_t>(rec.layer));
    w.scalar(rec.samples);
    w.scalar(rec.iterations);
    w.scalar(rec.svs);
    w.scalar(rec.seconds);
  }

  w.scalar(static_cast<std::int32_t>(board.retries[r]));
  w.scalar(static_cast<std::uint8_t>(board.recovered[r]));
  w.scalar(board.checkpointsLoaded[r]);
  w.scalar(board.auxIterations[r]);
  w.scalar(board.shrinkEngagedIter[r]);
  w.scalar(board.rowBcastsSkipped[r]);

  // The init/train-boundary traffic snapshot (rank 0 fills it inside the
  // instrumentation fence; everyone else ships an empty one).
  w.scalar(static_cast<std::int32_t>(board.initSnapshot.size));
  w.vec(board.initSnapshot.bytes);
  w.vec(board.initSnapshot.ops);
  return w.take();
}

void absorbBoardSlot(RankBoard& board, int rank,
                     std::span<const std::byte> bytes) {
  const auto r = static_cast<std::size_t>(rank);
  support::ByteReader cur(bytes, "board slot");

  const ckpt::SubModelState sub = ckpt::decodeSubModel(cur.bytes());
  board.models[r] = sub.model;
  board.iterations[r] = sub.iterations;
  board.svs[r] = sub.svs;

  board.alphas[r] = cur.vec<double>();
  board.centers[r] = cur.vec<float>();
  board.samples[r] = cur.scalar<long long>();
  board.positives[r] = cur.scalar<long long>();
  board.initEndVirtual[r] = cur.scalar<double>();
  board.trainEndVirtual[r] = cur.scalar<double>();
  board.kmeansLoops[r] =
      static_cast<std::size_t>(cur.scalar<std::uint64_t>());

  const auto layerCount = cur.scalar<std::uint64_t>();
  auto& layers = board.layerRecords[r];
  layers.clear();
  for (std::uint64_t i = 0; i < layerCount; ++i) {
    RankBoard::LayerRecord rec;
    rec.layer = cur.scalar<std::int32_t>();
    rec.samples = cur.scalar<long long>();
    rec.iterations = cur.scalar<long long>();
    rec.svs = cur.scalar<long long>();
    rec.seconds = cur.scalar<double>();
    layers.push_back(rec);
  }

  board.retries[r] = cur.scalar<std::int32_t>();
  board.recovered[r] = cur.scalar<std::uint8_t>();
  board.checkpointsLoaded[r] = cur.scalar<long long>();
  board.auxIterations[r] = cur.scalar<long long>();
  board.shrinkEngagedIter[r] = cur.scalar<long long>();
  board.rowBcastsSkipped[r] = cur.scalar<long long>();

  // Only absorb a non-empty snapshot: every rank's payload carries the
  // field, but only rank 0 ever filled it.
  net::TrafficSnapshot snap;
  snap.size = cur.scalar<std::int32_t>();
  snap.bytes = cur.vec<std::size_t>();
  snap.ops = cur.vec<std::size_t>();
  if (snap.size > 0) board.initSnapshot = std::move(snap);
  cur.expectEnd();
}

}  // namespace casvm::core::detail
