#pragma once

// Fixed, seeded objects for the binary-format tests: one small instance of
// everything that has an encoder. The format-pin test hashes their
// encodings; the mutation test corrupts them. Keep them small (the mutation
// test decodes every prefix) and never change them without re-pinning.

#include <vector>

#include "casvm/ckpt/state.hpp"
#include "casvm/core/distributed_model.hpp"
#include "casvm/core/multiclass.hpp"
#include "casvm/core/spmd.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/lowrank/landmarks.hpp"
#include "casvm/lowrank/nystrom.hpp"
#include "casvm/obs/trace.hpp"

namespace casvm::codec_samples {

inline data::Dataset denseSet() {
  return data::generateTwoGaussians(6, 3, 3.0, 7);
}

inline data::Dataset sparseSet() {
  data::MixtureSpec spec;
  spec.samples = 7;
  spec.features = 9;
  spec.clusters = 2;
  spec.sparsity = 0.6;
  spec.sparseOutput = true;
  spec.seed = 11;
  return data::generateMixture(spec);
}

/// Polynomial kernel: every KernelParams field is non-default.
inline solver::Model polyModel() {
  const std::vector<std::size_t> rows{0, 2, 5};
  return solver::Model(kernel::KernelParams::polynomial(0.5, 1.25, 3),
                       denseSet().subset(rows), {0.5, -0.25, 1.0}, -0.375);
}

inline solver::Model sparseModel() {
  const std::vector<std::size_t> rows{1, 4};
  return solver::Model(kernel::KernelParams::gaussian(0.125),
                       sparseSet().subset(rows), {-0.75, 0.75}, 0.0625);
}

inline core::DistributedModel routedModel() {
  return core::DistributedModel::routed({polyModel(), polyModel()},
                                        {{0.5f, -1.5f, 2.0f},
                                         {-0.25f, 0.75f, 1.0f}});
}

inline core::MulticlassModel multiclassModel() {
  std::vector<core::MulticlassModel::Pair> pairs(3);
  pairs[0] = {1, 2, core::DistributedModel::single(polyModel())};
  pairs[1] = {1, 3, routedModel()};
  pairs[2] = {2, 3, core::DistributedModel::single(sparseModel())};
  return core::MulticlassModel({1, 2, 3}, std::move(pairs));
}

inline ckpt::PartitionState partitionState() {
  ckpt::PartitionState state;
  state.local = denseSet();
  state.center = {0.25f, -0.5f, 1.75f};
  state.kmeansLoops = 9;
  return state;
}

inline solver::SolverSnapshot solverSnapshot() {
  solver::SolverSnapshot snap;
  snap.iteration = 77;
  snap.everShrunk = true;
  snap.alpha = {0.0, 0.5, 1.0};
  snap.f = {-1.0, 0.25, 1.5};
  snap.active = {2, 0};
  return snap;
}

inline ckpt::PbmRoundState pbmRound() {
  ckpt::PbmRoundState state;
  state.round = 3;
  state.blockIterations = 120;
  state.pairIterations = 45;
  state.alpha = {0.125, 0.0};
  state.f = {-0.5, 0.5};
  return state;
}

inline ckpt::SubModelState subModel() {
  ckpt::SubModelState state;
  state.model = sparseModel();
  state.iterations = 321;
  state.svs = 2;
  return state;
}

inline ckpt::TreeLayerState treeLayer(bool withModel) {
  ckpt::TreeLayerState state;
  state.layer = 5;
  state.current = sparseSet();
  state.currentAlpha = {0.5, 0.25, 0.0, 1.0, 0.0, 0.75, 0.125};
  state.samples = 7;
  state.iterations = 64;
  state.svs = 4;
  state.seconds = 0.015625;
  if (withModel) state.model = polyModel();
  return state;
}

/// A three-rank board whose rank 1 slot has every field set.
inline core::RankBoard board() {
  core::RankBoard b(3);
  b.models[1] = polyModel();
  b.alphas[1] = {0.5, 0.0, 1.0};
  b.centers[1] = {1.0f, 2.0f, -3.0f};
  b.iterations[1] = 42;
  b.samples[1] = 6;
  b.svs[1] = 3;
  b.positives[1] = 2;
  b.initEndVirtual[1] = 0.25;
  b.trainEndVirtual[1] = 1.5;
  b.kmeansLoops[1] = 4;
  b.layerRecords[1] = {{0, 6, 30, 3, 0.5}, {1, 4, 12, 2, 0.25}};
  b.retries[1] = 1;
  b.recovered[1] = 1;
  b.checkpointsLoaded[1] = 2;
  b.auxIterations[1] = 17;
  b.shrinkEngagedIter[1] = 9;
  b.rowBcastsSkipped[1] = 5;
  b.initSnapshot.size = 2;
  b.initSnapshot.bytes = {0, 64, 32, 0};
  b.initSnapshot.ops = {0, 1, 1, 0};
  return b;
}

/// Two lanes: a comm span and a solver progress instant, then a phase.
inline std::vector<std::byte> traceShard() {
  obs::TraceRecorder rec;
  obs::Lane& a = rec.addLane(0, 0, "rank 0");
  a.span("send", obs::Cat::Comm, 0.5, 0.75, 1, 4096);
  a.progress(1.0, 100, 50, 0.0625, 0.875);
  obs::Lane& b = rec.addLane(1, 2, "rank 1");
  b.span("partition", obs::Cat::Phase, 0.0, 2.0, -1, -1, 3);
  return rec.encodeShard();
}

inline lowrank::NystromFactor nystromFactor() {
  const data::Dataset ds = denseSet();
  const std::vector<std::size_t> landmarks{0, 3};
  return lowrank::NystromFactor::buildWithLandmarks(
      kernel::Kernel(kernel::KernelParams::gaussian(0.5)), ds,
      lowrank::extractLandmarks(ds, landmarks), 1e-10);
}

}  // namespace casvm::codec_samples
