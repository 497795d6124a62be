#include "stream/pipeline.h"

#include <gtest/gtest.h>

#include "ops/restriction_ops.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;
using testing_util::PushFrame;

StreamEvent MakeBatchEvent(int64_t frame, int32_t col) {
  auto batch = std::make_shared<PointBatch>();
  batch->frame_id = frame;
  batch->band_count = 1;
  batch->Append1(col, 0, frame, 1.0);
  return StreamEvent::Batch(batch);
}

TEST(PipelineTest, EmptyPipelinePassesThrough) {
  Pipeline pipeline;
  CollectingSink sink;
  GS_ASSERT_OK(pipeline.Finish(&sink));
  GS_ASSERT_OK(pipeline.Consume(MakeBatchEvent(0, 7)));
  EXPECT_EQ(sink.TotalPoints(), 1u);
}

TEST(PipelineTest, ChainsOperatorsInOrder) {
  Pipeline pipeline;
  pipeline.Add(std::make_unique<SpatialRestrictionOp>(
      "r", MakeBBoxRegion(-125.0, 40.0, -122.0, 45.0)));
  pipeline.Add(std::make_unique<TemporalRestrictionOp>(
      "t", TimeSet::Instants({1})));
  CollectingSink sink;
  GS_ASSERT_OK(pipeline.Finish(&sink));
  EXPECT_EQ(pipeline.size(), 2u);
  GridLattice lattice = LatLonLattice(10, 8);
  GS_ASSERT_OK(PushFrame(&pipeline, lattice, 0));
  GS_ASSERT_OK(PushFrame(&pipeline, lattice, 1));
  auto points = testing_util::CollectPoints(sink.events());
  ASSERT_GT(points.size(), 0u);
  for (const auto& [key, v] : points) {
    EXPECT_EQ(std::get<2>(key), 1);
  }
}

TEST(PipelineTest, CannotConsumeBeforeFinish) {
  Pipeline pipeline;
  EXPECT_FALSE(pipeline.Consume(MakeBatchEvent(0, 0)).ok());
  CollectingSink sink;
  GS_ASSERT_OK(pipeline.Finish(&sink));
  EXPECT_FALSE(pipeline.Finish(&sink).ok());  // double finish
}

}  // namespace
}  // namespace geostreams
