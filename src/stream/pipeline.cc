#include "stream/pipeline.h"

#include <utility>

namespace geostreams {

void Pipeline::Add(std::unique_ptr<UnaryOperator> op) {
  ops_.push_back(std::move(op));
}

Status Pipeline::Finish(EventSink* sink, MemoryTracker* tracker) {
  if (finished_) return Status::FailedPrecondition("pipeline already wired");
  if (!sink) return Status::InvalidArgument("pipeline needs a sink");
  EventSink* downstream = sink;
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    (*it)->BindOutput(downstream);
    if (tracker) (*it)->BindMemoryTracker(tracker);
    downstream = (*it)->input(0);
  }
  entry_ = downstream;
  finished_ = true;
  return Status::OK();
}

Status Pipeline::Consume(const StreamEvent& event) {
  if (!finished_) return Status::FailedPrecondition("pipeline not wired");
  return entry_->Consume(event);
}

void Pipeline::Reset() {
  for (auto& op : ops_) op->Reset();
}

uint64_t Pipeline::BufferedBytes() const {
  uint64_t n = 0;
  for (const auto& op : ops_) n += op->metrics().buffered_bytes;
  return n;
}

}  // namespace geostreams
