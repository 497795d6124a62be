// Linear pipelines of unary operators.
//
// Complex continuous queries over image streams "tend to be less
// complex; in fact, they are often sequential" (Sec. 3.4). A Pipeline
// owns a chain of unary operators wired back-to-front into a final
// sink; events pushed into it traverse the full chain synchronously.

#ifndef GEOSTREAMS_STREAM_PIPELINE_H_
#define GEOSTREAMS_STREAM_PIPELINE_H_

#include <memory>
#include <vector>

#include "stream/operator.h"

namespace geostreams {

class Pipeline : public EventSink {
 public:
  Pipeline() = default;

  /// Appends an operator to the downstream end of the chain.
  /// Must not be called after Finish().
  void Add(std::unique_ptr<UnaryOperator> op);

  /// Wires the chain into `sink` (not owned). Must be called exactly
  /// once before events are pushed.
  Status Finish(EventSink* sink, MemoryTracker* tracker = nullptr);

  /// Pushes one event through the whole chain.
  Status Consume(const StreamEvent& event) override;

  /// Drops buffered frame state in every operator (fault recovery).
  void Reset();

  size_t size() const { return ops_.size(); }
  const UnaryOperator& op(size_t i) const { return *ops_[i]; }
  UnaryOperator& op(size_t i) { return *ops_[i]; }

  /// Sum of current buffered bytes across the chain.
  uint64_t BufferedBytes() const;

 private:
  std::vector<std::unique_ptr<UnaryOperator>> ops_;
  EventSink* entry_ = nullptr;
  bool finished_ = false;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STREAM_PIPELINE_H_
