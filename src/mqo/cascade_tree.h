// Dynamic cascade tree for indexing query regions on a stream
// (after Hart/Gertz/Zhang, SSTD 2005, as used in Sec. 4).
//
// A quadtree-shaped hierarchy over the instrument's spatial extent.
// Each node stores the queries whose rectangles *fully cover* the
// node's cell — a point reaching the node belongs to all of them with
// no further tests (the "cascade"). Rectangles that only partially
// overlap a cell are pushed down; at the maximum depth they land in a
// leaf's partial list and are tested individually. A stabbing query
// therefore walks one root-to-leaf path, collecting cover lists on
// the way: O(depth + answers + partials at one leaf), independent of
// the total number of registered queries.
//
// The depth only trades nodes against partial-list tests: a point is
// reported exactly when its query's rectangle contains it, at any
// depth. The server builds each tree at the resolution of the
// stream's reference lattice (DepthFor): a cell is split only while
// its children still span at least 4x4 lattice cells, since finer
// cells than the data carries buy no pruning and cost nodes. On the
// 256x256 GOES full disk that is depth 6, and live_fanout's 248
// regions take about 2.5 nodes each instead of 240 at depth 10.

#ifndef GEOSTREAMS_MQO_CASCADE_TREE_H_
#define GEOSTREAMS_MQO_CASCADE_TREE_H_

#include <memory>

#include "geo/lattice.h"
#include "mqo/region_index.h"

namespace geostreams {

class CascadeTree : public RegionIndex {
 public:
  /// `extent`: the spatial domain of the indexed stream (points
  /// outside it stab nothing). `max_depth`: subdivision levels; each
  /// level halves both axes.
  explicit CascadeTree(BoundingBox extent, int max_depth = 10);
  /// A tree over the lattice's extent at DepthFor(lattice).
  explicit CascadeTree(const GridLattice& lattice);
  ~CascadeTree() override;

  /// The lattice's depth: max(1, floor(log2(max(w, h) / 4))), the
  /// deepest level whose cells still span 4 lattice cells along the
  /// longer axis (6 for 256x256).
  static int DepthFor(const GridLattice& lattice);

  Status Insert(QueryId id, const BoundingBox& box) override;
  Status Remove(QueryId id) override;
  void Stab(double x, double y, std::vector<QueryId>* out) const override;
  size_t size() const override { return size_; }
  std::string name() const override { return "cascade-tree"; }

  /// Total allocated nodes (space diagnostics for E7).
  size_t node_count() const { return node_count_; }

 private:
  struct Node;

  void InsertRec(Node* node, const BoundingBox& cell, int depth, QueryId id,
                 const BoundingBox& box);
  void RemoveRec(Node* node, const BoundingBox& cell, int depth, QueryId id,
                 const BoundingBox& box);
  /// True when the subtree holds no entries and can be pruned.
  static bool IsEmpty(const Node& node);

  BoundingBox extent_;
  int max_depth_;
  std::unique_ptr<Node> root_;
  // Remembered boxes so Remove(id) does not need the caller to repeat
  // the rectangle.
  std::vector<std::pair<QueryId, BoundingBox>> boxes_;
  size_t size_ = 0;
  size_t node_count_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_MQO_CASCADE_TREE_H_
