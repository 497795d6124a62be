#include "mqo/cascade_tree.h"

#include <algorithm>

#include "common/string_util.h"

namespace geostreams {

struct CascadeTree::Node {
  /// Queries whose rectangle fully covers this node's cell.
  std::vector<QueryId> covers;
  /// Partial overlaps parked at the maximum depth.
  std::vector<std::pair<QueryId, BoundingBox>> partial;
  std::unique_ptr<Node> children[4];
};

namespace {

/// Quadrant cells of a box: 0=SW, 1=SE, 2=NW, 3=NE.
BoundingBox Quadrant(const BoundingBox& cell, int q) {
  const double mx = (cell.min_x + cell.max_x) / 2.0;
  const double my = (cell.min_y + cell.max_y) / 2.0;
  switch (q) {
    case 0:
      return BoundingBox(cell.min_x, cell.min_y, mx, my);
    case 1:
      return BoundingBox(mx, cell.min_y, cell.max_x, my);
    case 2:
      return BoundingBox(cell.min_x, my, mx, cell.max_y);
    default:
      return BoundingBox(mx, my, cell.max_x, cell.max_y);
  }
}

}  // namespace

CascadeTree::CascadeTree(BoundingBox extent, int max_depth)
    : extent_(extent),
      max_depth_(max_depth < 1 ? 1 : max_depth),
      root_(std::make_unique<Node>()) {
  node_count_ = 1;
}

CascadeTree::CascadeTree(const GridLattice& lattice)
    : CascadeTree(lattice.Extent(), DepthFor(lattice)) {}

int CascadeTree::DepthFor(const GridLattice& lattice) {
  const int64_t span = std::max(lattice.width(), lattice.height());
  int depth = 1;
  while (int64_t{4} << (depth + 1) <= span) ++depth;
  return depth;
}

CascadeTree::~CascadeTree() = default;

Status CascadeTree::Insert(QueryId id, const BoundingBox& box) {
  for (const auto& [eid, ebox] : boxes_) {
    if (eid == id) {
      return Status::AlreadyExists(
          StringPrintf("query %lld already registered",
                       static_cast<long long>(id)));
    }
  }
  boxes_.emplace_back(id, box);
  ++size_;
  if (box.Intersects(extent_)) {
    InsertRec(root_.get(), extent_, 0, id, box);
  }
  return Status::OK();
}

void CascadeTree::InsertRec(Node* node, const BoundingBox& cell, int depth,
                            QueryId id, const BoundingBox& box) {
  if (box.ContainsBox(cell)) {
    node->covers.push_back(id);
    return;
  }
  if (depth >= max_depth_) {
    node->partial.emplace_back(id, box);
    return;
  }
  for (int q = 0; q < 4; ++q) {
    const BoundingBox quad = Quadrant(cell, q);
    if (!box.Intersects(quad)) continue;
    if (!node->children[q]) {
      node->children[q] = std::make_unique<Node>();
      ++node_count_;
    }
    InsertRec(node->children[q].get(), quad, depth + 1, id, box);
  }
}

Status CascadeTree::Remove(QueryId id) {
  auto it = std::find_if(boxes_.begin(), boxes_.end(),
                         [id](const auto& e) { return e.first == id; });
  if (it == boxes_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  const BoundingBox box = it->second;
  boxes_.erase(it);
  --size_;
  if (box.Intersects(extent_)) {
    RemoveRec(root_.get(), extent_, 0, id, box);
  }
  return Status::OK();
}

void CascadeTree::RemoveRec(Node* node, const BoundingBox& cell, int depth,
                            QueryId id, const BoundingBox& box) {
  if (box.ContainsBox(cell)) {
    node->covers.erase(
        std::remove(node->covers.begin(), node->covers.end(), id),
        node->covers.end());
    return;
  }
  if (depth >= max_depth_) {
    node->partial.erase(
        std::remove_if(node->partial.begin(), node->partial.end(),
                       [id](const auto& e) { return e.first == id; }),
        node->partial.end());
    return;
  }
  for (int q = 0; q < 4; ++q) {
    if (!node->children[q]) continue;
    const BoundingBox quad = Quadrant(cell, q);
    if (!box.Intersects(quad)) continue;
    RemoveRec(node->children[q].get(), quad, depth + 1, id, box);
    if (IsEmpty(*node->children[q])) {
      node->children[q].reset();
      --node_count_;
    }
  }
}

bool CascadeTree::IsEmpty(const Node& node) {
  if (!node.covers.empty() || !node.partial.empty()) return false;
  for (const auto& c : node.children) {
    if (c) return false;
  }
  return true;
}

void CascadeTree::Stab(double x, double y,
                       std::vector<QueryId>* out) const {
  if (!extent_.Contains(x, y)) return;
  const Node* node = root_.get();
  BoundingBox cell = extent_;
  while (node) {
    out->insert(out->end(), node->covers.begin(), node->covers.end());
    for (const auto& [id, box] : node->partial) {
      if (box.Contains(x, y)) out->push_back(id);
    }
    // Descend into the quadrant containing the point.
    const double mx = (cell.min_x + cell.max_x) / 2.0;
    const double my = (cell.min_y + cell.max_y) / 2.0;
    const int q = (x >= mx ? 1 : 0) + (y >= my ? 2 : 0);
    cell = Quadrant(cell, q);
    node = node->children[q].get();
  }
}

}  // namespace geostreams
