#include "query/explain.h"

#include "common/string_util.h"
#include "query/cost_model.h"

namespace geostreams {

namespace {

std::string NodeLabel(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kStreamRef:
      return "Stream " + e.stream_name;
    case ExprKind::kSpatialRestrict:
      return std::string("SpatialRestrict ") + e.region->ToString() +
             (e.derived_restriction ? " [derived]" : "");
    case ExprKind::kTemporalRestrict:
      return "TemporalRestrict " + e.times.ToString();
    case ExprKind::kValueRestrict: {
      std::string s = "ValueRestrict";
      for (const ValueBandRange& r : e.ranges) {
        s += StringPrintf(" b%d:[%g, %g]", r.band, r.lo, r.hi);
      }
      return s;
    }
    case ExprKind::kValueTransform:
      return "ValueTransform " + e.value_fn.name;
    case ExprKind::kStretch:
      return StringPrintf("StretchTransform %s",
                          StretchModeName(e.stretch.mode));
    case ExprKind::kMagnify:
      return StringPrintf("Magnify x%d", e.factor);
    case ExprKind::kReduce:
      return StringPrintf("Reduce 1/%d", e.factor);
    case ExprKind::kReproject:
      return StringPrintf("Reproject -> %s (%s)", e.target_crs.c_str(),
                          ResampleKernelName(e.kernel));
    case ExprKind::kCompose:
      return StringPrintf("Compose gamma=%s", ComposeFnName(e.gamma));
    case ExprKind::kNdviMacro:
      return "NdviMacro";
    case ExprKind::kBandStack:
      return "BandStack";
    case ExprKind::kShed:
      return StringPrintf("LoadShed %s keep=%.0f%%",
                          SheddingModeName(e.shed_mode),
                          e.shed_keep * 100.0);
    case ExprKind::kAggregate:
      return StringPrintf("Aggregate %s window=%d regions=%zu",
                          AggregateFnName(e.agg_fn), e.agg_window,
                          e.agg_regions.size());
  }
  return "?";
}

void Render(const Expr* e, int depth,
            const std::map<const Expr*, NodeCost>* costs,
            std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += NodeLabel(*e);
  if (e->analyzed) {
    *out += StringPrintf("  {%s, %s}",
                         e->out_desc.value_set().ToString().c_str(),
                         e->out_desc.reference_lattice().crs()
                             ? e->out_desc.reference_lattice()
                                   .crs()
                                   ->name()
                                   .c_str()
                             : "<none>");
  }
  if (costs) {
    auto it = costs->find(e);
    if (it != costs->end()) {
      *out += StringPrintf(
          "  [in=%.0f out=%.0f cpu=%.0f buf=%.0fB]", it->second.input_points,
          it->second.output_points, it->second.cpu,
          it->second.buffer_bytes);
    }
  }
  *out += "\n";
  if (e->child) Render(e->child.get(), depth + 1, costs, out);
  if (e->right) Render(e->right.get(), depth + 1, costs, out);
}

}  // namespace

std::string ExplainPlanMetrics(const ExecutablePlan& plan) {
  std::string out;
  out += StringPrintf("plan output: %s\n",
                      plan.output_descriptor().ToString().c_str());
  OperatorMetrics total;
  for (const auto& op : plan.operators()) {
    const OperatorMetrics& m = op->metrics();
    total.MergeFrom(m);
    out += StringPrintf(
        "%-22s points_in=%-10llu points_out=%-10llu frames=%llu "
        "buffered_peak=%lluB\n",
        op->name().c_str(), static_cast<unsigned long long>(m.points_in),
        static_cast<unsigned long long>(m.points_out),
        static_cast<unsigned long long>(m.frames_in),
        static_cast<unsigned long long>(m.buffered_bytes_high_water));
  }
  out += StringPrintf(
      "%-22s points_in=%-10llu points_out=%-10llu frames=%llu "
      "buffered_peak<=%lluB (worst op %lluB) widened=%llu\n",
      "(total)", static_cast<unsigned long long>(total.points_in),
      static_cast<unsigned long long>(total.points_out),
      static_cast<unsigned long long>(total.frames_in),
      static_cast<unsigned long long>(total.buffered_bytes_high_water),
      static_cast<unsigned long long>(total.buffered_bytes_high_water_max),
      static_cast<unsigned long long>(total.frames_widened));
  return out;
}

std::string ExplainQuery(const ExprPtr& analyzed, bool with_cost) {
  if (!analyzed) return "(null query)\n";
  std::map<const Expr*, NodeCost> costs;
  bool have_costs = false;
  if (with_cost && analyzed->analyzed) {
    have_costs = EstimatePlanCost(analyzed, &costs).ok();
  }
  std::string out;
  Render(analyzed.get(), 0, have_costs ? &costs : nullptr, &out);
  return out;
}

}  // namespace geostreams
