#include "query/analyzer.h"

#include <algorithm>

#include "common/string_util.h"
#include "geo/crs_registry.h"
#include "geo/geographic_crs.h"
#include "ops/reproject_op.h"

namespace geostreams {

Status StreamCatalog::Register(const GeoStreamDescriptor& desc) {
  GEOSTREAMS_RETURN_IF_ERROR(desc.Validate());
  auto [it, inserted] = streams_.emplace(desc.name(), desc);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("stream already registered: " + desc.name());
  }
  return Status::OK();
}

Result<GeoStreamDescriptor> StreamCatalog::Lookup(
    const std::string& name) const {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + name);
  }
  return it->second;
}

namespace {

/// Materializes the ValueFn for a parser-built value transform.
Result<ValueFn> ResolveValueFn(const Expr& e, int child_bands) {
  switch (e.value_spec.kind) {
    case ValueFnSpec::Kind::kCustom:
      if (!e.value_fn.fn) {
        return Status::PlanError("value transform has no function");
      }
      return e.value_fn;
    case ValueFnSpec::Kind::kGray:
      if (child_bands != 3) {
        return Status::InvalidArgument(StringPrintf(
            "gray() needs a 3-band input, got %d band(s)", child_bands));
      }
      return ValueFn::ColorToGray();
    case ValueFnSpec::Kind::kRescale:
      return ValueFn::AffineRescale(child_bands, e.value_spec.a,
                                    e.value_spec.b);
    case ValueFnSpec::Kind::kClamp:
      if (e.value_spec.a > e.value_spec.b) {
        return Status::InvalidArgument("clampv: lo > hi");
      }
      return ValueFn::ClampTo(child_bands, e.value_spec.a, e.value_spec.b);
    case ValueFnSpec::Kind::kAbs:
      return ValueFn::AbsValue(child_bands);
    case ValueFnSpec::Kind::kBandSelect:
      if (e.value_spec.band < 0 || e.value_spec.band >= child_bands) {
        return Status::InvalidArgument(
            StringPrintf("band(%d) out of range for %d-band input",
                         e.value_spec.band, child_bands));
      }
      return ValueFn::BandSelect(child_bands, e.value_spec.band);
  }
  return Status::Internal("unreachable");
}

Status Analyze(const StreamCatalog& catalog, Expr* e) {
  if (e->child) GEOSTREAMS_RETURN_IF_ERROR(Analyze(catalog, e->child.get()));
  if (e->right) GEOSTREAMS_RETURN_IF_ERROR(Analyze(catalog, e->right.get()));

  switch (e->kind) {
    case ExprKind::kStreamRef: {
      GEOSTREAMS_ASSIGN_OR_RETURN(e->out_desc,
                                  catalog.Lookup(e->stream_name));
      break;
    }
    case ExprKind::kSpatialRestrict: {
      if (!e->region) return Status::PlanError("region restriction is null");
      e->out_desc = e->child->out_desc;
      break;
    }
    case ExprKind::kTemporalRestrict:
      e->out_desc = e->child->out_desc;
      break;
    case ExprKind::kShed:
      if (e->shed_keep < 0.0 || e->shed_keep > 1.0) {
        return Status::InvalidArgument("shed keep fraction outside [0, 1]");
      }
      e->out_desc = e->child->out_desc;
      break;
    case ExprKind::kValueRestrict: {
      const int bands = e->child->out_desc.value_set().bands();
      for (const ValueBandRange& r : e->ranges) {
        if (r.band < 0 || r.band >= bands) {
          return Status::InvalidArgument(
              StringPrintf("vrange band %d out of range for %d-band stream",
                           r.band, bands));
        }
        if (r.lo > r.hi) {
          return Status::InvalidArgument("vrange: lo > hi");
        }
      }
      e->out_desc = e->child->out_desc;
      break;
    }
    case ExprKind::kValueTransform: {
      const ValueSet& in_vs = e->child->out_desc.value_set();
      GEOSTREAMS_ASSIGN_OR_RETURN(e->value_fn,
                                  ResolveValueFn(*e, in_vs.bands()));
      if (e->value_fn.in_bands != in_vs.bands()) {
        return Status::InvalidArgument(StringPrintf(
            "value transform %s expects %d bands, stream %s has %d",
            e->value_fn.name.c_str(), e->value_fn.in_bands,
            e->child->out_desc.name().c_str(), in_vs.bands()));
      }
      ValueSet out_vs(in_vs.name() + "." + e->value_fn.name,
                      SampleType::kFloat64, e->value_fn.out_bands, -1e308,
                      1e308);
      e->out_desc = e->child->out_desc.WithValueSet(out_vs).WithName(
          e->child->out_desc.name() + "." + e->value_fn.name);
      break;
    }
    case ExprKind::kStretch: {
      const GeoStreamDescriptor& in = e->child->out_desc;
      if (in.value_set().bands() != 1) {
        return Status::InvalidArgument(
            "stretch transforms apply to single-band streams");
      }
      if (in.organization() == PointOrganization::kPointByPoint) {
        return Status::InvalidArgument(
            "stretch transforms require framed input (a point-by-point "
            "stream has no frame over which to compute statistics)");
      }
      // A stretch needs the whole frame before emitting; the output is
      // delivered image by image regardless of the input organization.
      ValueSet out_vs("stretched", SampleType::kFloat64, 1,
                      e->stretch.out_lo, e->stretch.out_hi);
      e->out_desc = in.WithValueSet(out_vs)
                        .WithName(in.name() + ".stretch")
                        .WithOrganization(PointOrganization::kImageByImage);
      break;
    }
    case ExprKind::kMagnify: {
      if (e->factor < 1) return Status::InvalidArgument("factor < 1");
      const GeoStreamDescriptor& in = e->child->out_desc;
      e->out_desc =
          in.WithLattice(in.reference_lattice().Magnified(e->factor))
              .WithName(in.name() + StringPrintf(".mag%d", e->factor));
      break;
    }
    case ExprKind::kReduce: {
      if (e->factor < 1) return Status::InvalidArgument("factor < 1");
      const GeoStreamDescriptor& in = e->child->out_desc;
      if (in.value_set().bands() != 1) {
        return Status::InvalidArgument(
            "resolution decrease applies to single-band streams");
      }
      if (in.organization() == PointOrganization::kPointByPoint) {
        return Status::InvalidArgument(
            "resolution decrease requires framed input (scan-sector "
            "metadata bounds the neighbourhood buffers)");
      }
      e->out_desc =
          in.WithLattice(in.reference_lattice().Reduced(e->factor))
              .WithName(in.name() + StringPrintf(".red%d", e->factor));
      break;
    }
    case ExprKind::kReproject: {
      const GeoStreamDescriptor& in = e->child->out_desc;
      if (in.value_set().bands() != 1) {
        return Status::InvalidArgument(
            "re-projection applies to single-band streams");
      }
      if (in.organization() == PointOrganization::kPointByPoint) {
        return Status::InvalidArgument(
            "re-projection requires framed input");
      }
      GEOSTREAMS_ASSIGN_OR_RETURN(CrsPtr target, ResolveCrs(e->target_crs));
      if (in.crs()->Equals(*target)) {
        // Identity re-projection: still a valid node, same geometry.
        e->out_desc = in.WithName(in.name() + ".reproj");
        break;
      }
      GEOSTREAMS_ASSIGN_OR_RETURN(
          GridLattice out_lattice,
          ReprojectOp::DeriveLattice(in.reference_lattice(), target));
      e->out_desc = in.WithLattice(out_lattice)
                        .WithName(in.name() + ".reproj." + target->name())
                        .WithOrganization(PointOrganization::kImageByImage);
      break;
    }
    case ExprKind::kCompose:
    case ExprKind::kNdviMacro:
    case ExprKind::kBandStack: {
      const GeoStreamDescriptor& l = e->child->out_desc;
      const GeoStreamDescriptor& r = e->right->out_desc;
      if (!l.crs() || !r.crs() || !l.crs()->Equals(*r.crs())) {
        return Status::CrsMismatch(StringPrintf(
            "composition inputs use different coordinate systems: %s vs %s",
            l.crs() ? l.crs()->name().c_str() : "<none>",
            r.crs() ? r.crs()->name().c_str() : "<none>"));
      }
      if (!l.reference_lattice().AlignedWith(r.reference_lattice())) {
        return Status::LatticeMismatch(
            "composition inputs are not on aligned lattices: " +
            l.reference_lattice().ToString() + " vs " +
            r.reference_lattice().ToString());
      }
      if (l.timestamp_policy() != r.timestamp_policy()) {
        return Status::InvalidArgument(
            "composition inputs use different timestamp policies");
      }
      if (e->kind == ExprKind::kBandStack) {
        const int bands = l.value_set().bands() + r.value_set().bands();
        if (bands > kMaxBands) {
          return Status::InvalidArgument(StringPrintf(
              "stacked value set would have %d bands (max %d)", bands,
              kMaxBands));
        }
        ValueSet out_vs(
            "stacked", SampleType::kFloat64, bands,
            std::min(l.value_set().min_value(), r.value_set().min_value()),
            std::max(l.value_set().max_value(), r.value_set().max_value()));
        e->out_desc = l.WithValueSet(out_vs).WithName(StringPrintf(
            "(%s ++ %s)", l.name().c_str(), r.name().c_str()));
        break;
      }
      if (!l.value_set().CompatibleWith(r.value_set())) {
        return Status::InvalidArgument(StringPrintf(
            "composition inputs have incompatible value sets (%d vs %d "
            "bands)",
            l.value_set().bands(), r.value_set().bands()));
      }
      const bool is_ndvi = e->kind == ExprKind::kNdviMacro;
      ValueSet out_vs =
          is_ndvi ? ValueSet::IndexF32()
                  : ValueSet("composed", SampleType::kFloat64,
                             l.value_set().bands(), -1e308, 1e308);
      const char* op_name =
          is_ndvi ? "ndvi" : ComposeFnName(e->gamma);
      e->out_desc = l.WithValueSet(out_vs).WithName(
          StringPrintf("(%s %s %s)", l.name().c_str(), op_name,
                       r.name().c_str()));
      break;
    }
    case ExprKind::kAggregate: {
      const GeoStreamDescriptor& in = e->child->out_desc;
      if (in.value_set().bands() != 1) {
        return Status::InvalidArgument(
            "aggregates apply to single-band streams");
      }
      if (in.organization() == PointOrganization::kPointByPoint) {
        return Status::InvalidArgument(
            "aggregates require framed input (a region's value is "
            "computed over a whole frame)");
      }
      if (e->agg_regions.empty()) {
        return Status::InvalidArgument("aggregate needs regions");
      }
      GridLattice out_lattice(
          GeographicCrs::Instance(), 0.0, 0.0, 1.0, 1.0,
          static_cast<int64_t>(e->agg_regions.size()), 1);
      ValueSet out_vs("aggregate", SampleType::kFloat64, 1, -1e308, 1e308);
      e->out_desc = GeoStreamDescriptor(
          in.name() + "." + AggregateFnName(e->agg_fn), out_vs, out_lattice,
          PointOrganization::kImageByImage, in.timestamp_policy());
      break;
    }
  }
  e->analyzed = true;
  return Status::OK();
}

}  // namespace

Status AnalyzeQuery(const StreamCatalog& catalog, const ExprPtr& expr) {
  if (!expr) return Status::InvalidArgument("null query");
  return Analyze(catalog, expr.get());
}

}  // namespace geostreams
