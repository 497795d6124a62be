#include "stream/metrics.h"

#include "common/string_util.h"

namespace geostreams {

std::string OperatorMetrics::ToString() const {
  return StringPrintf(
      "events_in=%llu points_in=%llu points_out=%llu frames_in=%llu "
      "frames_out=%llu buffered=%llu high_water=%llu high_water_max=%llu "
      "widened=%llu",
      static_cast<unsigned long long>(events_in),
      static_cast<unsigned long long>(points_in),
      static_cast<unsigned long long>(points_out),
      static_cast<unsigned long long>(frames_in),
      static_cast<unsigned long long>(frames_out),
      static_cast<unsigned long long>(buffered_bytes),
      static_cast<unsigned long long>(buffered_bytes_high_water),
      static_cast<unsigned long long>(buffered_bytes_high_water_max),
      static_cast<unsigned long long>(frames_widened));
}

}  // namespace geostreams
