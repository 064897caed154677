#include "src/common/counters.h"

#include <algorithm>
#include <cmath>

#include "src/common/string_util.h"

namespace p3c {

void Metric::MergeFrom(const Metric& other) {
  if (kind != other.kind) return;  // mixed kinds: keep ours (see header)
  switch (kind) {
    case MetricKind::kCounter:
      count += other.count;
      break;
    case MetricKind::kGauge:
      sum = std::max(sum, other.sum);
      break;
  }
}

uint64_t MetricBag::Get(const std::string& name) const {
  const Metric* m = Find(name);
  return m != nullptr && m->kind == MetricKind::kCounter ? m->count : 0;
}

double MetricBag::GetGauge(const std::string& name) const {
  const Metric* m = Find(name);
  return m != nullptr && m->kind == MetricKind::kGauge ? m->sum : 0.0;
}

const Metric* MetricBag::Find(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

namespace {

/// Doubles rendered with %.17g round-trip exactly, so equal values
/// serialize to equal bytes (the byte-identity acceptance criterion).
/// Non-finite values have no JSON literal; null stands in.
std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  return StringPrintf("%.17g", v);
}

}  // namespace

std::string MetricBag::ToString(const std::string& indent) const {
  std::string out;
  for (const auto& [name, m] : values_) {
    out += StringPrintf("%s%-44s ", indent.c_str(), name.c_str());
    switch (m.kind) {
      case MetricKind::kCounter:
        out += StringPrintf("counter    %llu",
                            static_cast<unsigned long long>(m.count));
        break;
      case MetricKind::kGauge:
        out += StringPrintf("gauge      %.6g", m.sum);
        break;
    }
    out += "\n";
  }
  return out;
}

std::string MetricBag::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : values_) {
    if (!first) out += ", ";
    first = false;
    out += StringPrintf("\"%s\": ", JsonEscape(name).c_str());
    switch (m.kind) {
      case MetricKind::kCounter:
        out += StringPrintf("{\"kind\": \"counter\", \"value\": %llu}",
                            static_cast<unsigned long long>(m.count));
        break;
      case MetricKind::kGauge:
        out += StringPrintf("{\"kind\": \"gauge\", \"value\": %s}",
                            JsonDouble(m.sum).c_str());
        break;
    }
  }
  out += "}";
  return out;
}

}  // namespace p3c
