#include "obs/exporters.h"

#include <cstdio>
#include <utility>

#include "util/atomic_file.h"
#include "util/json.h"
#include "util/string_util.h"

namespace comx {
namespace obs {

namespace {

// Splits "base{labels}" into its parts; labels comes back empty for
// unlabeled names.
std::pair<std::string_view, std::string_view> SplitName(
    std::string_view name) {
  const size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  std::string_view labels = name.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.remove_suffix(1);
  return {name.substr(0, brace), labels};
}

// "base_suffix{labels,extra}" with every part optional.
std::string SeriesName(std::string_view base, std::string_view suffix,
                       std::string_view labels, std::string_view extra) {
  std::string out(base);
  out += suffix;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

// Emits HELP/TYPE once per base name (samples arrive sorted by full name,
// so label variants of one base are adjacent).
void MaybeHeader(std::string* out, std::string_view base,
                 std::string_view help, const char* type,
                 std::string* last_base) {
  if (*last_base == base) return;
  *last_base = std::string(base);
  if (!help.empty()) {
    out->append("# HELP ").append(base).append(" ").append(help).append("\n");
  }
  out->append("# TYPE ").append(base).append(" ").append(type).append("\n");
}

}  // namespace

Result<MetricsFormat> ParseMetricsFormat(std::string_view name) {
  if (name == "prom" || name == "prometheus") {
    return MetricsFormat::kPrometheus;
  }
  if (name == "json") return MetricsFormat::kJson;
  return Status::InvalidArgument(
      StrFormat("unknown metrics format '%.*s' (want prom|json)",
                static_cast<int>(name.size()), name.data()));
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_base;
  for (const CounterSample& c : snapshot.counters) {
    const auto [base, labels] = SplitName(c.name);
    MaybeHeader(&out, base, c.help, "counter", &last_base);
    out += SeriesName(base, "", labels, "");
    out += StrFormat(" %lld\n", static_cast<long long>(c.value));
  }
  last_base.clear();
  for (const GaugeSample& g : snapshot.gauges) {
    const auto [base, labels] = SplitName(g.name);
    MaybeHeader(&out, base, g.help, "gauge", &last_base);
    out += SeriesName(base, "", labels, "");
    out += StrFormat(" %.17g\n", g.value);
  }
  last_base.clear();
  // Latency histograms export as Prometheus summaries (quantile label),
  // converted from nanoseconds to the seconds their base names promise.
  for (const LatencySample& l : snapshot.latencies) {
    const auto [base, labels] = SplitName(l.name);
    MaybeHeader(&out, base, l.help, "summary", &last_base);
    static constexpr std::pair<const char*, double> kQuantiles[] = {
        {"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999}};
    for (const auto& [label, q] : kQuantiles) {
      out += SeriesName(base, "", labels,
                        StrFormat("quantile=\"%s\"", label));
      out += StrFormat(
          " %.17g\n",
          static_cast<double>(l.latency.ValueAtQuantileNanos(q)) / 1e9);
    }
    out += SeriesName(base, "_sum", labels, "");
    out += StrFormat(" %.17g\n",
                     static_cast<double>(l.latency.sum_nanos) / 1e9);
    out += SeriesName(base, "_count", labels, "");
    out += StrFormat(" %lld\n", static_cast<long long>(l.latency.count));
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const CounterSample& c : snapshot.counters) w.KV(c.name, c.value);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const GaugeSample& g : snapshot.gauges) w.KV(g.name, g.value);
  w.EndObject();
  w.Key("latencies").BeginObject();
  for (const LatencySample& l : snapshot.latencies) {
    w.Key(l.name).BeginObject();
    w.KV("count", l.latency.count)
        .KV("sum_ns", l.latency.sum_nanos)
        .KV("max_ns", l.latency.max_nanos)
        .KV("p50_ns", l.latency.ValueAtQuantileNanos(0.50))
        .KV("p90_ns", l.latency.ValueAtQuantileNanos(0.90))
        .KV("p99_ns", l.latency.ValueAtQuantileNanos(0.99))
        .KV("p999_ns", l.latency.ValueAtQuantileNanos(0.999));
    // Sparse [index, count] pairs of the log-linear buckets (see
    // latency_histogram.h for the index -> bound mapping).
    w.Key("buckets").BeginArray();
    for (const auto& [index, count] : l.latency.NonZeroBuckets()) {
      w.BeginArray().Value(index).Value(count).EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

Status WriteMetricsFile(const MetricsRegistry& registry,
                        const std::string& path, MetricsFormat format) {
  const MetricsSnapshot snapshot = registry.Snapshot();
  std::string body = format == MetricsFormat::kPrometheus
                         ? ToPrometheusText(snapshot)
                         : ToJson(snapshot);
  if (format == MetricsFormat::kJson) body += '\n';
  return AtomicWriteFile(path, body);
}

}  // namespace obs
}  // namespace comx
