#include "obs/live/metrics_registry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace pbfs {
namespace obs {

namespace {

// Escapes for a # HELP line: backslash and newline (the only escapes
// the format defines there).
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Escapes for a label value: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(name[0])) return false;
  for (size_t i = 1; i < name.size(); ++i) {
    if (!tail(name[i])) return false;
  }
  return true;
}

std::string ExpositionWriter::FormatValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  // Integral values print without a fraction so counters read
  // naturally; everything else gets enough digits to round-trip the
  // interesting range.
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::fabs(value) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(value)));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

void ExpositionWriter::BeginFamily(const std::string& name,
                                   const std::string& help,
                                   const char* type) {
  PBFS_CHECK(IsValidMetricName(name));
  PBFS_CHECK(families_.insert(name).second);
  text_ += "# HELP " + name + " " + EscapeHelp(help) + "\n";
  text_ += "# TYPE " + name + " ";
  text_ += type;
  text_ += "\n";
}

void ExpositionWriter::Sample(const std::string& name,
                              const std::vector<MetricLabel>& labels,
                              double value) {
  text_ += name;
  if (!labels.empty()) {
    text_ += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) text_ += ',';
      text_ += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) +
               "\"";
    }
    text_ += '}';
  }
  text_ += ' ';
  text_ += FormatValue(value);
  text_ += '\n';
}

void ExpositionWriter::SummarySamples(const std::string& name,
                                      const std::vector<MetricLabel>& labels,
                                      const SummaryData& data) {
  for (const auto& [q, value] : data.quantiles) {
    std::vector<MetricLabel> with_quantile = labels;
    with_quantile.emplace_back("quantile", FormatValue(q));
    Sample(name, with_quantile, value);
  }
  Sample(name + "_sum", labels, data.sum);
  Sample(name + "_count", labels, static_cast<double>(data.count));
}

void ExpositionWriter::HistogramSamples(const std::string& name,
                                        const std::vector<MetricLabel>& labels,
                                        const Histogram& hist) {
  uint64_t cumulative = 0;
  for (int b = 0; b < hist.num_buckets(); ++b) {
    cumulative += hist.bucket_count(b);
    std::vector<MetricLabel> with_le = labels;
    const double upper = hist.BucketUpper(b);
    with_le.emplace_back("le", std::isinf(upper) ? "+Inf"
                                                 : FormatValue(upper));
    Sample(name + "_bucket", with_le, static_cast<double>(cumulative));
  }
  Sample(name + "_sum", labels, hist.sum());
  Sample(name + "_count", labels, static_cast<double>(hist.count()));
}

void MetricsRegistry::AddCollector(const void* owner, Collector fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(OwnedCollector{owner, std::move(fn)});
}

void MetricsRegistry::RemoveCollectors(const void* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.erase(
      std::remove_if(collectors_.begin(), collectors_.end(),
                     [owner](const OwnedCollector& c) {
                       return c.owner == owner;
                     }),
      collectors_.end());
}

std::string MetricsRegistry::ExpositionText() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++scrapes_;
  ExpositionWriter writer;
  writer.BeginFamily("pbfs_scrapes_total",
                     "Number of /metrics expositions rendered.", "counter");
  writer.Sample("pbfs_scrapes_total", {}, static_cast<double>(scrapes_));
  for (const OwnedCollector& c : collectors_) c.fn(writer);
  return writer.text();
}

}  // namespace obs
}  // namespace pbfs
