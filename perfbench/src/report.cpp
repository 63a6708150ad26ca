#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "gansec/dsp/cwt.hpp"
#include "gansec/dsp/fft.hpp"
#include "gansec/obs/json.hpp"
#include "gansec/obs/trace.hpp"

namespace perfbench {

std::uint64_t now_us() { return gansec::obs::trace_now_us(); }

double span_now_us() {
  // Both clocks are steady_clock; anchoring once aligns them to within the
  // trace clock's 1 us tick.
  using Clock = std::chrono::steady_clock;
  static const auto anchor_steady = Clock::now();
  static const auto anchor_trace = static_cast<double>(now_us());
  return anchor_trace + std::chrono::duration<double, std::micro>(
                            Clock::now() - anchor_steady)
                            .count();
}

std::int64_t SpanLog::open(std::string name, std::int64_t parent,
                           std::string tag) {
  const double t = span_now_us();
  return add(std::move(name), t, t, parent, std::move(tag));
}

double SpanLog::close(std::int64_t id) {
  SpanRecord& s = spans_.at(static_cast<std::size_t>(id));
  s.end_us = span_now_us();
  return s.end_us - s.start_us;
}

std::int64_t SpanLog::add(std::string name, double start_us, double end_us,
                          std::int64_t parent, std::string tag) {
  spans_.push_back(
      {std::move(name), start_us, end_us, parent, std::move(tag)});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) {
      out.push_back((s.end_us - s.start_us) / 1000.0);
    }
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  os << "{\"schema\":\"perfbench.spans.v1\",\"clock\":\"obs::trace_now_us\","
        "\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\""
       << gansec::obs::json_escape(s.name) << "\",\"start_us\":"
       << std::fixed << std::setprecision(3) << s.start_us
       << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
       << ",\"tag\":\"" << gansec::obs::json_escape(s.tag) << "\"}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001B3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::vector<double> replay_batch_stages(const am::DatasetBuilder& builder,
                                        const std::vector<double>& samples,
                                        SpanLog& spans, std::int64_t parent,
                                        const std::string& tag) {
  namespace dsp = gansec::dsp;
  const dsp::MorletCwt cwt(
      dsp::CwtConfig{builder.config().acoustic.sample_rate});
  std::int64_t id = spans.open("dsp.cwt_batch", parent, tag);
  std::vector<double> energies =
      cwt.band_energies(samples, builder.binner().centers());
  spans.close(id);
  std::vector<dsp::Complex> padded(dsp::next_power_of_two(samples.size()));
  std::copy(samples.begin(), samples.end(), padded.begin());
  id = spans.open("dsp.fft", parent, tag);
  dsp::fft_in_place(padded);
  spans.close(id);
  return energies;
}

std::string span_file(const Options& options) {
  return options.work_dir + "/spans-" + options.workload + "-seed" +
         std::to_string(options.seed) + ".json";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
