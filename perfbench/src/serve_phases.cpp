// The serve phases: set-up, the paced (open-loop) and saturated
// (closed-loop) phases, and the single-threaded stage replay, all through
// DetectorService's and the stages' public APIs.
//
// Topology in both phases: 9 streams on `shards` scoring workers (stream s
// on shard s % shards) fed by one producer thread — the benchmark's main
// thread — so a phase uses shards + 1 busy threads.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "gansec/dsp/cwt.hpp"
#include "gansec/model/registry.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/security/attacks.hpp"
#include "phases.hpp"
#include "train_path.hpp"

namespace perfbench {

namespace dsp = gansec::dsp;
namespace obs = gansec::obs;
namespace security = gansec::security;
namespace serve = gansec::serve;

namespace {

/// Attacked share of the windows on each attacked stream.
constexpr double kAttackFraction = 0.25;
/// A verdict later than one window period after its due time is a miss.
constexpr double kPeriodsPerDeadline = 1.0;
/// One window in this many is re-scored through the batch path.
constexpr std::size_t kRescoreEvery = 64;
/// Ring slots per stream in the saturated phase: 8 queued windows per
/// stream keep each shard busy for well over a second, and stop() drains
/// at most 72 windows instead of 576.
constexpr std::size_t kSaturateRing = 8;

/// Streams 0-2 carry integrity attacks, 3-5 availability, 6-8 none; with
/// shard = stream % 3 every shard serves one stream of each kind.
security::AttackKind stream_attack(std::size_t stream) {
  switch (stream / 3) {
    case 0: return security::AttackKind::kIntegrity;
    case 1: return security::AttackKind::kAvailability;
    default: return security::AttackKind::kNone;
  }
}

/// Window id used in span tags and check messages, e.g. "s3/w17".
std::string window_tag(std::size_t stream, std::size_t index) {
  std::string tag = "s";
  tag += std::to_string(stream);
  tag += "/w";
  tag += std::to_string(index);
  return tag;
}

std::string stream_tag(std::size_t stream) {
  std::string tag = "stream ";
  tag += std::to_string(stream);
  return tag;
}

/// Waits on the trace clock: sleeps while far from `due`, then yields.
void wait_until(double due) {
  for (;;) {
    const double left = due - span_now_us();
    if (left <= 0.0) return;
    if (left > 1500.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(left - 1000.0));
    } else {
      std::this_thread::yield();
    }
  }
}

std::uint64_t workspace_alloc_bytes() {
  return obs::counter("math.workspace.alloc_bytes").value();
}

/// Re-scores a window through the batch path (features_for_waveform +
/// ScoringModel::score_row); the repo's invariant is exact equality with
/// the streamed score.
double batch_score(const Served& sv, const serve::StreamSource::Window& w) {
  return sv.model->score_row(sv.builder->features_for_waveform(w.samples),
                             w.expected_label);
}

}  // namespace

double stream_rate(const Scale& scale) { return 1.0 / scale.window_s; }

Traffic synthesize(const am::DatasetBuilder& builder,
                   std::uint64_t content_seed, std::uint64_t order_seed,
                   std::size_t per_stream) {
  Traffic t;
  Digest digest;
  t.windows.resize(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    serve::LoadGenConfig lg;
    lg.streams = kStreams;
    lg.windows_per_stream = per_stream;
    lg.attack_kind = stream_attack(s);
    lg.attack_fraction =
        lg.attack_kind == security::AttackKind::kNone ? 0.0 : kAttackFraction;
    lg.seed = content_seed;
    serve::StreamSource source(builder, lg, s);
    for (std::size_t j = 0; j < per_stream; ++j) {
      t.windows[s].push_back(source.next());
    }
    math::Rng rng(math::split_seed(order_seed, s));
    for (std::size_t j = per_stream; j > 1; --j) {
      const auto k = static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(j) - 1));
      std::swap(t.windows[s][j - 1], t.windows[s][k]);
    }
    for (const serve::StreamSource::Window& w : t.windows[s]) {
      digest.add(w.expected_label);
      digest.add(w.truth);
      digest.add_bytes(w.samples.data(), w.samples.size() * sizeof(double));
    }
  }
  t.digest = digest.hex();
  return t;
}

Served set_up(const Options& o, std::size_t ring_capacity,
              std::size_t expected_windows, SpanLog& spans, double& setup_s) {
  Served sv;
  const std::int64_t root = spans.open("perfbench.setup", -1, "setup");

  const std::int64_t load = spans.open("model.load", root, "setup");
  const gansec::model::ModelRegistry registry(
      fixture_registry(o.fixture_dir));
  gan::Cgan cgan = registry.load_latest(bench_pair());
  sv.builder =
      std::make_unique<am::DatasetBuilder>(dataset_config(o.scale, 0));
  sv.builder->restore_scaler(load_fixture_scaler(o.fixture_dir, o.scale.bins));
  spans.close(load);

  const std::int64_t ctor = spans.open("security.scoring_model", root, "setup");
  const security::DetectorConfig detector_config;
  sv.model =
      std::make_shared<const security::ScoringModel>(cgan, detector_config);
  spans.close(ctor);

  // Threshold calibration on benign injector windows, as `gansec serve`.
  const std::int64_t cal = spans.open("security.calibrate", root, "setup");
  security::AttackInjector injector(*sv.builder);
  std::vector<double> benign;
  for (const security::Observation& ob :
       injector.generate(o.scale.calibrate_per_condition, 0.0,
                         security::AttackKind::kNone)) {
    benign.push_back(sv.model->score_row(ob.features, ob.expected_label));
  }
  sv.detector.threshold = math::percentile(
      std::move(benign), detector_config.false_alarm_percentile);
  sv.detector.availability_floor = 0.05;
  spans.close(cal);

  const std::int64_t init = spans.open("serve.init", root, "setup");
  serve::DetectorService::Config config;
  config.streams = kStreams;
  config.workers = o.shards;
  config.ring_capacity = ring_capacity;
  config.window_length = serve::window_sample_count(sv.builder->config());
  config.detector = sv.detector;
  config.keep_results = true;
  config.expected_windows = expected_windows;
  sv.service = std::make_unique<serve::DetectorService>(sv.model,
                                                        *sv.builder, config);
  sv.service->start();
  spans.close(init);
  setup_s = spans.close(root) / 1e6;
  return sv;
}

Replay replay(const Served& sv, const Traffic& traffic, std::size_t count,
              SpanLog& spans, RunResult& out) {
  const am::DatasetBuilder& b = *sv.builder;
  const dsp::MorletCwt cwt(dsp::CwtConfig{b.config().acoustic.sample_rate});
  dsp::CwtWindowPlan plan(cwt, serve::window_sample_count(b.config()),
                          b.binner().centers());
  security::StreamDetector detector(sv.model, sv.detector);
  const std::size_t bins = b.binner().size();
  std::vector<double> energies(bins);
  std::vector<float> raw(bins);
  std::vector<float> scaled(bins);
  const std::int64_t root = spans.open("perfbench.replay", -1, "replay");
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = i % kStreams;
    const auto& w = traffic.windows[s][(i / kStreams) %
                                       traffic.windows[s].size()];
    const std::string tag = window_tag(s, i) + " replay";
    std::int64_t id = spans.open("dsp.cwt_stream", root, tag);
    plan.band_energies_into(w.samples.data(), w.samples.size(),
                            energies.data());
    spans.close(id);
    for (std::size_t c = 0; c < bins; ++c) {
      raw[c] = static_cast<float>(energies[c]);
    }
    id = spans.open("dsp.scale", root, tag);
    b.scaler().transform_row_into(raw.data(), bins, scaled.data());
    spans.close(id);
    id = spans.open("security.score", root, tag);
    detector.score_window(scaled.data(), bins, w.expected_label);
    spans.close(id);
    out.check(replay_batch_stages(b, w.samples, spans, root, tag) == energies,
              tag + ": batch and streaming CWT differ");
  }
  spans.close(root);
  Replay r;
  r.cwt_stream_ms = median(spans.durations_ms("dsp.cwt_stream"));
  r.cwt_batch_ms = median(spans.durations_ms("dsp.cwt_batch"));
  r.fft_us = median(spans.durations_ms("dsp.fft")) * 1000.0;
  r.scale_us = median(spans.durations_ms("dsp.scale")) * 1000.0;
  r.score_us = median(spans.durations_ms("security.score")) * 1000.0;
  return r;
}

PacedPass paced_pass(const Options& o, const Traffic& traffic,
                     RunResult& out, SpanLog& spans, bool record) {
  const std::size_t per = traffic.windows[0].size();
  PacedPass p;
  p.served = set_up(o, kPacedRing, per, spans, p.setup_s);
  serve::DetectorService& service = *p.served.service;
  const std::int64_t phase =
      record ? spans.open("perfbench.paced", -1, "paced") : -1;

  struct Arrival {
    double due;  ///< trace clock, us
    std::size_t stream;
    std::size_t index;
  };
  // Stream phases are spread evenly over one window period, shifted by a
  // seeded fraction of a phase slot.
  const double period_us = 1e6 / stream_rate(o.scale);
  math::Rng phase_rng(math::split_seed(o.seed, 0xFA5E));
  const double shift = phase_rng.uniform(0.0, 1.0);
  const double t0 = span_now_us() + 20000.0;
  std::vector<std::vector<double>> due(kStreams, std::vector<double>(per));
  std::vector<Arrival> schedule;
  schedule.reserve(kStreams * per);
  for (std::size_t s = 0; s < kStreams; ++s) {
    const double offset = period_us * (static_cast<double>(s) + shift) /
                          static_cast<double>(kStreams);
    for (std::size_t j = 0; j < per; ++j) {
      due[s][j] = t0 + offset + period_us * static_cast<double>(j);
      schedule.push_back({due[s][j], s, j});
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) { return a.due < b.due; });

  std::vector<std::vector<double>> stamp(kStreams, std::vector<double>(per));
  std::vector<double> push_end(schedule.size(), 0.0);
  const std::uint64_t alloc0 = workspace_alloc_bytes();
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Arrival& a = schedule[k];
    wait_until(a.due);
    const serve::StreamSource::Window& w = traffic.windows[a.stream][a.index];
    std::vector<double> buffer = service.acquire_buffer(a.stream);
    buffer.assign(w.samples.begin(), w.samples.end());
    const double t = span_now_us();
    service.push(a.stream, w.expected_label, std::move(buffer));
    push_end[k] = span_now_us();
    stamp[a.stream][a.index] = t;
  }
  service.stop();
  p.alloc_bytes = workspace_alloc_bytes() - alloc0;
  if (record) spans.close(phase);

  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Arrival& a = schedule[k];
    const double t = stamp[a.stream][a.index];
    p.lag_ms.push_back((t - a.due) / 1000.0);
    p.push_us.push_back(push_end[k] - t);
    if (record) {
      spans.add("serve.push", t, push_end[k], phase,
                window_tag(a.stream, a.index));
    }
  }

  // Match verdicts to windows by per-stream sequence (= offer order). A
  // dropped window has no verdict: it counts as benign for the quality
  // metrics and as a deadline miss.
  const double deadline_ms = kPeriodsPerDeadline * period_us / 1000.0;
  Digest verdicts;
  for (std::size_t s = 0; s < kStreams; ++s) {
    std::vector<const serve::WindowResult*> by_seq(per, nullptr);
    for (const serve::WindowResult& r : service.results(s)) {
      if (r.sequence < per) by_seq[r.sequence] = &r;
    }
    const serve::StreamTotals totals = service.totals(s);
    out.check(totals.scored + totals.dropped == per,
              stream_tag(s) + ": scored + dropped != offered");
    p.dropped += totals.dropped;
    for (std::size_t j = 0; j < per; ++j) {
      const serve::StreamSource::Window& w = traffic.windows[s][j];
      const serve::WindowResult* r = by_seq[j];
      ++p.offered;
      const auto verdict =
          r != nullptr ? r->verdict : security::StreamVerdict::kBenign;
      switch (w.truth) {
        case security::AttackKind::kIntegrity:
          ++p.integrity;
          p.integrity_hit += verdict == security::StreamVerdict::kIntegrity;
          break;
        case security::AttackKind::kAvailability:
          ++p.availability;
          p.availability_hit +=
              verdict == security::StreamVerdict::kAvailability;
          break;
        default:
          ++p.benign;
          p.false_alarms += verdict != security::StreamVerdict::kBenign;
          break;
      }
      if (r == nullptr) continue;
      verdicts.add(s);
      verdicts.add(j);
      verdicts.add(r->verdict);
      verdicts.add(r->score);
      const double t = stamp[s][j];
      const double lat = (t - due[s][j] + r->latency_us) / 1000.0;
      p.latency_ms.push_back(lat);
      p.e2v_ms.push_back(r->latency_us / 1000.0);
      p.deadline_ok += lat <= deadline_ms;
      if (record) {
        const std::string tag = window_tag(s, j);
        const double verdict_at = t + r->latency_us;
        const std::int64_t win =
            spans.add("serve.window", due[s][j], verdict_at, phase, tag);
        spans.add("gen.lag", due[s][j], t, win, tag);
        spans.add("serve.enqueue_to_verdict", t, verdict_at, win, tag);
      }
      if ((s * per + j) % kRescoreEvery == 0) {
        out.check(batch_score(p.served, w) == r->score,
                  window_tag(s, j) + ": batch score != streamed score");
      }
    }
  }
  p.verdict_digest = verdicts.hex();
  return p;
}

SaturatePass saturate_pass(const Options& o, double seconds,
                           const Traffic& pool, RunResult& out,
                           SpanLog& spans, bool record) {
  SaturatePass p;
  // Results are kept for the batch re-score check; size them for a
  // generous bound on what one stream can score in the phase.
  const auto expected = static_cast<std::size_t>(seconds * 64.0);
  p.served = set_up(o, kSaturateRing, expected, spans, p.setup_s);
  serve::DetectorService& service = *p.served.service;
  const std::size_t per = pool.windows[0].size();

  std::vector<std::uint64_t> offered(kStreams, 0);
  const std::uint64_t alloc0 = workspace_alloc_bytes();
  const std::int64_t phase =
      record ? spans.open("perfbench.saturate", -1, "saturate") : -1;
  const double t0 = span_now_us();
  const double until = t0 + seconds * 1e6;
  while (span_now_us() < until) {
    // Feed the stream with the shortest backlog, so push_blocking waits
    // only when every ring is full and no shard can run dry behind a
    // stream whose shard is busy elsewhere.
    std::size_t s = 0;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::size_t i = 0; i < kStreams; ++i) {
      const serve::StreamTotals t = service.totals(i);
      const std::uint64_t backlog = t.ingested - t.scored - t.dropped;
      if (backlog < best) {
        best = backlog;
        s = i;
      }
    }
    const serve::StreamSource::Window& w =
        pool.windows[s][offered[s] % per];
    std::vector<double> buffer = service.acquire_buffer(s);
    buffer.assign(w.samples.begin(), w.samples.end());
    const double t = span_now_us();
    service.push_blocking(s, w.expected_label, std::move(buffer));
    if (record) {
      spans.add("serve.push_blocking", t, span_now_us(), phase,
                window_tag(s, offered[s]));
    }
    ++offered[s];
  }
  // Throughput is read while every ring still holds a backlog. The drain
  // in stop() is left out: which shard empties its rings last is chance,
  // and the tail where the other shards idle measures ring depth.
  for (std::size_t s = 0; s < kStreams; ++s) {
    p.push_phase_scored += service.totals(s).scored;
  }
  p.push_phase_s = (span_now_us() - t0) / 1e6;
  service.stop();
  if (record) spans.close(phase);
  p.alloc_bytes = workspace_alloc_bytes() - alloc0;

  // Re-score 1 in 64 windows; repeats of a pool window share one batch
  // score, but each selected window is checked.
  std::vector<std::vector<double>> batch(
      kStreams, std::vector<double>(per, std::nan("")));
  for (std::size_t s = 0; s < kStreams; ++s) {
    const serve::StreamTotals totals = service.totals(s);
    out.check(totals.dropped == 0, stream_tag(s) + " dropped windows");
    out.check(totals.scored + totals.dropped == offered[s],
              stream_tag(s) + ": scored + dropped != offered");
    p.offered += offered[s];
    for (const serve::WindowResult& r : service.results(s)) {
      if ((r.sequence * kStreams + s) % kRescoreEvery != 0) continue;
      const std::size_t j = r.sequence % per;
      if (std::isnan(batch[s][j])) {
        batch[s][j] = batch_score(p.served, pool.windows[s][j]);
      }
      out.check(batch[s][j] == r.score,
                window_tag(s, r.sequence) +
                    ": batch score != streamed score");
    }
  }
  return p;
}

}  // namespace perfbench
