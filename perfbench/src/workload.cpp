// One run. Every workload executes the same phases and reports every
// metric; the workload decides which phase gets the run's size:
//
//   serve-paced     paced phase for --seconds       (latency, quality)
//   serve-saturate  saturated phase for --seconds   (windows_per_s)
//   train           train path at the full scale    (train_s, leak_acc)
//
// and the other phases run at their probe size (Scale::probe_*). Order:
// a set-up on its own, set-up + paced phase, (traced: the replay), set-up
// + saturated phase, the train path; setup_s is the median of the three
// set-ups.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "gansec/core/execution.hpp"
#include "gansec/obs/metrics.hpp"
#include "gansec/obs/trace.hpp"
#include "phases.hpp"

namespace perfbench {

namespace obs = gansec::obs;

namespace {

/// Validity bound on the generator's own lateness (push stamp - due): past
/// it, the numbers describe the host's scheduler, not the program.
constexpr double kLagBoundMs = 25.0;

struct Plan {
  double paced_s = 0.0;
  double saturate_s = 0.0;
  Scale train;
};

Plan plan_for(const Options& o) {
  Plan plan{o.scale.probe_paced_s, o.scale.probe_saturate_s,
            probe_train_scale(o.scale)};
  if (o.workload == "serve-paced") {
    plan.paced_s = o.seconds;
  } else if (o.workload == "serve-saturate") {
    plan.saturate_s = o.seconds;
  } else if (o.workload == "train") {
    plan.train = o.scale;
  } else {
    throw std::invalid_argument("unknown --workload " + o.workload);
  }
  return plan;
}

struct Measured {
  std::vector<double> setup_s;
  PacedPass paced;
  Replay replay;  ///< traced runs only
  SaturatePass saturate;
  TrainPass train;
};

Measured run_plan(const Options& o, const Plan& plan, const Traffic& corpus,
                  const Traffic& pool, RunResult& out, SpanLog& spans,
                  bool record) {
  Measured m;
  double alone_s = 0.0;
  set_up(o, kPacedRing, 0, spans, alone_s).service->stop();
  m.setup_s.push_back(alone_s);
  m.paced = paced_pass(o, corpus, out, spans, record);
  m.setup_s.push_back(m.paced.setup_s);
  // The replay sits between the two serve phases, so the quantities
  // derived from it and from a phase (queue wait, shard busy fraction)
  // combine measurements taken moments apart on a host whose speed drifts.
  if (record) {
    m.replay = replay(m.paced.served, corpus, o.scale.replay_windows, spans,
                      out);
  }
  m.saturate = saturate_pass(o, plan.saturate_s, pool, out, spans, record);
  m.setup_s.push_back(m.saturate.setup_s);
  m.train = train_pass(o, plan.train, spans, out);
  return m;
}

/// The workload's main metric, for obs.trace_overhead_frac.
double main_metric(const std::string& workload, const Measured& m) {
  if (workload == "serve-paced") {
    return math::percentile(m.paced.latency_ms, 50.0);
  }
  if (workload == "serve-saturate") return m.saturate.windows_per_s();
  return m.train.train_s;
}

double frac(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::string join(const std::vector<double>& xs) {
  std::string s;
  for (const double x : xs) {
    if (!s.empty()) s += ",";
    s += std::to_string(x);
  }
  return s;
}

void report_end_to_end(RunResult& out, const Measured& m) {
  const PacedPass& p = m.paced;
  out.metric("setup_s", median(m.setup_s), "s");
  out.metric("latency_ms_p50", math::percentile(p.latency_ms, 50.0), "ms");
  out.metric("latency_ms_p90", math::percentile(p.latency_ms, 90.0), "ms");
  out.metric("deadline_ok_frac", frac(p.deadline_ok, p.offered), "frac");
  out.metric("integrity_recall", frac(p.integrity_hit, p.integrity), "frac");
  out.metric("availability_recall", frac(p.availability_hit, p.availability),
             "frac");
  out.metric("false_alarm_frac", frac(p.false_alarms, p.benign), "frac");
  out.metric("windows_per_s", m.saturate.windows_per_s(), "1/s");
  out.metric("train_s", m.train.train_s, "s");
  out.metric("leak_acc", m.train.leak_acc, "frac");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_per_layer(RunResult& out, const Options& o, const Measured& t,
                      const SpanLog& spans) {
  const Replay& r = t.replay;
  out.metric("dsp.cwt_stream_ms", r.cwt_stream_ms, "ms");
  out.metric("dsp.cwt_batch_ms", r.cwt_batch_ms, "ms");
  out.metric("dsp.fft_us", r.fft_us, "us");
  out.metric("dsp.scale_us", r.scale_us, "us");
  out.metric("security.score_us", r.score_us, "us");
  out.metric("serve.push_us", median(t.paced.push_us), "us");
  out.metric("serve.enqueue_to_verdict_ms_p50",
             math::percentile(t.paced.e2v_ms, 50.0), "ms");
  out.metric("serve.enqueue_to_verdict_ms_p99",
             math::percentile(t.paced.e2v_ms, 99.0), "ms");
  std::vector<double> wait = t.paced.e2v_ms;
  for (double& x : wait) x -= r.stage_sum_ms();
  out.metric("serve.queue_wait_ms_p50", math::percentile(wait, 50.0), "ms");
  out.metric("serve.shard_busy_frac",
             t.saturate.windows_per_s() * r.stage_sum_ms() / 1000.0 /
                 static_cast<double>(o.shards),
             "frac");
  out.metric("serve.windows_dropped", static_cast<double>(t.paced.dropped),
             "count");
  out.metric("gen.lag_ms_p99", math::percentile(t.paced.lag_ms, 99.0), "ms");
  for (const char* step : {"model.load", "security.scoring_model",
                           "security.calibrate", "serve.init"}) {
    out.metric(std::string(step) + "_ms", median(spans.durations_ms(step)),
               "ms");
  }
  const TrainPass& tr = t.train;
  out.metric("am.dataset_build_s", tr.build_s, "s");
  out.metric("am.synth_ms", synth_ms_per_window(tr), "ms");
  out.metric("gan.train_s", tr.fit_s, "s");
  out.metric("gan.iter_ms_p50",
             obs::histogram_percentile(
                 obs::histogram("gan.train.iter_us", {}).snapshot(), 0.5) /
                 1000.0,
             "ms");
  out.metric("gan.gflop_per_s", tr.gflop / tr.fit_s, "GFLOP/s");
  out.metric("exec.parallel_for_per_iter",
             static_cast<double>(tr.dispatched) /
                 static_cast<double>(tr.iterations),
             "count");
  out.metric("math.workspace_alloc_bytes",
             static_cast<double>(t.paced.alloc_bytes +
                                 t.saturate.alloc_bytes + tr.alloc_bytes),
             "bytes");
  out.metric("model.save_ms", tr.save_s * 1000.0, "ms");
}

}  // namespace

RunResult run_workload(const Options& o) {
  const Plan plan = plan_for(o);
  gansec::core::ExecutionConfig exec;
  exec.threads = kThreads;
  const gansec::core::ScopedExecution scoped(exec);

  // Traffic is synthesized before any timing starts. The paced corpus is
  // the fixed labeled one (--seed shuffles its offer order and shifts the
  // stream phases); the saturate pool is drawn from --seed.
  const am::DatasetBuilder traffic_builder(dataset_config(o.scale, 0));
  const std::size_t per = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(plan.paced_s * stream_rate(o.scale))));
  const Traffic corpus = synthesize(traffic_builder, kFixedSeed, o.seed, per);
  const Traffic pool =
      synthesize(traffic_builder, math::split_seed(o.seed, 0x5A7), o.seed,
                 o.scale.saturate_pool);

  RunResult out;
  out.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.note("streams", std::to_string(kStreams));
  out.note("shards", std::to_string(o.shards));
  out.note("threads", std::to_string(kThreads));
  out.note("paced_offered_windows_per_s",
           std::to_string(stream_rate(o.scale) * kStreams));
  out.note("paced_windows_offered", std::to_string(per * kStreams));
  out.note("saturate_s", std::to_string(plan.saturate_s));
  out.note("train_windows", std::to_string(3 * plan.train.samples_per_condition));
  out.note("train_iterations", std::to_string(plan.train.iterations));
  out.note("traffic_digest", corpus.digest);
  out.note("pool_digest", pool.digest);

  SpanLog untraced_spans;
  const Measured m =
      run_plan(o, plan, corpus, pool, out, untraced_spans, false);
  const double lag_p99 = math::percentile(m.paced.lag_ms, 99.0);
  out.note("verdict_digest", m.paced.verdict_digest);
  out.note("gen_lag_ms_p99", std::to_string(lag_p99));
  out.note("setup_times_s", join(m.setup_s));
  out.note("saturate_windows_offered", std::to_string(m.saturate.offered));
  if (lag_p99 > kLagBoundMs) {
    throw std::runtime_error(
        "generator lag p99 " + std::to_string(lag_p99) + " ms exceeds " +
        std::to_string(kLagBoundMs) + " ms: the host is overloaded");
  }
  if (!o.trace) {
    report_end_to_end(out, m);
    return out;
  }

  // Traced run: the same plan again with the benchmark's spans, the
  // program's own obs spans and the replay of the paced windows.
  SpanLog spans;
  obs::histogram("gan.train.iter_us", {}).reset();
  obs::clear_trace();
  obs::set_tracing(true);
  const Measured t = run_plan(o, plan, corpus, pool, out, spans, true);
  obs::set_tracing(false);
  out.note("traced_setup_s", std::to_string(median(t.setup_s)));
  out.note("traced_train_s", std::to_string(t.train.train_s));
  out.note("replay_stage_sum_ms", std::to_string(t.replay.stage_sum_ms()));
  out.note("replay_cwt_share", std::to_string(t.replay.cwt_stream_ms /
                                              t.replay.stage_sum_ms()));
  report_per_layer(out, o, t, spans);
  // Positive = slower when traced; windows_per_s is inverted to match.
  const double untraced = main_metric(o.workload, m);
  const double traced = main_metric(o.workload, t);
  out.metric("obs.trace_overhead_frac",
             o.workload == "serve-saturate" ? untraced / traced - 1.0
                                            : traced / untraced - 1.0,
             "frac");
  import_program_spans(spans);
  spans.write_json(span_file(o));
  return out;
}

}  // namespace perfbench
