// perfbench: runs one DirectLoad benchmark workload and prints its
// metrics. Normally started by perfbench/run.py, which builds it first:
//
//   perfbench --workload serve_zipf --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// replays the workload's op stream through the wire, the MintCluster API
// and a single QinDb, and prints per-layer metrics.
// The last stdout line is the result object; the line before it holds the
// run's context. Exit status: 0 when every answer was right, 1 on a wrong
// answer (the result is still printed), 2 when the run could not be set up.
// See README.md for the workloads and metric definitions.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/keep_awake.h"
#include "harness/passes.h"
#include "harness/served.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/traced.h"
#include "harness/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace directload;
using namespace directload::perfbench;

namespace {

/// An end-to-end run measures on fresh stacks, one after another, until
/// its measured time reaches --seconds. A stack ends after
/// WorkloadSpec::stack_ops measured ops, so what a stack stores, and the
/// process's peak RSS, does not grow with throughput. Every stack's set-up
/// is timed, and stacks that are set up and torn down unmeasured top them
/// up to kMinSetups.
constexpr int kMinSetups = 15;
/// A stack is not started for less measured time than this.
constexpr double kMinStackSeconds = 0.5;
/// Latencies are taken per window of kWindow samples and throughputs per
/// kRateWindow completions, and a run reports the median over its windows
/// (see WindowedTiming); set-up times and bulk-load rates are medians
/// over the set-ups. Rate windows are short so that most of them fall
/// between the host's preemptions of a virtual CPU, which stall an op for
/// milliseconds (see README.md, "Steadiness").
constexpr size_t kWindow = 1000;
constexpr size_t kRateWindow = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 6;
  bool trace = false;
  std::string trace_dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && argc % 2 == 1;
}

// -- Output ------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// Metrics in a fixed order, each with its unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quoted(metrics_[i].name) + ": {\"value\": " +
             Num(metrics_[i].value) + ", \"unit\": " +
             Quoted(metrics_[i].unit) + "}";
    }
    return out + "}";
  }
  bool AllFinite() const {
    for (const auto& m : metrics_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Context fields, as raw JSON values.
class Context {
 public:
  void Add(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  void Add(const std::string& key, double v) { Add(key, Num(v)); }
  void AddString(const std::string& key, const std::string& v) {
    Add(key, Quoted(v));
  }
  void AddTiming(const std::string& metric, const Reported& r) {
    Add("samples." + metric, "{\"n\": " + std::to_string(r.samples) +
                                 ", \"percentile\": " + Num(r.percentile) +
                                 "}");
  }
  void AddLedger(const Ledger& l) {
    Add("ops.attempted", static_cast<double>(l.attempted));
    Add("ops.ok", static_cast<double>(l.ok));
    Add("ops.failed", static_cast<double>(l.failed));
    Add("ops.wrong", static_cast<double>(l.wrong));
    Add("ops.failed_unavailable", static_cast<double>(l.failed_unavailable));
    Add("ops.failed_busy", static_cast<double>(l.failed_busy));
    Add("ops.failed_timeout", static_cast<double>(l.failed_timeout));
    Add("ops.failed_not_found", static_cast<double>(l.failed_not_found));
    Add("ops.failed_other", static_cast<double>(l.failed_other));
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quoted(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

void AddRunContext(const Args& args, const WorkloadSpec& spec, Context* c) {
  c->AddString("workload", spec.name);
  c->Add("seed", static_cast<double>(args.seed));
  c->Add("seconds", args.seconds);
  c->Add("trace", args.trace ? 1 : 0);
  c->Add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  c->AddString("build_type", PERFBENCH_BUILD_TYPE);
  c->AddString("compiler", PERFBENCH_COMPILER);
  c->AddString("commit", args.commit);
  c->Add("keys", spec.keys);
  c->Add("write_keys",
         static_cast<double>(spec.write_keys > 0 ? spec.write_keys
                                                 : spec.keys));
  c->Add("value_bytes", spec.value_bytes);
  c->Add("read_share", spec.read_pct / 100.0);
  c->Add("zipf_theta", spec.theta);
  c->Add("clients", spec.clients);
  c->Add("pipeline", spec.pipeline);
  c->Add("groups", spec.groups);
  c->Add("replicas", spec.replicas);
  c->Add("aof_segment_bytes",
         static_cast<double>(mint::MintOptions().engine.aof.segment_bytes));
  const int nodes_per_group = std::max(3, spec.replicas);
  // Each key lives on `replicas` of its group's nodes.
  const double node_data_bytes =
      static_cast<double>(spec.keys) * (spec.value_bytes + 8) *
      spec.replicas / (spec.groups * nodes_per_group);
  c->Add("cache_bytes_per_node",
         static_cast<double>(spec.cache_bytes_per_node));
  c->Add("preload_bytes_per_node", node_data_bytes);
  c->Add("stack_ops", static_cast<double>(spec.stack_ops));
}

uint64_t PeakRssKiB(int who) {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(who, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t PairBytes(const WorkloadSpec& spec, const std::string& key) {
  return key.size() + static_cast<uint64_t>(spec.value_bytes);
}

/// Per-replica user bytes of the preload plus every acknowledged PUT: all
/// of them stay live in workloads that never drop a version.
uint64_t PreloadAndAckedBytes(const WorkloadSpec& spec, const PassOut& pass) {
  uint64_t bytes = 0;
  for (int i = 0; i < spec.keys; ++i) bytes += PairBytes(spec, KeyOf(i));
  for (const ClientOut& c : pass.clients) {
    for (uint64_t id : c.acked) {
      bytes += PairBytes(spec, KeyOf(c.ops[OpSeq(id)].key));
    }
  }
  return bytes;
}

// -- End-to-end run ----------------------------------------------------------

/// Sums over a run's stacks.
struct E2E {
  Ledger ledger;
  WindowedTiming read_p50{kWindow, 50};
  WindowedTiming read_p99{kWindow, 99};
  WindowedTiming write_p50{kWindow, 50};
  WindowedTiming write_p99{kWindow, 99};
  WindowedRate ops_s{kRateWindow};
  Samples setup_s;
  Samples bulk_pairs_s;
  double wall_s = 0;
  uint64_t ops = 0;
  double device_s = 0;
  uint64_t bulk_pairs = 0;
  double device_bytes_written = 0;
  double user_bytes = 0;
  double disk_bytes = 0;
  double live_bytes = 0;
  uint64_t peak_rss_kib = 0;

  void AddReads(const Samples& reads_us) {
    read_p50.AddStack(reads_us);
    read_p99.AddStack(reads_us);
  }
  void AddPass(const PassOut& pass) {
    ledger.Merge(pass.ledger);
    write_p50.AddStack(pass.writes_us);
    write_p99.AddStack(pass.writes_us);
    ops_s.AddStack(pass.done_ns);
    wall_s += pass.wall_s;
    ops += pass.measured_ops;
  }
};

/// Set-up of the in-process served stack: cluster + server + preload.
bool SetUpServed(const WorkloadSpec& spec, uint64_t seed, ServedStack* stack,
                 E2E* e2e) {
  const int64_t t0 = NowNs();
  if (Status s = StartStack(spec, seed, /*with_server=*/true, stack);
      !s.ok()) {
    std::fprintf(stderr, "perfbench: stack start failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  const VersionPairs pairs = PreloadPairs(spec);
  const int64_t t1 = NowNs();
  if (Status s = LoadOverWire(stack->port, 1, pairs, nullptr); !s.ok()) {
    std::fprintf(stderr, "perfbench: preload failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  const int64_t t2 = NowNs();
  if (e2e != nullptr) {
    e2e->setup_s.Add((t2 - t0) * 1e-9);
    e2e->bulk_pairs += pairs.pairs();
    e2e->bulk_pairs_s.Add(Ratio(pairs.pairs(), (t2 - t1) * 1e-9));
  }
  return true;
}

void AddStorage(const WorkloadSpec& spec, const NodeTotals& t,
                uint64_t live_bytes_per_replica, E2E* e2e) {
  e2e->device_bytes_written +=
      static_cast<double>(t.device_pages_written) * t.page_size;
  e2e->user_bytes += static_cast<double>(t.user_bytes);
  e2e->disk_bytes += static_cast<double>(t.disk_bytes);
  e2e->live_bytes +=
      static_cast<double>(live_bytes_per_replica) * spec.replicas;
}

bool RepServed(const WorkloadSpec& spec, uint64_t seed, double measure_s,
               E2E* e2e) {
  ServedStack stack;
  if (!SetUpServed(spec, seed, &stack, e2e)) return false;
  mint::MintCluster* cluster = stack.cluster.get();
  Target target;
  target.entry = Entry::kWire;
  target.port = stack.port;
  target.cluster = cluster;
  target.snapshot = [cluster] { return Snapshot(cluster); };

  PassPlan plan;
  plan.warm_s = kWarmSeconds;
  plan.measure_s = measure_s;
  plan.max_ops = spec.stack_ops;
  PassOut pass = RunClosedLoop(spec, seed, target, plan, false);
  e2e->device_s += pass.at_end.Minus(pass.at_start).device_us * 1e-6;
  if (spec.readback_samples > 0) {
    // write_heavy has no reads of its own: its read latency is that of
    // reading acknowledged writes back after the burst, at their exact
    // versions, which also checks them.
    Samples readback;
    ReadBackAcked(spec, target, spec.readback_samples, &pass, &readback);
    e2e->AddReads(readback);
  } else {
    e2e->AddReads(pass.reads_us);
  }
  e2e->AddPass(pass);
  AddStorage(spec, Snapshot(cluster), PreloadAndAckedBytes(spec, pass), e2e);
  return true;
}

bool RunE2E(const Args& args, const WorkloadSpec& spec, MetricSet* metrics,
            Context* context, Ledger* ledger) {
  E2E e2e;
  if (Status s = PrimeProcess(spec, args.seed); !s.ok()) {
    std::fprintf(stderr, "perfbench: priming failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  int stacks = 0;
  while (stacks == 0 || args.seconds - e2e.wall_s >= kMinStackSeconds) {
    const double measure_s =
        std::max(args.seconds - e2e.wall_s, kMinStackSeconds);
    if (!RepServed(spec, Mix(args.seed, stacks++), measure_s, &e2e)) {
      return false;
    }
    // Hand the torn-down stack's free pages back, so peak_rss_mb is one
    // stack's peak however many stacks the run's throughput allowed.
    malloc_trim(0);
  }
  for (int extra = stacks; static_cast<int>(e2e.setup_s.count()) < kMinSetups;
       ++extra) {
    ServedStack stack;
    if (!SetUpServed(spec, Mix(args.seed, extra), &stack, &e2e)) return false;
  }
  e2e.peak_rss_kib = PeakRssKiB(RUSAGE_SELF);
  *ledger = e2e.ledger;

  const double ops_s = e2e.ops_s.Figure();
  // Modeled: each op also waits for its share of the simulated device
  // time, which the node clocks give per op and wall time does not touch.
  const double device_s_per_op = Ratio(e2e.device_s, e2e.ops);
  const double modeled_ops_s =
      ops_s > 0 ? 1.0 / (1.0 / ops_s + device_s_per_op) : 0;
  const Reported r50 = e2e.read_p50.Figure();
  const Reported r99 = e2e.read_p99.Figure();
  const Reported w50 = e2e.write_p50.Figure();
  const Reported w99 = e2e.write_p99.Figure();
  // The metrics a change is judged by: their medians hold still across
  // the host's load. Throughput and tails follow that load (see README.md,
  // "Steadiness"), so they are reported beside the metrics, unbounded.
  metrics->Set("setup_s", e2e.setup_s.Percentile(50), "s");
  metrics->Set("read_p50_us", r50.value, "us");
  metrics->Set("write_p50_us", w50.value, "us");
  metrics->Set("write_amp", Ratio(e2e.device_bytes_written, e2e.user_bytes),
               "ratio");
  metrics->Set("space_amp", Ratio(e2e.disk_bytes, e2e.live_bytes), "ratio");
  metrics->Set("peak_rss_mb", e2e.peak_rss_kib / 1024.0, "MiB");
  MetricSet unbounded;
  unbounded.Set("ops_s", ops_s, "ops/s");
  unbounded.Set("modeled_ops_s", modeled_ops_s, "ops/s");
  unbounded.Set("read_p99_us", r99.value, "us");
  unbounded.Set("write_p99_us", w99.value, "us");
  unbounded.Set("bulk_pairs_s", e2e.bulk_pairs_s.Percentile(50), "pairs/s");

  context->Add("unbounded", unbounded.Json());
  context->Add("stacks", stacks);
  context->Add("window_samples", static_cast<double>(kWindow));
  context->Add("rate_window_ops", static_cast<double>(kRateWindow));
  context->AddTiming("read_p50_us", r50);
  context->AddTiming("read_p99_us", r99);
  context->AddTiming("write_p50_us", w50);
  context->AddTiming("write_p99_us", w99);
  context->Add("measured_ops", static_cast<double>(e2e.ops));
  context->Add("measured_wall_s", e2e.wall_s);
  context->Add("device_s", e2e.device_s);
  context->Add("bulk_pairs", static_cast<double>(e2e.bulk_pairs));
  bool supported = r50.ok() && r99.ok() && w50.ok() && w99.ok();
  if (!supported) {
    std::fprintf(stderr, "perfbench: too few latency samples for a "
                         "percentile (see context samples.*)\n");
  }
  return supported && metrics->AllFinite() && unbounded.AllFinite();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !SpecFor(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "serve_zipf|write_heavy --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR] [--commit ID]\n");
    return 2;
  }
  const KeepAwake awake;
  MetricSet metrics;
  Context context;
  AddRunContext(args, spec, &context);
  Ledger ledger;
  bool ok = false;
  if (args.trace) {
    LayerMetrics layer;
    std::string layer_context;
    ok = RunTraced(args.workload, args.seed, args.seconds, args.trace_dir,
                   &layer, &ledger, &layer_context);
    for (const auto& [name, value] : layer) {
      metrics.Set(name, value.first, value.second);
    }
    context.Add("traced", layer_context);
  } else {
    ok = RunE2E(args, spec, &metrics, &context, &ledger);
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: run failed; no result\n");
    return 2;
  }
  context.AddLedger(ledger);
  std::printf("{\"context\": %s}\n", context.Json().c_str());
  const bool correct = ledger.wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              (unsigned long long)ledger.attempted,
              (unsigned long long)(ledger.failed + ledger.wrong),
              metrics.Json().c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu wrong answers\n",
                 (unsigned long long)ledger.wrong);
  }
  return correct ? 0 : 1;
}
