// The traced run: the workload's op stream replayed through each entry
// point, with spans around every call into a layer, turned into per-layer
// metrics. A layer's self time is its call minus the call one layer down
// for the same op (wire -> MintCluster -> QinDb), and QinDb's own self time
// is its span minus the SsdEnv spans under it.

#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/passes.h"
#include "harness/served.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/traced.h"
#include "harness/workload.h"

namespace directload::perfbench {

namespace {

/// A traced run's seconds are split evenly over its four passes: wire
/// untraced, wire traced, MintCluster, QinDb.
constexpr int kPasses = 4;

/// Every per-layer metric, in output order, with its unit. A workload that
/// does not exercise a layer reports 0 for it (listed in the context).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"rpc.encode_ns", "ns"},
    {"rpc.decode_ns", "ns"},
    {"rpc.wire_bytes_per_op", "bytes"},
    {"server.self_p50_us", "us"},
    {"server.self_p99_us", "us"},
    {"server.writes_batched_share", "ratio"},
    {"mint.get_p50_us", "us"},
    {"mint.get_p99_us", "us"},
    {"mint.get_self_p50_us", "us"},
    {"mint.put_p50_us", "us"},
    {"mint.put_p99_us", "us"},
    {"mint.bulk_ingest_us_per_pair", "us"},
    {"mint.sim_read_us", "us"},
    {"qindb.get_p50_us", "us"},
    {"qindb.get_p99_us", "us"},
    {"qindb.get_self_p50_us", "us"},
    {"qindb.put_p50_us", "us"},
    {"qindb.put_p99_us", "us"},
    {"qindb.ingest_us_per_pair", "us"},
    {"qindb.ingest_commit_ms", "ms"},
    {"qindb.cache_hit_ratio", "ratio"},
    {"qindb.cache_admission_rejects", "count"},
    {"qindb.cache_evicted_bytes", "bytes"},
    {"aof.appends_per_op", "count"},
    {"aof.bytes_per_append", "bytes"},
    {"ssd.append_us", "us"},
    {"ssd.read_us", "us"},
    {"ssd.sync_us", "us"},
    {"ssd.sim_device_us_per_op", "us"},
    {"ssd.pages_read_per_get", "count"},
    {"ssd.device_write_amp", "ratio"},
    {"ssd.blocks_erased", "count"},
    {"bifrost.load_s", "s"},
    {"bifrost.encode_us_per_slice", "us"},
    {"bifrost.bytes_shipped_per_pair", "bytes"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.e2e_p50_us", "us"},
    {"trace.gap_p50_us", "us"},
};

class Layers {
 public:
  Layers() {
    for (const auto& [name, unit] : kLayerMetrics) values_[name] = 0;
  }
  void Set(const std::string& name, double v) {
    if (values_.count(name) == 0) {
      std::fprintf(stderr, "perfbench: unknown layer metric %s\n",
                   name.c_str());
      return;
    }
    values_[name] = v;
    set_.push_back(name);
  }
  void Emit(LayerMetrics* out) const {
    for (const auto& [name, unit] : kLayerMetrics) {
      out->push_back({name, {values_.at(name), unit}});
    }
  }
  /// The metrics this workload left at 0 because it never set them.
  std::string UnsetJson() const {
    std::string out = "[";
    bool first = true;
    for (const auto& [name, unit] : kLayerMetrics) {
      bool was_set = false;
      for (const std::string& s : set_) was_set |= s == name;
      if (was_set) continue;
      out += std::string(first ? "" : ", ") + "\"" + name + "\"";
      first = false;
    }
    return out + "]";
  }

 private:
  std::unordered_map<std::string, double> values_;
  std::vector<std::string> set_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The value at `p`, or at the highest percentile the sample supports.
double At(const Samples& s, double p) {
  const Reported r = Report(s, p);
  return r.ok() ? r.value : 0;
}

/// Span durations (us) by op, for spans named in `names` that belong to a
/// measured op of `pass` (all ops when `pass` is null).
std::unordered_map<uint64_t, double> ByOp(
    const std::vector<Span>& spans, const std::vector<std::string>& names,
    const PassOut* pass) {
  std::unordered_map<uint64_t, double> out;
  for (const Span& s : spans) {
    bool wanted = false;
    for (const std::string& n : names) wanted |= n == s.name;
    if (!wanted || (pass != nullptr && !pass->Measured(s.op))) continue;
    out[s.op] += s.duration_ns() * 1e-3;
  }
  return out;
}

Samples Durations(const std::vector<Span>& spans, const std::string& name,
                  const PassOut* pass, double scale = 1e-3) {
  Samples out;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    if (pass != nullptr && !pass->Measured(s.op)) continue;
    out.Add(s.duration_ns() * scale);
  }
  return out;
}

double SumDurationsUs(const std::vector<Span>& spans, const std::string& name) {
  return Durations(spans, name, nullptr).Sum();
}

Samples SelfUs(const std::vector<Span>& spans, const std::string& name,
               const PassOut* pass) {
  Samples out;
  for (const auto& [op, ns] : SelfTimesOf(spans, name)) {
    if (pass == nullptr || pass->Measured(op)) out.Add(ns * 1e-3);
  }
  return out;
}

void WriteSpans(const std::string& dir, const std::string& workload,
                uint64_t seed, const char* pass,
                const std::vector<Span>& spans) {
  if (dir.empty()) return;
  const std::string path = dir + "/" + workload + "-seed" +
                           std::to_string(seed) + "-" + pass + ".csv";
  if (!WriteSpansCsv(path, spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

struct ServerCounts {
  uint64_t busy = 0;
  uint64_t batched = 0;
  uint64_t checksum = 0;
};
ServerCounts CountsOf(const server::KvServer& s) {
  const server::KvServer::Counters& c = s.counters();
  return {c.requests_rejected_busy.load(), c.writes_batched.load(),
          c.bulk_checksum_rejects.load()};
}

/// Served-path counters of the traced wire pass, common to the in-process
/// workloads.
void ServedPathLayers(const NodeTotals& d, const NodeTotals& end,
                      uint64_t ops, Layers* L) {
  L->Set("qindb.cache_hit_ratio",
         Ratio(d.cache_hits, d.cache_hits + d.cache_misses));
  L->Set("qindb.cache_admission_rejects", d.cache_admission_rejects);
  L->Set("qindb.cache_evicted_bytes", d.cache_evicted_bytes);
  L->Set("ssd.sim_device_us_per_op", Ratio(d.device_us, ops));
  L->Set("ssd.pages_read_per_get", Ratio(d.host_pages_read, d.gets));
  L->Set("ssd.device_write_amp",
         Ratio(end.device_pages_written, end.host_pages_written));
  L->Set("ssd.blocks_erased", d.blocks_erased);
}

void DeviceCallLayers(const std::vector<Span>& spans, const PassOut* pass,
                      const EnvCallCounts& before, const EnvCallCounts& after,
                      uint64_t ops, Layers* L) {
  const double appends = after.appends.load() - before.appends.load();
  L->Set("aof.appends_per_op", Ratio(appends, ops));
  L->Set("aof.bytes_per_append",
         Ratio(after.append_bytes.load() - before.append_bytes.load(),
               appends));
  for (const char* call : {"ssd.append", "ssd.read", "ssd.sync"}) {
    const Samples s = Durations(spans, call, pass);
    if (!s.empty()) L->Set(std::string(call) + "_us", At(s, 50));
  }
}

void CopyCounts(const EnvCallCounts& from, EnvCallCounts* to) {
  to->appends = from.appends.load();
  to->append_bytes = from.append_bytes.load();
}

uint64_t TotalOps(const PassOut& p) {
  uint64_t n = 0;
  for (const ClientOut& c : p.clients) n += c.total;
  return n;
}

uint64_t WriteOps(const PassOut& p) {
  uint64_t n = 0;
  for (const ClientOut& c : p.clients) {
    for (const Op& op : c.ops) n += op.write ? 1 : 0;
  }
  return n;
}

void CodecLayers(const CodecTimes& codec, uint64_t ops, Layers* L) {
  L->Set("rpc.encode_ns", At(codec.encode_ns, 50));
  L->Set("rpc.decode_ns", At(codec.decode_ns, 50));
  L->Set("rpc.wire_bytes_per_op", Ratio(codec.wire_bytes, ops));
}

CodecTimes MergedCodec(const PassOut& p) {
  CodecTimes out;
  for (const ClientOut& c : p.clients) out.Merge(c.codec);
  return out;
}

struct Traced {
  const WorkloadSpec& spec;
  uint64_t seed;
  double measure_s;
  std::string trace_dir;
  Layers layers;
  Ledger ledger;
  std::string context = "{";

  void Note(const std::string& key, double v) {
    if (context.size() > 1) context += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    context += "\"" + key + "\": " + buf;
  }
};

bool Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               s.ToString().c_str());
  return false;
}

// -- serve_zipf and write_heavy ----------------------------------------------

bool TraceServed(Traced* T) {
  const WorkloadSpec& spec = T->spec;
  Layers& L = T->layers;
  const VersionPairs preload = PreloadPairs(spec);
  PassPlan timed;
  timed.warm_s = kWarmSeconds;
  timed.measure_s = T->measure_s;

  PassOut u, w, m, q;
  {  // 1. The wire, untraced: the reference for overhead, and the op counts.
    ServedStack stack;
    if (Status s = StartStack(spec, T->seed, true, &stack); !s.ok()) {
      return Fail("stack start", s);
    }
    if (Status s = LoadOverWire(stack.port, 1, preload, nullptr); !s.ok()) {
      return Fail("preload", s);
    }
    Target target;
    target.port = stack.port;
    u = RunClosedLoop(spec, T->seed, target, timed, false);
  }
  PassPlan replay;
  replay.by_count = true;
  replay.warm = u.WarmCounts();
  replay.total = u.TotalCounts();
  ServerCounts server_before, server_after;
  bifrost::wire::BulkLoadReport bulk;
  double load_s = 0;
  {  // 2. The wire, traced; its preload is the Bifrost load measured.
    ServedStack stack;
    if (Status s = StartStack(spec, T->seed, true, &stack); !s.ok()) {
      return Fail("stack start", s);
    }
    const int64_t t0 = NowNs();
    if (Status s = LoadOverWire(stack.port, 1, preload, &bulk); !s.ok()) {
      return Fail("preload", s);
    }
    load_s = (NowNs() - t0) * 1e-9;
    mint::MintCluster* cluster = stack.cluster.get();
    Target target;
    target.port = stack.port;
    target.snapshot = [cluster] { return Snapshot(cluster); };
    server_before = CountsOf(*stack.server);
    w = RunClosedLoop(spec, T->seed, target, replay, true);
    server_after = CountsOf(*stack.server);
  }
  std::vector<Span> mint_load, qindb_load;  // Preload spans.
  {  // 3. MintCluster, called directly.
    ServedStack stack;
    if (Status s = StartStack(spec, T->seed, false, &stack); !s.ok()) {
      return Fail("cluster start", s);
    }
    Tracer::Get().set_enabled(true);
    const Status loaded = LoadIntoMint(stack.cluster.get(), 1, preload);
    Tracer::Get().set_enabled(false);
    mint_load = Tracer::Get().Drain();
    if (!loaded.ok()) return Fail("preload", loaded);
    Target target;
    target.entry = Entry::kMint;
    target.cluster = stack.cluster.get();
    m = RunClosedLoop(spec, T->seed, target, replay, true);
  }
  EnvCallCounts env_before, env_after;
  {  // 4. One QinDb over the span-recording env.
    EngineStack engine;
    if (Status s = StartEngine(spec, T->seed, &engine); !s.ok()) {
      return Fail("engine open", s);
    }
    Tracer::Get().set_enabled(true);
    const Status loaded = LoadIntoEngine(engine.db.get(), 1, preload);
    Tracer::Get().set_enabled(false);
    qindb_load = Tracer::Get().Drain();
    if (!loaded.ok()) return Fail("preload", loaded);
    Target target;
    target.entry = Entry::kEngine;
    target.db = engine.db.get();
    CopyCounts(engine.env->counts(), &env_before);
    q = RunClosedLoop(spec, T->seed, target, replay, true);
    CopyCounts(engine.env->counts(), &env_after);
  }
  for (const PassOut* p : {&u, &w, &m, &q}) T->ledger.Merge(p->ledger);
  WriteSpans(T->trace_dir, spec.name, T->seed, "wire", w.spans);
  WriteSpans(T->trace_dir, spec.name, T->seed, "mint", m.spans);
  WriteSpans(T->trace_dir, spec.name, T->seed, "qindb", q.spans);

  // Per-op layer peeling over the measured ops.
  const auto wire = ByOp(w.spans, {"rpc.call"}, &w);
  const auto mint_ops = ByOp(m.spans, {"mint.get", "mint.put"}, &m);
  const auto mint_gets = ByOp(m.spans, {"mint.get"}, &m);
  const auto qindb_ops = ByOp(q.spans, {"qindb.get", "qindb.put"}, &q);
  std::unordered_map<uint64_t, double> qindb_self;
  for (const char* name : {"qindb.get", "qindb.put"}) {
    for (const auto& [op, ns] : SelfTimesOf(q.spans, name)) {
      if (q.Measured(op)) qindb_self[op] = ns * 1e-3;
    }
  }
  Samples e2e, server_self, mint_self_all, mint_get_self, qindb_self_all,
      ssd_under_qindb;
  for (const auto& [op, us] : wire) {
    auto mi = mint_ops.find(op);
    auto qi = qindb_ops.find(op);
    auto si = qindb_self.find(op);
    if (mi == mint_ops.end() || qi == qindb_ops.end() ||
        si == qindb_self.end()) {
      continue;
    }
    e2e.Add(us);
    server_self.Add(us - mi->second);
    mint_self_all.Add(mi->second - qi->second);
    if (mint_gets.count(op)) mint_get_self.Add(mi->second - qi->second);
    qindb_self_all.Add(si->second);
    ssd_under_qindb.Add(qi->second - si->second);
  }
  const double e2e_p50 = At(e2e, 50);
  L.Set("trace.e2e_p50_us", e2e_p50);
  L.Set("trace.gap_p50_us",
        e2e_p50 - (At(server_self, 50) + At(mint_self_all, 50) +
                   At(qindb_self_all, 50) + At(ssd_under_qindb, 50)));
  L.Set("trace.overhead_ratio", Ratio(w.wall_s, u.wall_s));
  L.Set("server.self_p50_us", At(server_self, 50));
  L.Set("server.self_p99_us", At(server_self, 99));
  L.Set("server.writes_batched_share",
        Ratio(server_after.batched - server_before.batched, WriteOps(w)));
  CodecLayers(MergedCodec(w), w.measured_ops, &L);

  const Samples mint_get = Durations(m.spans, "mint.get", &m);
  const Samples mint_put = Durations(m.spans, "mint.put", &m);
  if (!mint_get.empty()) {
    L.Set("mint.get_p50_us", At(mint_get, 50));
    L.Set("mint.get_p99_us", At(mint_get, 99));
    L.Set("mint.get_self_p50_us", At(mint_get_self, 50));
    Samples sim;
    for (const ClientOut& c : m.clients) sim.Merge(c.sim_read_us);
    L.Set("mint.sim_read_us", At(sim, 50));
  }
  if (!mint_put.empty()) {
    L.Set("mint.put_p50_us", At(mint_put, 50));
    L.Set("mint.put_p99_us", At(mint_put, 99));
  }
  const Samples q_get = Durations(q.spans, "qindb.get", &q);
  const Samples q_put = Durations(q.spans, "qindb.put", &q);
  if (!q_get.empty()) {
    L.Set("qindb.get_p50_us", At(q_get, 50));
    L.Set("qindb.get_p99_us", At(q_get, 99));
    L.Set("qindb.get_self_p50_us", At(SelfUs(q.spans, "qindb.get", &q), 50));
  }
  if (!q_put.empty()) {
    L.Set("qindb.put_p50_us", At(q_put, 50));
    L.Set("qindb.put_p99_us", At(q_put, 99));
  }
  L.Set("mint.bulk_ingest_us_per_pair",
        Ratio(SumDurationsUs(mint_load, "mint.bulk_ingest"), preload.pairs()));
  L.Set("qindb.ingest_us_per_pair",
        Ratio(SumDurationsUs(qindb_load, "qindb.ingest_run"),
              preload.pairs()));
  L.Set("qindb.ingest_commit_ms",
        At(Durations(qindb_load, "qindb.ingest_commit", nullptr, 1e-6), 50));
  Samples encode_slice_us;
  TimeSliceEncode(1, preload, &encode_slice_us);
  L.Set("bifrost.load_s", load_s);
  L.Set("bifrost.encode_us_per_slice", At(encode_slice_us, 50));
  L.Set("bifrost.bytes_shipped_per_pair",
        Ratio(bulk.bytes_shipped, bulk.pairs_total));
  ServedPathLayers(w.at_end.Minus(w.at_start), w.at_end, w.measured_ops, &L);
  DeviceCallLayers(q.spans, &q, env_before, env_after, TotalOps(q), &L);

  // Failure counters: 0 on a healthy run, so they are checks, not metrics.
  T->Note("server.busy_rejects",
          static_cast<double>(server_after.busy - server_before.busy));
  T->Note("server.bulk_checksum_rejects",
          static_cast<double>(server_after.checksum));
  T->Note("mint.read_timeouts",
          static_cast<double>(m.ledger.failed_unavailable));
  T->Note("bifrost.slices_resent", static_cast<double>(bulk.slices_resent));
  T->Note("bifrost.repair_rounds", static_cast<double>(bulk.repair_rounds));
  T->Note("wall_s.wire_untraced", u.wall_s);
  T->Note("wall_s.wire_traced", w.wall_s);
  T->Note("wall_s.mint", m.wall_s);
  T->Note("wall_s.qindb", q.wall_s);
  T->Note("measured_ops", static_cast<double>(w.measured_ops));
  T->Note("peeled_ops", static_cast<double>(e2e.count()));
  T->Note("p50_us.server_self", At(server_self, 50));
  T->Note("p50_us.mint_self", At(mint_self_all, 50));
  T->Note("p50_us.qindb_self", At(qindb_self_all, 50));
  T->Note("p50_us.ssd_under_qindb", At(ssd_under_qindb, 50));
  return true;
}

}  // namespace

bool RunTraced(const std::string& workload, uint64_t seed, double seconds,
               const std::string& trace_dir, LayerMetrics* metrics,
               Ledger* ledger, std::string* context_json) {
  WorkloadSpec spec;
  if (!SpecFor(workload, &spec)) return false;
  Traced T{spec, seed, seconds / kPasses, trace_dir, Layers(), Ledger()};
  if (Status s = PrimeProcess(spec, seed); !s.ok()) {
    return Fail("priming", s);
  }
  if (!TraceServed(&T)) return false;
  T.layers.Emit(metrics);
  *ledger = T.ledger;
  if (T.context.size() > 1) T.context += ", ";
  T.context += "\"not_exercised\": " + T.layers.UnsetJson() + "}";
  *context_json = T.context;
  return true;
}

}  // namespace directload::perfbench
