#include "harness/served.h"

#include <algorithm>
#include <utility>

#include "bifrost/wire/slice_codec.h"
#include "common/thread_annotations.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "rpc/client.h"

namespace directload::perfbench {

namespace {

constexpr size_t kIngestRunPairs = 512;

std::vector<qindb::IngestOp> IngestOpsOf(uint64_t version,
                                         const VersionPairs& v) {
  std::vector<qindb::IngestOp> ops;
  ops.reserve(v.pairs());
  for (const auto* stream : {&v.summary, &v.inverted}) {
    for (const bifrost::ShippedPair& p : *stream) {
      qindb::IngestOp op;
      op.key = Slice(p.key);
      op.version = version;
      op.value = Slice(p.value);
      op.dedup = p.dedup;
      ops.push_back(op);
    }
  }
  return ops;
}

void AddEngine(qindb::QinDb* db, ssd::SsdEnv* env, SimClock* clock,
               NodeTotals* t) {
  t->device_us += clock->NowMicros();
  const ssd::SsdStats& s = env->stats();
  t->host_pages_read += s.host_pages_read;
  t->host_pages_written += s.host_pages_written;
  t->device_pages_written += s.device_pages_written();
  t->blocks_erased += s.blocks_erased;
  t->page_size = env->geometry().page_size;
  t->disk_bytes += env->TotalFileBytes();
  if (db == nullptr) return;
  const qindb::QinDbStats& q = db->stats();
  t->gets += q.gets.load();
  t->user_bytes += q.user_bytes_ingested.load();
  const qindb::EngineCacheTotals c = db->CacheTotals();
  t->cache_hits += c.cache_hits;
  t->cache_misses += c.cache_misses;
  t->cache_admission_rejects += c.cache_admission_rejects;
  t->cache_evicted_bytes += c.cache_evicted_bytes;
}

}  // namespace

mint::MintOptions MintOptionsFor(const WorkloadSpec& spec, uint64_t seed) {
  mint::MintOptions options;
  options.num_groups = spec.groups;
  options.replicas = spec.replicas;
  options.nodes_per_group = std::max(options.nodes_per_group, spec.replicas);
  options.engine.cache_bytes = spec.cache_bytes_per_node;
  options.seed = seed;
  return options;
}

ServedStack::~ServedStack() {
  if (server != nullptr) server->Shutdown();
}

Status StartStack(const WorkloadSpec& spec, uint64_t seed, bool with_server,
                  ServedStack* stack) {
  stack->cluster =
      std::make_unique<mint::MintCluster>(MintOptionsFor(spec, seed));
  if (Status s = stack->cluster->Start(); !s.ok()) return s;
  if (!with_server) return Status::OK();
  stack->server = std::make_unique<server::KvServer>(
      stack->cluster.get(), server::KvServerOptions());
  if (Status s = stack->server->Start(); !s.ok()) return s;
  stack->port = stack->server->port();
  return Status::OK();
}

Status PrimeProcess(const WorkloadSpec& spec, uint64_t seed) {
  ServedStack stack;
  if (Status s = StartStack(spec, seed, /*with_server=*/true, &stack);
      !s.ok()) {
    return s;
  }
  return LoadOverWire(stack.port, 1, PreloadPairs(spec), nullptr);
}

Status StartEngine(const WorkloadSpec& spec, uint64_t seed,
                   EngineStack* engine) {
  const mint::MintOptions node = MintOptionsFor(spec, seed);
  engine->env = std::make_unique<TracingEnv>(
      ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock, node.node_geometry,
                     node.node_latency, &engine->clock));
  qindb::QinDbOptions options = node.engine;
  options.cache_bytes = spec.cache_bytes_per_node * spec.groups;
  Result<std::unique_ptr<qindb::QinDb>> db =
      qindb::QinDb::Open(engine->env.get(), options);
  if (!db.ok()) return db.status();
  engine->db = std::move(db).value();
  return Status::OK();
}

bool InSummary(uint32_t key) { return Mix(0x5u, key) % 10 < 4; }

VersionPairs PreloadPairs(const WorkloadSpec& spec) {
  VersionPairs v;
  for (int i = 0; i < spec.keys; ++i) {
    bifrost::ShippedPair pair;
    pair.key = KeyOf(i);
    pair.value = ValueFor(pair.key, 1, spec.value_bytes);
    (InSummary(i) ? v.summary : v.inverted).push_back(std::move(pair));
  }
  return v;
}

Status LoadOverWire(uint16_t port, uint64_t version, const VersionPairs& v,
                    bifrost::wire::BulkLoadReport* report) {
  rpc::RpcClient client("127.0.0.1", port);
  if (Status s = client.Connect(); !s.ok()) return s;
  bifrost::wire::BulkLoader loader(&client, bifrost::wire::BulkLoadOptions());
  return loader.Load(version, v.summary, v.inverted, /*deletes=*/{}, report);
}

void TimeSliceEncode(uint64_t version, const VersionPairs& v,
                     Samples* encode_slice_us) {
  const uint64_t slice_bytes = bifrost::wire::BulkLoadOptions().slice_bytes;
  uint64_t slice_id = 0;
  for (const auto* stream : {&v.summary, &v.inverted}) {
    size_t i = 0;
    while (i < stream->size()) {
      const int64_t t0 = NowNs();
      std::string payload;
      uint32_t count = 0;
      while (i < stream->size() && payload.size() < slice_bytes) {
        const bifrost::ShippedPair& p = (*stream)[i++];
        bifrost::wire::AppendWirePair(&payload, p.key, version, p.value,
                                      p.dedup, /*tombstone=*/false);
        ++count;
      }
      bifrost::wire::SliceHeader header;
      header.slice_id = slice_id++;
      header.version = version;
      header.type = stream == &v.summary ? webindex::IndexType::kSummary
                                         : webindex::IndexType::kInverted;
      header.pair_count = count;
      std::string frame;
      bifrost::wire::EncodeSlicePacket(header, payload, &frame);
      encode_slice_us->Add((NowNs() - t0) * 1e-3);
    }
  }
}

Status LoadIntoMint(mint::MintCluster* cluster, uint64_t version,
                    const VersionPairs& v) {
  const std::vector<qindb::IngestOp> ops = IngestOpsOf(version, v);
  if (Status s = cluster->BulkBegin(version); !s.ok()) return s;
  for (size_t i = 0; i < ops.size(); i += kIngestRunPairs) {
    SpanScope span("mint.bulk_ingest");
    const size_t n = std::min(kIngestRunPairs, ops.size() - i);
    if (Status s = cluster->BulkIngest(version, ops.data() + i, n); !s.ok()) {
      return s;
    }
  }
  SpanScope span("mint.bulk_commit");
  return cluster->BulkCommit(version);
}

Status LoadIntoEngine(qindb::QinDb* db, uint64_t version,
                      const VersionPairs& v) {
  const std::vector<qindb::IngestOp> ops = IngestOpsOf(version, v);
  if (Status s = db->IngestBegin(version); !s.ok()) return s;
  for (size_t i = 0; i < ops.size(); i += kIngestRunPairs) {
    SpanScope span("qindb.ingest_run");
    const size_t n = std::min(kIngestRunPairs, ops.size() - i);
    if (Status s = db->IngestRun(version, ops.data() + i, n); !s.ok()) {
      return s;
    }
  }
  SpanScope span("qindb.ingest_commit");
  return db->IngestCommit(version);
}

NodeTotals NodeTotals::Minus(const NodeTotals& e) const {
  NodeTotals d = *this;
  d.device_us -= e.device_us;
  d.host_pages_read -= e.host_pages_read;
  d.host_pages_written -= e.host_pages_written;
  d.device_pages_written -= e.device_pages_written;
  d.blocks_erased -= e.blocks_erased;
  d.gets -= e.gets;
  d.user_bytes -= e.user_bytes;
  d.cache_hits -= e.cache_hits;
  d.cache_misses -= e.cache_misses;
  d.cache_admission_rejects -= e.cache_admission_rejects;
  d.cache_evicted_bytes -= e.cache_evicted_bytes;
  return d;  // disk_bytes stays a level, not a delta.
}

NodeTotals Snapshot(mint::MintCluster* cluster) {
  NodeTotals t;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    mint::StorageNode* node = cluster->node(n);
    ReaderLock guard(node->lifecycle_mu());
    AddEngine(node->db(), node->env(), node->clock(), &t);
  }
  return t;
}

}  // namespace directload::perfbench
