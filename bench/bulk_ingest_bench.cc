// Bulk ingest vs the write path, at two levels.
//
// Engine level: lands the same pair stream into a fresh QinDb three ways —
// per-record WriteBatch Puts, amortized WriteBatches,
// and the IngestBegin/IngestRun/IngestCommit fast path — and reports the
// CPU-bound ratios.
//
// Wire level (the gated comparison): hosts an in-process serving stack and
// lands the pairs into it twice — per-record kWriteBatch frames over a
// pipelined connection (what loading a delivery through the normal write
// path costs), then a BulkLoader session streaming multi-thousand-pair
// slices. `--min-speedup` (default 3.0) gates the exit code on
// bulk-over-per-record at the wire level, where the bulk protocol's round
// trips-per-pair advantage is the point.
//
//   build/bench/bulk_ingest_bench --pairs 20000 --json=BENCH_8.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/report.h"
#include "bifrost/wire/bulk_loader.h"
#include "common/sim_clock.h"
#include "qindb/qindb.h"
#include "qindb/write_batch.h"
#include "rpc/client.h"
#include "server/kv_server.h"
#include "ssd/env.h"

using namespace directload;

namespace {

struct BenchConfig {
  int pairs = 20000;
  int value_bytes = 256;
  int shards = 4;
  int run_pairs = 512;    // IngestOps per IngestRun call.
  int batch_pairs = 128;  // Puts per WriteBatch in the batched arm.
  int wire_pipeline = 8;  // Per-record frames in flight at the wire level.
  int wire_reps = 3;      // Wire-level repetitions; the gate uses medians.
  double min_speedup = 3.0;
  std::string json_path;
};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string PairKey(int i) { return "bulk:k" + std::to_string(i); }

/// A fresh engine on its own simulated SSD, one per arm, so no arm inherits
/// another's segments or checkpoint state.
struct Engine {
  SimClock clock;
  std::unique_ptr<ssd::SsdEnv> env;
  std::unique_ptr<qindb::QinDb> db;

  explicit Engine(int shards) {
    env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock, ssd::Geometry(),
                         ssd::LatencyModel(), &clock);
    qindb::QinDbOptions options;
    options.num_shards = static_cast<uint32_t>(shards);
    options.aof.segment_bytes = 1 << 20;
    db = qindb::QinDb::Open(env.get(), options).value();
  }
};

// ---------------------------------------------------------------------------
// Wire-level arms: the same pairs into a live in-process server.
// ---------------------------------------------------------------------------

/// Per-record WriteBatch Puts over the wire: one kWriteBatch frame per
/// pair, `pipeline` frames in flight. Returns seconds, or < 0 on failure.
double WirePerRecordSeconds(const std::string& host, uint16_t port,
                            const std::vector<std::string>& keys,
                            const std::string& value, int pipeline,
                            uint64_t version) {
  rpc::RpcClient client(host, port);
  if (!client.Connect().ok()) return -1;
  const Clock::time_point start = Clock::now();
  size_t sent = 0, acked = 0, in_flight = 0;
  while (acked < keys.size()) {
    while (sent < keys.size() && in_flight < static_cast<size_t>(pipeline)) {
      std::vector<rpc::BatchOp> ops(1);
      ops[0].version = version;
      ops[0].key = keys[sent];
      ops[0].value = value;
      rpc::Frame request;
      request.op = rpc::Opcode::kWriteBatch;
      request.request_id = client.NextRequestId();
      rpc::EncodeBatchOps(ops, &request.value);
      if (!client.Send(request).ok()) return -1;
      ++sent;
      ++in_flight;
    }
    Result<rpc::Frame> response = client.Receive();
    if (!response.ok() || response->status != StatusCode::kOk) return -1;
    ++acked;
    --in_flight;
  }
  return SecondsSince(start);
}

/// BulkLoader streaming the same pairs as one committed version. Returns
/// seconds, or < 0 on failure.
double WireBulkSeconds(const std::string& host, uint16_t port,
                       const std::vector<std::string>& keys,
                       const std::string& value, uint64_t version,
                       bifrost::wire::BulkLoadReport* report) {
  rpc::RpcClient client(host, port);
  if (!client.Connect().ok()) return -1;
  std::vector<bifrost::ShippedPair> pairs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    pairs[i].key = keys[i];
    pairs[i].value = value;
  }
  bifrost::wire::BulkLoader loader(&client, bifrost::wire::BulkLoadOptions());
  const Clock::time_point start = Clock::now();
  Status s = loader.Load(version, /*summary=*/{}, pairs, /*deletes=*/{},
                         report);
  if (!s.ok()) {
    std::fprintf(stderr, "wire bulk load failed: %s\n", s.ToString().c_str());
    return -1;
  }
  return SecondsSince(start);
}

/// Reads back a sample so no arm can "win" by not actually landing data.
bool VerifySample(qindb::QinDb* db, const BenchConfig& config,
                  const std::string& value) {
  const int step = std::max(1, config.pairs / 64);
  for (int i = 0; i < config.pairs; i += step) {
    Result<std::string> got = db->Get(PairKey(i), 1);
    if (!got.ok() || got.value() != value) {
      std::fprintf(stderr, "verify failed at key %d: %s\n", i,
                   got.ok() ? "wrong value" : got.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  config.json_path = bench::ExtractJsonFlag(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return true;
    };
    bool ok = true;
    if (arg == "--pairs") {
      ok = next_int(&config.pairs);
    } else if (arg == "--value-bytes") {
      ok = next_int(&config.value_bytes);
    } else if (arg == "--shards") {
      ok = next_int(&config.shards);
    } else if (arg == "--run-pairs") {
      ok = next_int(&config.run_pairs);
    } else if (arg == "--batch-pairs") {
      ok = next_int(&config.batch_pairs);
    } else if (arg == "--wire-pipeline") {
      ok = next_int(&config.wire_pipeline);
    } else if (arg == "--wire-reps") {
      ok = next_int(&config.wire_reps);
    } else if (arg == "--min-speedup") {
      ok = i + 1 < argc;
      if (ok) config.min_speedup = std::atof(argv[++i]);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: bulk_ingest_bench [--pairs N] [--value-bytes B]\n"
                   "         [--shards S] [--run-pairs R] [--batch-pairs W]\n"
                   "         [--wire-pipeline D] [--min-speedup X] "
                   "[--json=PATH]\n");
      return 1;
    }
  }
  if (config.pairs <= 0 || config.run_pairs <= 0 || config.batch_pairs <= 0 ||
      config.shards <= 0 || config.wire_pipeline <= 0 ||
      config.wire_reps <= 0) {
    std::fprintf(stderr, "all sizes must be positive\n");
    return 1;
  }

  const std::string value(config.value_bytes, 'v');
  std::vector<std::string> keys;
  keys.reserve(config.pairs);
  for (int i = 0; i < config.pairs; ++i) keys.push_back(PairKey(i));

  // Arm 1: per-record WriteBatch Puts — one-op batches, so every record
  // pays batch setup, planning, the shard write lock, and memtable
  // indexing on its own. This is what landing a bulk delivery through the
  // normal write path record-by-record costs.
  double put_seconds;
  {
    Engine engine(config.shards);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < config.pairs; ++i) {
      qindb::WriteBatch batch;
      batch.Put(keys[i], 1, value);
      Status s = engine.db->Write(batch);
      if (!s.ok()) {
        std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    put_seconds = SecondsSince(start);
    if (!VerifySample(engine.db.get(), config, value)) return 1;
  }

  // Arm 2: WriteBatch Puts — the round trip and commit are amortized over
  // the batch, but each record still pays planning and memtable work.
  double batch_seconds;
  {
    Engine engine(config.shards);
    const Clock::time_point start = Clock::now();
    for (int base = 0; base < config.pairs; base += config.batch_pairs) {
      const int n = std::min(config.batch_pairs, config.pairs - base);
      qindb::WriteBatch batch;
      for (int i = 0; i < n; ++i) batch.Put(keys[base + i], 1, value);
      Status s = engine.db->Write(batch);
      if (!s.ok()) {
        std::fprintf(stderr, "write batch failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
    }
    batch_seconds = SecondsSince(start);
    if (!VerifySample(engine.db.get(), config, value)) return 1;
  }

  // Arm 3: the bulk-ingest fast path — vectored appends land the pairs
  // durably (the streaming phase a delivery is gated on), indexing deferred
  // to one commit at the end.
  double run_seconds;
  double commit_seconds;
  {
    Engine engine(config.shards);
    const Clock::time_point start = Clock::now();
    Status s = engine.db->IngestBegin(1);
    for (int base = 0; s.ok() && base < config.pairs;
         base += config.run_pairs) {
      const int n = std::min(config.run_pairs, config.pairs - base);
      std::vector<qindb::IngestOp> ops(n);
      for (int i = 0; i < n; ++i) {
        ops[i].key = keys[base + i];
        ops[i].version = 1;
        ops[i].value = value;
      }
      s = engine.db->IngestRun(1, ops.data(), ops.size());
    }
    run_seconds = SecondsSince(start);
    const Clock::time_point commit_start = Clock::now();
    if (s.ok()) s = engine.db->IngestCommit(1);
    if (!s.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
      return 1;
    }
    commit_seconds = SecondsSince(commit_start);
    if (!VerifySample(engine.db.get(), config, value)) return 1;
  }
  const double ingest_seconds = run_seconds + commit_seconds;

  // Wire level: an in-process serving stack (one node so both arms hit one
  // engine, same as the per-record path above). Each arm repeats and the
  // gate uses medians — socket scheduling noise on a shared runner swings
  // single samples by tens of percent.
  std::vector<double> wire_put_samples;
  std::vector<double> wire_bulk_samples;
  bifrost::wire::BulkLoadReport wire_report;
  {
    mint::MintOptions mint_options;
    mint_options.num_groups = 1;
    mint_options.nodes_per_group = 1;
    mint_options.replicas = 1;
    mint_options.engine.num_shards = static_cast<uint32_t>(config.shards);
    mint_options.engine.aof.segment_bytes = 8 << 20;
    mint::MintCluster cluster(mint_options);
    server::KvServer kv_server(&cluster, server::KvServerOptions());
    if (!cluster.Start().ok() || !kv_server.Start().ok()) {
      std::fprintf(stderr, "in-process server failed to start\n");
      return 1;
    }
    for (int rep = 0; rep < config.wire_reps; ++rep) {
      // Fresh versions per repetition so every landing is a real write.
      const double put_s = WirePerRecordSeconds(
          "127.0.0.1", kv_server.port(), keys, value, config.wire_pipeline,
          /*version=*/10 + rep);
      const double bulk_s =
          WireBulkSeconds("127.0.0.1", kv_server.port(), keys, value,
                          /*version=*/100 + rep, &wire_report);
      if (put_s < 0 || bulk_s < 0) {
        std::fprintf(stderr, "wire-level arm failed\n");
        return 1;
      }
      wire_put_samples.push_back(put_s);
      wire_bulk_samples.push_back(bulk_s);
    }
    kv_server.Shutdown();
  }
  std::sort(wire_put_samples.begin(), wire_put_samples.end());
  std::sort(wire_bulk_samples.begin(), wire_bulk_samples.end());
  const double wire_put_seconds = wire_put_samples[wire_put_samples.size() / 2];
  const double wire_bulk_seconds =
      wire_bulk_samples[wire_bulk_samples.size() / 2];

  const double put_rate = config.pairs / put_seconds;
  const double batch_rate = config.pairs / batch_seconds;
  const double run_rate = config.pairs / run_seconds;
  const double ingest_rate = config.pairs / ingest_seconds;
  const double speedup_vs_put = run_rate / put_rate;
  const double e2e_speedup_vs_put = ingest_rate / put_rate;
  const double wire_put_rate = config.pairs / wire_put_seconds;
  const double wire_bulk_rate = config.pairs / wire_bulk_seconds;
  // The gated ratio: streaming the pairs through the bulk protocol into a
  // live server vs landing the same pairs as per-record WriteBatch frames.
  const double wire_speedup = wire_bulk_rate / wire_put_rate;

  std::printf("bulk_ingest_bench: %d pairs x %dB values, %d shards\n",
              config.pairs, config.value_bytes, config.shards);
  std::printf("engine level (in-process QinDb):\n");
  std::printf("  per-record WriteBatch Put: %9.0f pairs/s (%.3fs)\n",
              put_rate, put_seconds);
  std::printf("  WriteBatch(%3d)          : %9.0f pairs/s (%.3fs)\n",
              config.batch_pairs, batch_rate, batch_seconds);
  std::printf("  IngestRun landing        : %9.0f pairs/s (%.3fs)\n",
              run_rate, run_seconds);
  std::printf("  ingest incl. commit      : %9.0f pairs/s (%.3fs run + "
              "%.3fs commit)\n",
              ingest_rate, run_seconds, commit_seconds);
  std::printf("  speedup: IngestRun %.2fx vs per-record; end-to-end %.2fx\n",
              speedup_vs_put, e2e_speedup_vs_put);
  std::printf("wire level (live server over sockets):\n");
  std::printf("  per-record frames (x%d in flight): %9.0f pairs/s (%.3fs)\n",
              config.wire_pipeline, wire_put_rate, wire_put_seconds);
  std::printf("  bulk session (%llu slices)       : %9.0f pairs/s (%.3fs)\n",
              (unsigned long long)wire_report.slices_total, wire_bulk_rate,
              wire_bulk_seconds);
  std::printf("  speedup: %.2fx vs per-record (gate >= %.2fx)\n",
              wire_speedup, config.min_speedup);

  bench::JsonReport report;
  report.AddString("bench", "bulk_ingest_bench");
  report.Add("pairs", config.pairs);
  report.Add("value_bytes", config.value_bytes);
  report.Add("shards", config.shards);
  report.Add("run_pairs", config.run_pairs);
  report.Add("batch_pairs", config.batch_pairs);
  report.Add("per_record_writebatch_pairs_per_sec", put_rate);
  report.Add("writebatch_pairs_per_sec", batch_rate);
  report.Add("ingest_run_pairs_per_sec", run_rate);
  report.Add("ingest_commit_seconds", commit_seconds);
  report.Add("ingest_e2e_pairs_per_sec", ingest_rate);
  report.Add("speedup_ingest_run_over_per_record", speedup_vs_put);
  report.Add("speedup_ingest_e2e_over_per_record", e2e_speedup_vs_put);
  report.Add("wire_pipeline", config.wire_pipeline);
  report.Add("wire_per_record_pairs_per_sec", wire_put_rate);
  report.Add("wire_bulk_pairs_per_sec", wire_bulk_rate);
  report.Add("wire_bulk_slices", wire_report.slices_total);
  report.Add("wire_bulk_bytes_shipped", wire_report.bytes_shipped);
  report.Add("speedup_wire_bulk_over_per_record", wire_speedup);
  report.Add("min_speedup_gate", config.min_speedup);
  report.WriteTo(config.json_path);

  if (wire_speedup < config.min_speedup) {
    std::fprintf(stderr, "speedup gate FAILED: %.2fx < %.2fx\n",
                 wire_speedup, config.min_speedup);
    return 2;
  }
  return 0;
}
