#ifndef DIRECTLOAD_PERFBENCH_HARNESS_SERVED_H_
#define DIRECTLOAD_PERFBENCH_HARNESS_SERVED_H_

// The stacks a workload runs against, how they are preloaded, and the
// counter snapshots taken from their public accessors.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bifrost/dedup.h"
#include "bifrost/wire/bulk_loader.h"
#include "common/sim_clock.h"
#include "harness/stats.h"
#include "harness/tracing_env.h"
#include "harness/workload.h"
#include "mint/cluster.h"
#include "qindb/qindb.h"
#include "server/kv_server.h"

namespace directload::perfbench {

/// Mint configured the way the paper deploys it: MintOptions' defaults
/// (3 replicas per pair, parallel replica reads), with a block cache
/// smaller than each node's data.
mint::MintOptions MintOptionsFor(const WorkloadSpec& spec, uint64_t seed);

/// An in-process MintCluster, optionally behind a KvServer on a loopback
/// port (the wire entry point).
struct ServedStack {
  std::unique_ptr<mint::MintCluster> cluster;
  std::unique_ptr<server::KvServer> server;
  uint16_t port = 0;

  ServedStack() = default;
  ~ServedStack();
  ServedStack(const ServedStack&) = delete;
  ServedStack& operator=(const ServedStack&) = delete;
};
Status StartStack(const WorkloadSpec& spec, uint64_t seed, bool with_server,
                  ServedStack* stack);

/// Starts, preloads and discards one stack, so the heap this process
/// reuses for every measured stack is already faulted in: without it the
/// first stack of a run pays page faults the later ones do not.
Status PrimeProcess(const WorkloadSpec& spec, uint64_t seed);

/// One node's engine outside any cluster, over a span-recording env: the
/// QinDb entry point of a traced run. Its cache is the node budget times
/// the group count, so data per cache byte matches a cluster node, which
/// holds only its group's share of the keys.
struct EngineStack {
  SimClock clock;
  std::unique_ptr<TracingEnv> env;
  std::unique_ptr<qindb::QinDb> db;
};
Status StartEngine(const WorkloadSpec& spec, uint64_t seed,
                   EngineStack* engine);

/// One version's pairs, split 40/60 into the summary and inverted streams
/// by a hash of the key.
struct VersionPairs {
  std::vector<bifrost::ShippedPair> summary;
  std::vector<bifrost::ShippedPair> inverted;
  uint64_t pairs() const { return summary.size() + inverted.size(); }
};
bool InSummary(uint32_t key);
/// Version 1: every key with its own value.
VersionPairs PreloadPairs(const WorkloadSpec& spec);

/// Ships a version through Bifrost's wire loader into a KvServer.
Status LoadOverWire(uint16_t port, uint64_t version, const VersionPairs& v,
                    bifrost::wire::BulkLoadReport* report);
/// Times Bifrost's slice encoding on a version's own pairs, slice by
/// slice, the way the loader packs them.
void TimeSliceEncode(uint64_t version, const VersionPairs& v,
                     Samples* encode_slice_us);

/// The same version through MintCluster's bulk API, and through one
/// engine's ingest API. Spans "mint.bulk_ingest"/"mint.bulk_commit" and
/// "qindb.ingest_run"/"qindb.ingest_commit" are recorded when tracing.
Status LoadIntoMint(mint::MintCluster* cluster, uint64_t version,
                    const VersionPairs& v);
Status LoadIntoEngine(qindb::QinDb* db, uint64_t version,
                      const VersionPairs& v);

/// Counters summed over a cluster's nodes, read through the public
/// accessors.
struct NodeTotals {
  uint64_t device_us = 0;
  uint64_t host_pages_read = 0;
  uint64_t host_pages_written = 0;
  uint64_t device_pages_written = 0;
  uint64_t blocks_erased = 0;
  uint64_t gets = 0;
  uint64_t user_bytes = 0;
  uint64_t disk_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_admission_rejects = 0;
  uint64_t cache_evicted_bytes = 0;
  uint32_t page_size = 4096;

  NodeTotals Minus(const NodeTotals& earlier) const;
};
NodeTotals Snapshot(mint::MintCluster* cluster);

}  // namespace directload::perfbench

#endif  // DIRECTLOAD_PERFBENCH_HARNESS_SERVED_H_
