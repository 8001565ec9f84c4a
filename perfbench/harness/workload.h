#ifndef DIRECTLOAD_PERFBENCH_HARNESS_WORKLOAD_H_
#define DIRECTLOAD_PERFBENCH_HARNESS_WORKLOAD_H_

// Workload shapes and the seeded inputs they generate. Everything a run
// sends is derived from (workload, seed, client thread), so every entry
// point a traced run replays through sees the same ops.

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"

namespace directload::perfbench {

struct WorkloadSpec {
  std::string name;
  int keys = 16384;           // Preloaded keys (version 1).
  uint64_t write_keys = 0;    // Key space PUTs draw from; 0 = `keys`.
  int value_bytes = 1024;
  int read_pct = 95;          // Op mix; the rest are PUTs.
  double theta = 0.99;        // Zipfian skew; 0 = uniform.
  int clients = 4;            // Client threads (one connection each).
  int pipeline = 1;           // Requests in flight per client.
  int groups = 2;             // Mint groups (MintOptions default).
  int replicas = 3;           // Replicas per pair (MintOptions default).
  uint64_t cache_bytes_per_node = 2u << 20;
  // Closed loops: measured ops per stack of an end-to-end run.
  uint64_t stack_ops = 40000;
  int readback_samples = 0;    // write_heavy: acked writes read back after.
};

/// The known workloads; false for an unknown name.
bool SpecFor(const std::string& name, WorkloadSpec* spec);

inline uint64_t Mix(uint64_t a, uint64_t b) {
  return Hash64(reinterpret_cast<const char*>(&b), sizeof(b), a);
}

inline std::string KeyOf(uint64_t i) { return "pb:k" + std::to_string(i); }

/// Op ids and PUT versions share one encoding: client thread t's op number
/// `seq` is ((t + 1) << 40) | seq. Preloaded and bulk versions are small
/// integers, so the two never collide.
inline uint64_t OpId(int thread, uint64_t seq) {
  return (static_cast<uint64_t>(thread + 1) << 40) | seq;
}
inline int OpThread(uint64_t id) { return static_cast<int>(id >> 40) - 1; }
inline uint64_t OpSeq(uint64_t id) { return id & ((1ull << 40) - 1); }

struct Op {
  bool write = false;
  uint32_t key = 0;
  uint64_t id = 0;  // Also the PUT's version.
};

/// One client thread's op stream.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, int thread);
  Op Next();

 private:
  const WorkloadSpec& spec_;
  int thread_;
  uint64_t seq_ = 0;
  Random rng_;
  ZipfianGenerator zipf_;
};

}  // namespace directload::perfbench

#endif  // DIRECTLOAD_PERFBENCH_HARNESS_WORKLOAD_H_
