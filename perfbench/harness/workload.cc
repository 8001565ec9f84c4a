#include "harness/workload.h"

#include <algorithm>

namespace directload::perfbench {

bool SpecFor(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "serve_zipf") {
    // 16 Ki keys x 1 KiB: each node holds its group's ~8 MiB against a
    // 2 MiB cache, so hits, admission and device reads all happen.
    s.read_pct = 95;
    s.clients = 1;
  } else if (name == "write_heavy") {
    s.keys = 4096;             // Base version, read back by nobody.
    s.write_keys = 1u << 20;   // Far more keys than clients: no hot key.
    // Every acknowledged write stays in memory-backed simulated SSDs for
    // the rest of its stack's life; 64 B values keep a run's footprint in
    // the hundreds of MiB.
    s.value_bytes = 64;
    s.read_pct = 0;
    s.theta = 0;
    // Two PUTs in flight, so the server drains write runs, without
    // keeping every core busy: at depth 8 the stack saturates the 4 vCPUs
    // and its latencies follow the CPU the host leaves it.
    s.clients = 1;
    s.pipeline = 2;
    s.readback_samples = 4000;
    s.stack_ops = 80000;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, int thread)
    : spec_(spec),
      thread_(thread),
      rng_(Mix(seed, 2 * thread + 1)),
      zipf_(spec.keys, spec.theta > 0 ? spec.theta : 0.99,
            Mix(seed, 2 * thread + 2)) {}

Op OpStream::Next() {
  Op op;
  op.id = OpId(thread_, seq_++);
  op.write = static_cast<int>(rng_.Uniform(100)) >= spec_.read_pct;
  if (spec_.theta > 0) {
    op.key = static_cast<uint32_t>(zipf_.Next());
  } else {
    const uint64_t space = op.write && spec_.write_keys > 0
                               ? spec_.write_keys
                               : static_cast<uint64_t>(spec_.keys);
    op.key = static_cast<uint32_t>(rng_.Uniform(space));
  }
  return op;
}

}  // namespace directload::perfbench
