#ifndef DIRECTLOAD_PERFBENCH_HARNESS_PASSES_H_
#define DIRECTLOAD_PERFBENCH_HARNESS_PASSES_H_

// One pass = the workload's client threads driving one entry point for a
// warm-up and a measured phase. A timed pass runs each phase for a fixed
// time and records how many ops each client issued; a replay pass issues
// exactly those counts, so every entry point sees the same ops.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "harness/served.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/workload.h"
#include "mint/cluster.h"
#include "rpc/protocol.h"

namespace directload::perfbench {

/// Warm-up before every measured phase: fills the block cache and lets
/// lazy set-up finish, as a long-running server would have.
inline constexpr double kWarmSeconds = 0.5;

enum class Entry { kWire, kMint, kEngine };

/// Traced runs time encoding each op's request frame (EncodeFrame) and
/// decoding its response frame (FrameDecoder::Next) on their own, outside
/// the call, and count both frames' bytes.
struct CodecTimes {
  Samples encode_ns;
  Samples decode_ns;
  uint64_t wire_bytes = 0;

  void Time(const rpc::Frame& request, const rpc::Frame& response);
  void Merge(const CodecTimes& other);
};

/// Where a pass sends its ops; only the member its entry names is used.
struct Target {
  Entry entry = Entry::kWire;
  uint16_t port = 0;
  mint::MintCluster* cluster = nullptr;
  qindb::QinDb* db = nullptr;
  /// Counter snapshot taken when the measured phase starts and ends, while
  /// no client op is in flight. Optional.
  std::function<NodeTotals()> snapshot;
};

struct PassPlan {
  bool by_count = false;
  double warm_s = 0;
  double measure_s = 0;
  std::vector<uint64_t> warm;   // Per client, replay passes.
  std::vector<uint64_t> total;  // Per client, replay passes.
  /// Timed passes: the measured phase also ends once the clients together
  /// have issued this many ops (0: time alone ends it).
  uint64_t max_ops = 0;
};

struct ClientOut {
  Ledger ledger;
  Samples reads_us;
  Samples writes_us;
  Samples sim_read_us;     // Mint's modeled read latency (mint entry).
  CodecTimes codec;        // Traced, measured ops.
  std::vector<Op> ops;     // Every op issued, in order.
  std::vector<std::pair<uint32_t, uint64_t>> read_versions;  // OK reads.
  std::vector<uint64_t> acked;  // Op ids of acknowledged PUTs.
  std::vector<int64_t> done_ns;  // Completion times of measured ops.
  uint64_t warm = 0;
  uint64_t total = 0;
};

struct PassOut {
  std::vector<ClientOut> clients;
  Ledger ledger;  // Merged, with the version check applied.
  Samples reads_us;
  Samples writes_us;
  std::vector<int64_t> done_ns;  // Every client's, unordered.
  double wall_s = 0;  // Measured phase.
  uint64_t measured_ops = 0;
  NodeTotals at_start;
  NodeTotals at_end;
  std::vector<Span> spans;  // Traced passes.

  std::vector<uint64_t> WarmCounts() const;
  std::vector<uint64_t> TotalCounts() const;
  bool Measured(uint64_t op_id) const;
};

/// Runs a closed-loop pass of `spec`'s op mix against `target`.
PassOut RunClosedLoop(const WorkloadSpec& spec, uint64_t seed,
                      const Target& target, const PassPlan& plan,
                      bool traced);

/// Checks the versions of a pass's OK reads: each must be the preload
/// (version 1, for a preloaded key) or a PUT some client issued for that
/// key. Moves answers that fail from ok to wrong; returns how many failed.
uint64_t CheckReadVersions(const WorkloadSpec& spec, PassOut* pass);

/// Reads back up to `limit` acknowledged PUTs of `pass` (an even stride
/// over all of them; every one when `limit` is 0) at their exact version,
/// over `readback_clients` threads, and checks each value. Read latencies
/// land in `reads_us` when given.
void ReadBackAcked(const WorkloadSpec& spec, const Target& target,
                   size_t limit, PassOut* pass, Samples* reads_us);

}  // namespace directload::perfbench

#endif  // DIRECTLOAD_PERFBENCH_HARNESS_PASSES_H_
