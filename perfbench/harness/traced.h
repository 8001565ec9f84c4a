#ifndef DIRECTLOAD_PERFBENCH_HARNESS_TRACED_H_
#define DIRECTLOAD_PERFBENCH_HARNESS_TRACED_H_

// The traced run: per-layer metrics from the workload's op stream replayed
// through each entry point (see README.md, "Traced run").

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/stats.h"

namespace directload::perfbench {

/// (name, (value, unit)) of every per-layer metric, in output order.
using LayerMetrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Runs `workload`'s traced passes for `seconds` in all. Spans go to
/// `trace_dir` (none when empty). Returns false when a pass could not be
/// set up; wrong answers are counted in `ledger` instead.
bool RunTraced(const std::string& workload, uint64_t seed, double seconds,
               const std::string& trace_dir, LayerMetrics* metrics,
               Ledger* ledger, std::string* context_json);

}  // namespace directload::perfbench

#endif  // DIRECTLOAD_PERFBENCH_HARNESS_TRACED_H_
