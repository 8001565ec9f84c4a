#ifndef DIRECTLOAD_PERFBENCH_HARNESS_KEEP_AWAKE_H_
#define DIRECTLOAD_PERFBENCH_HARNESS_KEEP_AWAKE_H_

// Keeps every CPU of the machine out of its idle halt while a run
// measures, the way the cpuidle-haltpoll driver polls before halting on a
// KVM guest. On a shared hypervisor a halted virtual CPU waits for the host
// to schedule it again when a thread is woken on it, and that wait swings
// tenfold with other tenants' load; every op of the served stack wakes
// several threads, so its latency would follow the host's load, not the
// program's. The pollers run at SCHED_IDLE, so any runnable thread of the
// stack takes their CPU at once.

#include <atomic>
#include <thread>
#include <vector>

namespace directload::perfbench {

class KeepAwake {
 public:
  /// Starts one poller per CPU.
  KeepAwake();
  /// Stops and joins them.
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> pollers_;
};

}  // namespace directload::perfbench

#endif  // DIRECTLOAD_PERFBENCH_HARNESS_KEEP_AWAKE_H_
