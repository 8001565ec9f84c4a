#include "harness/keep_awake.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>

namespace directload::perfbench {

KeepAwake::KeepAwake() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < cpus; ++i) {
    pollers_.emplace_back([this] {
      sched_param param{};
      // Without SCHED_IDLE the pollers would compete with the stack; then
      // they must not run at all.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : pollers_) t.join();
}

}  // namespace directload::perfbench
