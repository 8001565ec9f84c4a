#ifndef DIRECTLOAD_PERFBENCH_HARNESS_TRACING_ENV_H_
#define DIRECTLOAD_PERFBENCH_HARNESS_TRACING_ENV_H_

// An SsdEnv that forwards every call to a real simulated SSD and records a
// span around each WritableFile::Append ("ssd.append"), WritableFile::Sync
// ("ssd.sync") and RandomAccessFile::Read ("ssd.read"), and counts the
// appends and their bytes. A QinDb opened over it shows, from outside the
// engine, how many device calls each engine op makes and how long they take.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ssd/env.h"

namespace directload::perfbench {

struct EnvCallCounts {
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> append_bytes{0};
};

class TracingEnv final : public ssd::SsdEnv {
 public:
  explicit TracingEnv(std::unique_ptr<ssd::SsdEnv> base);

  Result<std::unique_ptr<ssd::WritableFile>> NewWritableFile(
      const std::string& name) override;
  Result<std::unique_ptr<ssd::RandomAccessFile>> NewRandomAccessFile(
      const std::string& name) override;
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }
  Result<uint64_t> GetFileSize(const std::string& name) const override {
    return base_->GetFileSize(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_->ListFiles();
  }
  uint64_t TotalFileBytes() const override { return base_->TotalFileBytes(); }
  uint64_t CapacityBytes() const override { return base_->CapacityBytes(); }
  const ssd::SsdStats& stats() const override { return base_->stats(); }
  const ssd::Geometry& geometry() const override { return base_->geometry(); }
  ssd::InterfaceMode mode() const override { return base_->mode(); }
  SimClock* clock() override { return base_->clock(); }
  uint64_t busy_until_micros() const override {
    return base_->busy_until_micros();
  }
  Status CorruptFileByteForTesting(const std::string& name,
                                   uint64_t offset) override {
    return base_->CorruptFileByteForTesting(name, offset);
  }
  void SimulateCrashForTesting() override { base_->SimulateCrashForTesting(); }

  const EnvCallCounts& counts() const { return counts_; }

 private:
  class File;
  class Reader;

  std::unique_ptr<ssd::SsdEnv> base_;
  EnvCallCounts counts_;
};

}  // namespace directload::perfbench

#endif  // DIRECTLOAD_PERFBENCH_HARNESS_TRACING_ENV_H_
