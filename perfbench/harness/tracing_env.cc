#include "harness/tracing_env.h"

#include <utility>

#include "harness/trace.h"

namespace directload::perfbench {

class TracingEnv::File final : public ssd::WritableFile {
 public:
  File(std::unique_ptr<ssd::WritableFile> base, TracingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Append(const Slice& data) override {
    SpanScope span("ssd.append");
    env_->counts_.appends.fetch_add(1, std::memory_order_relaxed);
    env_->counts_.append_bytes.fetch_add(data.size(),
                                         std::memory_order_relaxed);
    env_->host_bytes_appended_.fetch_add(data.size(),
                                         std::memory_order_relaxed);
    return base_->Append(data);
  }
  Status Sync() override {
    SpanScope span("ssd.sync");
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }
  uint64_t PersistedSize() const override { return base_->PersistedSize(); }

 private:
  std::unique_ptr<ssd::WritableFile> base_;
  TracingEnv* env_;
};

class TracingEnv::Reader final : public ssd::RandomAccessFile {
 public:
  explicit Reader(std::unique_ptr<ssd::RandomAccessFile> base)
      : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    SpanScope span("ssd.read");
    return base_->Read(offset, n, out);
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<ssd::RandomAccessFile> base_;
};

TracingEnv::TracingEnv(std::unique_ptr<ssd::SsdEnv> base)
    : base_(std::move(base)) {}

Result<std::unique_ptr<ssd::WritableFile>> TracingEnv::NewWritableFile(
    const std::string& name) {
  Result<std::unique_ptr<ssd::WritableFile>> file =
      base_->NewWritableFile(name);
  if (!file.ok()) return file.status();
  return std::unique_ptr<ssd::WritableFile>(
      new File(std::move(file).value(), this));
}

Result<std::unique_ptr<ssd::RandomAccessFile>> TracingEnv::NewRandomAccessFile(
    const std::string& name) {
  Result<std::unique_ptr<ssd::RandomAccessFile>> file =
      base_->NewRandomAccessFile(name);
  if (!file.ok()) return file.status();
  return std::unique_ptr<ssd::RandomAccessFile>(
      new Reader(std::move(file).value()));
}

}  // namespace directload::perfbench
