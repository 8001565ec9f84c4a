#ifndef DIRECTLOAD_SERVER_BULK_INGEST_H_
#define DIRECTLOAD_SERVER_BULK_INGEST_H_

#include <cstdint>
#include <set>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "mint/cluster.h"

namespace directload::server {

/// Server-side state of one bulk-ingest session (one streamed index
/// version on one connection). Slice frames may be executed by several
/// workers concurrently and out of order; the session tracks which slice
/// ids have landed so duplicates are acknowledged without re-ingesting and
/// commit can name exactly what is missing. Commit and Abort run on the
/// connection's reader thread (a kBulkCommit / kBulkAbort frame, or the
/// teardown abort), so they never race each other.
///
/// Locking (rank kServerBulk): slice ingest releases mu_ across its
/// cluster call so slices land in parallel; Commit and Abort hold it
/// across theirs, so no slice starts landing while the version commits or
/// rolls back.
class BulkIngestSession {
 public:
  BulkIngestSession(mint::MintCluster* cluster, uint64_t version)
      : cluster_(cluster), version_(version) {}

  BulkIngestSession(const BulkIngestSession&) = delete;
  BulkIngestSession& operator=(const BulkIngestSession&) = delete;

  uint64_t version() const { return version_; }

  /// Decodes, re-verifies (the per-hop checksum), and stages one slice
  /// frame. Returns kCorruption when the checksum fails — the slice is
  /// dropped, the session survives, and the client repairs by re-sending.
  /// kBusy means the same slice id is mid-ingest on another worker; a
  /// slice that already landed is acknowledged OK without re-ingesting.
  Status HandleSlice(uint64_t frame_version, const Slice& frame_value)
      EXCLUDES(mu_);

  /// Commits the session once slice ids 0 .. expected_slices-1 have all
  /// landed. Otherwise returns kUnavailable and fills `missing_payload`
  /// (EncodeMissingSlices) so the client can re-send and commit again.
  /// Idempotent after success.
  Status Commit(uint64_t expected_slices, std::string* missing_payload)
      EXCLUDES(mu_);

  /// Rolls staged records back across the cluster. Idempotent; a no-op
  /// after a successful Commit.
  void Abort() EXCLUDES(mu_);

 private:
  mint::MintCluster* const cluster_;
  const uint64_t version_;

  Mutex mu_{LockRank::kServerBulk, "BulkIngestSession::mu_"};
  std::set<uint64_t> landed_ GUARDED_BY(mu_);
  std::set<uint64_t> inflight_ GUARDED_BY(mu_);
  bool committed_ GUARDED_BY(mu_) = false;
  bool aborted_ GUARDED_BY(mu_) = false;
};

}  // namespace directload::server

#endif  // DIRECTLOAD_SERVER_BULK_INGEST_H_
