#ifndef DIRECTLOAD_SERVER_KV_SERVER_H_
#define DIRECTLOAD_SERVER_KV_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "mint/cluster.h"
#include "rpc/protocol.h"
#include "rpc/socket.h"

namespace directload::server {

struct KvServerOptions {
  /// Numeric IPv4 listen address. Loopback by default: the simulated
  /// cluster behind the server is a research artifact, not a hardened
  /// network service.
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read it back via port().
  uint16_t port = 0;
  /// Worker threads landing bulk-ingest slices (kBulkSlice) against the
  /// cluster; every other request runs on its connection's reader thread.
  /// <= 0 sizes the pool to the hardware concurrency (minimum 2), so the
  /// slices of one streamed version land in parallel.
  int num_workers = 0;
  /// Admission bound: slice frames decoded but not yet picked up by a
  /// worker. A full queue rejects the slice with kBusy instead of queueing
  /// unboundedly — the loader re-sends it, the server keeps a bounded
  /// memory footprint. Point requests never queue, so this bounds nothing
  /// else.
  size_t max_queued_requests = 1024;
  /// A reader runs up to this many consecutive single-op write requests
  /// (PUT/DEL) decoded in one pass as one cluster write batch — the
  /// serving layer's write batching: one engine Write per involved node
  /// instead of one per request, each request still answered individually.
  /// <= 1 disables the batching.
  size_t max_write_batch = 32;
  /// Connections with no complete request for this long are closed.
  int idle_timeout_ms = 60'000;
  size_t max_frame_bytes = rpc::kMaxBodyBytes;
  /// Frame bound a connection is raised to after the server acks its
  /// kBulkBegin — the negotiated ceiling for slice frames. Connections that
  /// never open a bulk session keep the tight max_frame_bytes bound, so the
  /// remote-OOM posture of normal traffic is unchanged. The raise persists
  /// for the rest of the connection (a loader typically streams several
  /// versions back to back).
  size_t max_bulk_frame_bytes = rpc::kMaxBulkBodyBytes;
  /// Optional per-connection ingress byte throttle (wall-clock token
  /// bucket). 0 disables it.
  double conn_bytes_per_sec = 0;
  double conn_burst_bytes = 256 * 1024;
};

/// A multi-threaded TCP front end over a mint::MintCluster — the serving
/// path of the paper's regional store: web-search reads and streaming index
/// writes arrive over the same wire protocol (src/rpc/protocol.h) while the
/// engines behind it keep their own concurrency story.
///
/// Threading model (see docs/serving.md):
///   * one acceptor thread polls the listening socket and spawns
///   * one reader thread per connection, which decodes pipelined request
///     frames and runs every point request itself — GET, PUT, DEL,
///     WRITEBATCH, STATS, PING, HEARTBEAT, REPAIR_SCAN and the bulk
///     begin/commit/abort control frames — in arrival order, answering each
///     before it runs the next. Consecutive PUT/DEL frames decoded in one
///     pass run as one cluster write batch. Only bulk slices go to
///   * a bounded slice queue drained by a worker pool sized to the
///     hardware, so the slices of one streamed version land in parallel.
///     A worker writes its slice's response onto the originating connection
///     (a per-connection write lock keeps it from interleaving bytes with
///     the reader's responses).
///
/// Point responses come back in request order; slice responses may
/// overtake each other, and the request id ties them back. Admission
/// control: a full slice queue answers kBusy immediately. Shutdown() drains
/// gracefully — stop accepting, stop reading, finish every running request
/// and queued slice, flush its acknowledgement, then close. An acknowledged
/// write is therefore always applied to the cluster, which the smoke test
/// checks across a server restart.
///
/// Locks (all ranked above the engine ranks — a reader or worker may take
/// engine locks while holding nothing of the server's):
///   kServerState      mu_        lifecycle + connection registry
///   kServerQueue      queue_mu_  slice queue, drain accounting
///   kServerConnWrite  write_mu   per-connection response serialization
class KvServer {
 public:
  /// The cluster must outlive the server and must already be Start()ed.
  KvServer(mint::MintCluster* cluster, KvServerOptions options);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Binds, listens, and spawns the acceptor and worker threads.
  Status Start() EXCLUDES(mu_);

  /// Graceful drain; idempotent. Blocks until every in-flight request is
  /// answered and every thread joined.
  void Shutdown() EXCLUDES(mu_);

  /// The bound port (valid after Start(); the interesting case is an
  /// ephemeral bind with options.port == 0).
  uint16_t port() const { return port_; }

  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_idle_closed{0};
    std::atomic<uint64_t> requests_served{0};
    std::atomic<uint64_t> requests_rejected_busy{0};
    /// Single-op write requests that rode a multi-request batched run.
    std::atomic<uint64_t> writes_batched{0};
    /// Connections torn down for kProtocol / kCorruption streams.
    std::atomic<uint64_t> stream_errors{0};
    /// Response frames that failed to send (peer gone mid-reply). The
    /// response is dropped — the reader side notices the dead socket — but
    /// the drop is counted, never silent.
    std::atomic<uint64_t> response_send_failures{0};
    /// Bulk-ingest sessions opened (kBulkBegin acked).
    std::atomic<uint64_t> bulk_sessions_opened{0};
    /// Slice frames staged into the cluster (first landing only).
    std::atomic<uint64_t> bulk_slices_landed{0};
    /// Slice frames rejected kCorruption by the per-hop checksum (each one
    /// repaired by a client re-send, never a torn-down connection).
    std::atomic<uint64_t> bulk_checksum_rejects{0};
  };
  const Counters& counters() const { return counters_; }

 private:
  struct Connection;
  struct Request {
    std::shared_ptr<Connection> conn;
    rpc::Frame frame;
  };

  void AcceptorLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();

  /// Executes one request against the cluster and returns its response.
  /// Takes the originating connection because the bulk-ingest opcodes read
  /// and mutate its session state.
  rpc::Frame Execute(Connection* conn, const rpc::Frame& request);

  /// Runs the reader's pending single-op writes as one cluster write batch
  /// (MintCluster::WriteMany, even for one frame), answers each with its
  /// own status, and clears `writes`. Only runs of two or more count as
  /// writes_batched.
  void RunWrites(Connection* conn, std::vector<rpc::Frame>* writes);

  std::string StatsText();

  /// Hands a slice frame to the worker pool; kBusy when the queue is full
  /// or the pool has stopped.
  Status Enqueue(Request request) EXCLUDES(queue_mu_);

  mint::MintCluster* const cluster_;
  const KvServerOptions options_;
  uint16_t port_ = 0;
  Counters counters_;

  /// Accept/read stop signal; set by Shutdown before the drain wait.
  std::atomic<bool> draining_{false};

  Mutex mu_{LockRank::kServerState, "KvServer::mu_"};
  bool running_ GUARDED_BY(mu_) = false;
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>>
      connections_ GUARDED_BY(mu_);

  // Lifecycle members, written by Start()/Shutdown() only (which external
  // callers serialize) and stable for the whole time the threads run, so
  // the acceptor reads listener_ without a lock.
  rpc::Socket listener_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  Mutex queue_mu_{LockRank::kServerQueue, "KvServer::queue_mu_"};
  CondVar queue_cv_{&queue_mu_};  // Signaled on push and on stop.
  CondVar drain_cv_{&queue_mu_};  // Signaled when the queue runs dry.
  std::deque<Request> queue_ GUARDED_BY(queue_mu_);  // kBulkSlice only.
  int executing_ GUARDED_BY(queue_mu_) = 0;
  /// Workers exit; Enqueue refuses.
  bool stopping_ GUARDED_BY(queue_mu_) = false;
};

}  // namespace directload::server

#endif  // DIRECTLOAD_SERVER_KV_SERVER_H_
