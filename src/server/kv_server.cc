#include "server/kv_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <optional>

#include "bifrost/wire/slice_codec.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rate_limiter.h"
#include "server/bulk_ingest.h"

namespace directload::server {

namespace {

// Server-side failpoints. Both sit before the request is acknowledged in
// any way, so firing them can never lose an acked write: a dropped accept
// looks like a dial race, a failed admission (checked before each request
// runs or queues) is answered kBusy and the client retries.
DIRECTLOAD_FAILPOINT_DEFINE(fp_server_accept, "server_accept");
DIRECTLOAD_FAILPOINT_DEFINE(fp_server_enqueue, "server_enqueue");

// Node-role failpoints. A failed heartbeat makes a healthy node look dead
// to the coordinator's detector (false-suspect drills); a failed repair
// scan interrupts re-replication mid-stream, which the coordinator must
// survive by resuming from its cursor. Neither touches stored data.
DIRECTLOAD_FAILPOINT_DEFINE(fp_server_heartbeat, "server_heartbeat");
DIRECTLOAD_FAILPOINT_DEFINE(fp_server_repair_scan, "server_repair_scan");

using SteadyClock = std::chrono::steady_clock;

/// How often blocked accept/recv/wait calls wake up to check the shutdown
/// and idle flags. Bounds drain latency without burning CPU.
constexpr int kPollSliceMs = 50;

/// Deadline for writing one response onto a connection. A peer that stops
/// reading for this long forfeits the response (the socket send buffer plus
/// this budget is far more slack than a live client ever needs).
constexpr int kWriteTimeoutMs = 5000;

/// Bounds on the input a protocol-error teardown drains before closing: a
/// peer still streaming the rest of a rejected frame gets this much (twice
/// the largest negotiable frame) and this long to finish or close its side.
constexpr size_t kTeardownDrainBytes = 2 * rpc::kMaxBulkBodyBytes;
constexpr int kTeardownDrainMs = 1000;

}  // namespace

/// Per-connection state. The reader thread owns `decoder` and `limiter`
/// exclusively; the socket is shared between the reader (recv, and the
/// responses to the requests it runs) and the workers (slice responses) —
/// send and recv are opposite directions of one fd, which the kernel allows
/// concurrently — and `write_mu` serializes the senders so pipelined
/// responses cannot interleave bytes.
struct KvServer::Connection {
  Connection(rpc::Socket s, const KvServerOptions& options,
             std::atomic<uint64_t>* send_failures)
      : socket(std::move(s)),
        decoder(options.max_frame_bytes),
        limiter(options.conn_bytes_per_sec, options.conn_burst_bytes),
        send_failures(send_failures) {}

  /// Encodes and writes one frame. A send failure means the peer is gone
  /// mid-reply; the reader thread will notice the dead socket and tear the
  /// connection down, so the response is dropped here — counted, not silent.
  void Write(const rpc::Frame& frame) {
    std::string wire;
    rpc::EncodeFrame(frame, &wire);
    MutexLock lock(&write_mu);
    if (!socket.SendAll(wire, kWriteTimeoutMs).ok()) {
      send_failures->fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Protocol-error teardown (reader thread only): sends `error`,
  /// half-closes the write side so the peer reads the error frame and then
  /// a clean EOF, and drains input — bounded in bytes and time, cut short
  /// by server shutdown — before the caller lets the socket close. Closing
  /// with unread input would make the kernel answer with a reset, which
  /// fails the peer's in-progress send and can destroy the error frame
  /// before the peer reads it.
  void CloseAfterProtocolError(const rpc::Frame& error,
                               const std::atomic<bool>& draining) {
    Write(error);
    {
      // Under write_mu so the FIN never lands inside a worker's reply.
      MutexLock lock(&write_mu);
      socket.ShutdownWrite();
    }
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::milliseconds(kTeardownDrainMs);
    char buf[32 * 1024];
    size_t drained = 0;
    while (drained < kTeardownDrainBytes && !draining.load() &&
           SteadyClock::now() < deadline) {
      Result<size_t> n = socket.RecvSome(buf, sizeof(buf), kPollSliceMs);
      if (!n.ok()) {
        if (n.status().IsTimedOut()) continue;
        return;  // Reset: nothing left to protect.
      }
      if (*n == 0) return;  // The peer closed its side too.
      drained += *n;
    }
  }

  rpc::Socket socket;
  rpc::FrameDecoder decoder;  // Reader thread only.
  WallRateLimiter limiter;    // Reader thread only.
  Mutex write_mu{LockRank::kServerConnWrite, "Connection::write_mu"};
  std::atomic<uint64_t>* send_failures;  // Server-owned counter.
  std::atomic<bool> done{false};  // Reader thread exited.

  /// The connection's bulk-ingest session, if one is open. The reader
  /// (begin/commit/abort) and the workers (slices) copy the pointer out
  /// under bulk_mu and call the session unlocked; reader teardown swaps it
  /// out and aborts whatever was never committed.
  Mutex bulk_mu{LockRank::kServerBulk, "Connection::bulk_mu"};
  std::shared_ptr<BulkIngestSession> bulk GUARDED_BY(bulk_mu);
};

KvServer::KvServer(mint::MintCluster* cluster, KvServerOptions options)
    : cluster_(cluster), options_(std::move(options)) {}

KvServer::~KvServer() { Shutdown(); }

Status KvServer::Start() {
  MutexLock lock(&mu_);
  if (running_) return Status::InvalidArgument("server is already running");

  Result<rpc::Socket> listener =
      rpc::Listen(options_.host, options_.port, /*backlog=*/128);
  if (!listener.ok()) return listener.status();
  Result<uint16_t> port = rpc::LocalPort(*listener);
  if (!port.ok()) return port.status();
  listener_ = std::move(listener).value();
  port_ = *port;

  draining_.store(false);
  {
    MutexLock queue_lock(&queue_mu_);
    stopping_ = false;
  }
  int num_workers = options_.num_workers;
  if (num_workers <= 0) {
    num_workers = std::max(2u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&KvServer::WorkerLoop, this);
  }
  acceptor_ = std::thread(&KvServer::AcceptorLoop, this);
  running_ = true;
  return Status::OK();
}

void KvServer::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    running_ = false;
  }
  // Stop accepting and stop decoding new requests. A reader finishes and
  // answers the request it is running before it next checks the flag, and
  // slices already queued (or landing) still complete and flush their
  // acknowledgements — that is the drain guarantee: every acknowledged
  // write reached the cluster.
  draining_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  {
    MutexLock lock(&queue_mu_);
    while (!queue_.empty() || executing_ > 0) {
      drain_cv_.WaitFor(std::chrono::milliseconds(kPollSliceMs));
    }
    // Set in the same critical section that saw the queue drained: a slice
    // a reader admitted just before the flip above either entered the queue
    // before this point (and the wait served it) or meets stopping_ in
    // Enqueue and is answered kBusy — never parked where no worker pops.
    stopping_ = true;
    queue_cv_.SignalAll();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> connections;
  {
    MutexLock lock(&mu_);
    connections.swap(connections_);
  }
  for (auto& [conn, reader] : connections) {
    if (reader.joinable()) reader.join();
  }
  connections.clear();  // Closes the sockets.
  listener_.Close();
}

void KvServer::AcceptorLoop() {
  while (!draining_.load()) {
    Result<rpc::Socket> accepted = rpc::AcceptOne(listener_, kPollSliceMs);
    if (!accepted.ok()) {
      if (accepted.status().IsTimedOut()) {
        // Idle moment: reap finished connections so a long-lived server
        // does not accumulate dead registry entries.
        MutexLock lock(&mu_);
        for (auto it = connections_.begin(); it != connections_.end();) {
          if (it->first->done.load()) {
            if (it->second.joinable()) it->second.join();
            it = connections_.erase(it);
          } else {
            ++it;
          }
        }
        continue;
      }
      return;  // Listener broken; Shutdown will clean up.
    }
#if DIRECTLOAD_FAILPOINTS_COMPILED
    if (fp_server_accept->armed() && !fp_server_accept->MaybeFail().ok()) {
      // Drop the fresh connection on the floor — to the client this is a
      // peer that accepted and immediately reset, the classic overloaded
      // front-end symptom.
      continue;
    }
#endif
    counters_.connections_accepted.fetch_add(1);
    auto conn = std::make_shared<Connection>(
        std::move(accepted).value(), options_,
        &counters_.response_send_failures);
    MutexLock lock(&mu_);
    connections_.emplace_back(conn,
                              std::thread(&KvServer::ReaderLoop, this, conn));
  }
}

void KvServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  const bool throttled = options_.conn_bytes_per_sec > 0;
  const size_t max_batch = std::max<size_t>(1, options_.max_write_batch);
  SteadyClock::time_point idle_deadline =
      SteadyClock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
  char buf[32 * 1024];
  std::vector<rpc::Frame> writes;  // Admitted PUT/DEL frames not yet run.
  bool alive = true;
  while (alive && !draining_.load()) {
    Result<size_t> n = conn->socket.RecvSome(buf, sizeof(buf), kPollSliceMs);
    if (!n.ok()) {
      if (n.status().IsTimedOut()) {
        if (SteadyClock::now() >= idle_deadline) {
          counters_.connections_idle_closed.fetch_add(1);
          break;
        }
        continue;
      }
      break;  // Reset / hard error.
    }
    if (*n == 0) break;  // Clean EOF.
    if (throttled) conn->limiter.Throttle(static_cast<double>(*n));
    conn->decoder.Append(buf, *n);

    std::optional<rpc::Frame> stream_error;
    while (true) {
      rpc::Frame frame;
      Result<bool> got = conn->decoder.Next(&frame);
      if (!got.ok()) {
        // Framing is lost: report the reason on a best-effort error frame
        // (request id 0 — the broken stream no longer names one).
        stream_error.emplace();
        stream_error->op = rpc::Opcode::kPing;
        stream_error->response = true;
        stream_error->status = got.status().code();
        stream_error->value = got.status().ToString();
        break;
      }
      if (!*got) break;  // Need more bytes.
      idle_deadline = SteadyClock::now() +
                      std::chrono::milliseconds(options_.idle_timeout_ms);
      if (frame.response) {
        stream_error = rpc::MakeResponse(
            frame, Status::Protocol("client sent a response frame"));
        break;
      }
      if (draining_.load()) {
        // Not run, so not acknowledged — the client will retry against
        // whatever replaces this server.
        alive = false;
        break;
      }
#if DIRECTLOAD_FAILPOINTS_COMPILED
      if (fp_server_enqueue->armed()) {
        if (Status s = fp_server_enqueue->MaybeFail(); !s.ok()) {
          // Never run, never acked: the client retries. The writes admitted
          // before it are answered first, keeping responses in order.
          RunWrites(conn.get(), &writes);
          counters_.requests_rejected_busy.fetch_add(1);
          conn->Write(rpc::MakeResponse(
              frame, Status::Busy("request admission failed")));
          continue;
        }
      }
#endif
      if (frame.op == rpc::Opcode::kPut || frame.op == rpc::Opcode::kDel) {
        writes.push_back(std::move(frame));
        if (writes.size() >= max_batch) RunWrites(conn.get(), &writes);
        continue;
      }
      // Everything admitted before this frame runs first: point requests
      // execute strictly in arrival order.
      RunWrites(conn.get(), &writes);
      if (frame.op != rpc::Opcode::kBulkSlice) {
        conn->Write(Execute(conn.get(), frame));
        counters_.requests_served.fetch_add(1);
        continue;
      }
      // Slices land on the worker pool, in parallel with each other.
      rpc::Frame stub;  // Scalar fields survive for the rejection path.
      stub.op = frame.op;
      stub.request_id = frame.request_id;
      stub.version = frame.version;
      if (Status s = Enqueue(Request{conn, std::move(frame)}); !s.ok()) {
        counters_.requests_rejected_busy.fetch_add(1);
        conn->Write(rpc::MakeResponse(stub, s));
      }
    }
    // The writes were admitted before any stop or error: run and answer
    // them, ahead of a protocol-error frame.
    RunWrites(conn.get(), &writes);
    if (stream_error.has_value()) {
      counters_.stream_errors.fetch_add(1);
      conn->CloseAfterProtocolError(*stream_error, draining_);
      alive = false;
    }
  }
  // Connection teardown: an open bulk session dies with its connection —
  // whatever was staged but never committed is rolled back, so a loader
  // that crashed mid-stream leaves no trace. (Commits run on this thread,
  // so none is mid-flight here; Abort no-ops after one that succeeded.)
  std::shared_ptr<BulkIngestSession> orphan;
  {
    MutexLock lock(&conn->bulk_mu);
    orphan = std::move(conn->bulk);
  }
  if (orphan != nullptr) orphan->Abort();
  conn->done.store(true);
}

Status KvServer::Enqueue(Request request) {
  MutexLock lock(&queue_mu_);
  if (stopping_) return Status::Busy("server is shutting down");
  if (queue_.size() >= options_.max_queued_requests) {
    return Status::Busy("slice queue is full");
  }
  queue_.push_back(std::move(request));
  queue_cv_.Signal();
  return Status::OK();
}

void KvServer::WorkerLoop() {
  while (true) {
    Request request;
    {
      MutexLock lock(&queue_mu_);
      while (queue_.empty() && !stopping_) {
        queue_cv_.WaitFor(std::chrono::milliseconds(kPollSliceMs));
      }
      if (queue_.empty()) return;  // stopping_ && drained.
      request = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
    }
    assert(request.frame.op == rpc::Opcode::kBulkSlice);
    request.conn->Write(Execute(request.conn.get(), request.frame));
    counters_.requests_served.fetch_add(1);
    {
      MutexLock lock(&queue_mu_);
      --executing_;
      if (queue_.empty() && executing_ == 0) drain_cv_.SignalAll();
    }
  }
}

void KvServer::RunWrites(Connection* conn, std::vector<rpc::Frame>* writes) {
  if (writes->empty()) return;
  const size_t count = writes->size();
  std::vector<rpc::BatchOp> ops(count);
  for (size_t i = 0; i < count; ++i) {
    rpc::Frame& frame = (*writes)[i];
    ops[i].is_del = frame.op == rpc::Opcode::kDel;
    ops[i].dedup = frame.dedup;
    ops[i].version = frame.version;
    // MakeResponse only reads the scalar fields, so the payload can move.
    ops[i].key = std::move(frame.key);
    ops[i].value = std::move(frame.value);
  }
  std::vector<Status> statuses;
  DL_DISCARD_STATUS("first failing per-op status; each response frame "
                    "below carries its own op's status",
                    cluster_->WriteMany(ops, &statuses));
  for (size_t i = 0; i < count; ++i) {
    conn->Write(rpc::MakeResponse((*writes)[i], statuses[i]));
  }
  if (count > 1) counters_.writes_batched.fetch_add(count);
  counters_.requests_served.fetch_add(count);
  writes->clear();
}

rpc::Frame KvServer::Execute(Connection* conn, const rpc::Frame& request) {
  switch (request.op) {
    case rpc::Opcode::kGet: {
      Result<mint::MintCluster::ReadResult> read =
          request.latest ? cluster_->GetLatest(request.key)
                         : cluster_->Get(request.key, request.version);
      if (!read.ok()) return rpc::MakeResponse(request, read.status());
      return rpc::MakeResponse(request, Status::OK(),
                               std::move(read->value));
    }
    case rpc::Opcode::kPut:
    case rpc::Opcode::kDel:
      break;  // Single-op writes run through RunWrites, never through here.
    case rpc::Opcode::kStats:
      return rpc::MakeResponse(request, Status::OK(), StatsText());
    case rpc::Opcode::kPing:
      return rpc::MakeResponse(request, Status::OK(), request.value);
    case rpc::Opcode::kWriteBatch: {
      std::vector<rpc::BatchOp> ops;
      Status decoded = rpc::DecodeBatchOps(request.value, &ops);
      if (!decoded.ok()) return rpc::MakeResponse(request, decoded);
      std::vector<Status> statuses;
      Status overall = cluster_->WriteMany(ops, &statuses);
      // The response value always carries the per-op statuses; the frame
      // status summarizes them (first non-OK), so a client that only looks
      // at the frame level still sees the batch outcome.
      std::string payload;
      rpc::EncodeBatchStatuses(statuses, &payload);
      rpc::Frame response =
          rpc::MakeResponse(request, Status::OK(), std::move(payload));
      response.status = overall.code();
      return response;
    }
    case rpc::Opcode::kBulkBegin: {
      bifrost::wire::BulkBeginInfo info;
      if (Status s = bifrost::wire::DecodeBulkBegin(request.value, &info);
          !s.ok()) {
        return rpc::MakeResponse(request, s);
      }
      if (info.version != request.version) {
        return rpc::MakeResponse(
            request, Status::InvalidArgument(
                         "begin payload version differs from the frame"));
      }
      auto session =
          std::make_shared<BulkIngestSession>(cluster_, request.version);
      {
        MutexLock lock(&conn->bulk_mu);
        if (conn->bulk != nullptr) {
          return rpc::MakeResponse(
              request,
              Status::Busy("a bulk session is already open on this "
                           "connection"));
        }
        conn->bulk = session;
      }
      if (Status s = cluster_->BulkBegin(request.version); !s.ok()) {
        MutexLock lock(&conn->bulk_mu);
        conn->bulk.reset();
        return rpc::MakeResponse(request, s);
      }
      // Negotiate the frame bound up before the ack is on the wire: once
      // the client sees OK it may send slices up to the bulk bound. This
      // runs on the reader, which owns the decoder, and the bound applies
      // from the next frame it decodes.
      conn->decoder.set_max_body_bytes(
          std::max(options_.max_frame_bytes, options_.max_bulk_frame_bytes));
      counters_.bulk_sessions_opened.fetch_add(1);
      return rpc::MakeResponse(request, Status::OK());
    }
    case rpc::Opcode::kBulkSlice: {
      std::shared_ptr<BulkIngestSession> session;
      {
        MutexLock lock(&conn->bulk_mu);
        session = conn->bulk;
      }
      if (session == nullptr) {
        return rpc::MakeResponse(
            request,
            Status::InvalidArgument("no bulk session on this connection"));
      }
      Status s = session->HandleSlice(request.version, request.value);
      if (s.ok()) {
        counters_.bulk_slices_landed.fetch_add(1);
      } else if (s.IsCorruption()) {
        counters_.bulk_checksum_rejects.fetch_add(1);
      }
      return rpc::MakeResponse(request, s);
    }
    case rpc::Opcode::kBulkCommit: {
      std::shared_ptr<BulkIngestSession> session;
      {
        MutexLock lock(&conn->bulk_mu);
        session = conn->bulk;
      }
      if (session == nullptr) {
        return rpc::MakeResponse(
            request,
            Status::InvalidArgument("no bulk session on this connection"));
      }
      uint64_t expected = 0;
      if (Status s = bifrost::wire::DecodeBulkCommit(request.value, &expected);
          !s.ok()) {
        return rpc::MakeResponse(request, s);
      }
      std::string missing;
      Status s = session->Commit(expected, &missing);
      if (s.IsUnavailable() && !missing.empty()) {
        // The repair contract: the ids still outstanding ride the response
        // so the client re-sends exactly those and commits again.
        rpc::Frame response =
            rpc::MakeResponse(request, Status::OK(), std::move(missing));
        response.status = StatusCode::kUnavailable;
        return response;
      }
      if (s.ok()) {
        MutexLock lock(&conn->bulk_mu);
        conn->bulk.reset();
      }
      return rpc::MakeResponse(request, s);
    }
    case rpc::Opcode::kHeartbeat: {
#if DIRECTLOAD_FAILPOINTS_COMPILED
      if (fp_server_heartbeat->armed()) {
        if (Status s = fp_server_heartbeat->MaybeFail(); !s.ok()) {
          return rpc::MakeResponse(request, s);
        }
      }
#endif
      // The probe speaks for this process's node role: node 0 is THE node
      // in a dmint_node process (its cluster is 1 group x 1 node), and the
      // front node of an in-process simulation cluster otherwise.
      rpc::HeartbeatInfo info;
      if (cluster_->num_nodes() > 0) {
        mint::StorageNode* node = cluster_->node(0);
        ReaderLock engine_guard(node->lifecycle_mu());
        if (node->up() && node->db() != nullptr) {
          const bool draining = draining_.load();
          info.serving = !draining;
          info.degraded = draining;
          info.live_entries = node->db()->LiveEntryCount();
        }
      }
      std::string payload;
      rpc::EncodeHeartbeatInfo(info, &payload);
      return rpc::MakeResponse(request, Status::OK(), std::move(payload));
    }
    case rpc::Opcode::kRepairScan: {
#if DIRECTLOAD_FAILPOINTS_COMPILED
      if (fp_server_repair_scan->armed()) {
        if (Status s = fp_server_repair_scan->MaybeFail(); !s.ok()) {
          return rpc::MakeResponse(request, s);
        }
      }
#endif
      rpc::RepairScanRequest scan;
      if (Status s = rpc::DecodeRepairScanRequest(request.value, &scan);
          !s.ok()) {
        return rpc::MakeResponse(request, s);
      }
      if (cluster_->num_nodes() == 0) {
        return rpc::MakeResponse(request,
                                 Status::Unavailable("no node to scan"));
      }
      mint::StorageNode* node = cluster_->node(0);
      ReaderLock engine_guard(node->lifecycle_mu());
      if (!node->up() || node->db() == nullptr) {
        return rpc::MakeResponse(request,
                                 Status::Unavailable("node engine is down"));
      }
      qindb::QinDb* db = node->db();
      const uint32_t max_pairs = std::max<uint32_t>(1, scan.max_pairs);
      rpc::RepairPage page;
      bool full = false;
      size_t budget = 0;
      const uint32_t start_shard = scan.cursor.resume ? scan.cursor.shard : 0;
      for (uint32_t shard = start_shard; shard < db->num_shards() && !full;
           ++shard) {
        MemIndex::Iterator it(&db->memtable(shard));
        if (scan.cursor.resume && shard == scan.cursor.shard) {
          // The cursor names the last pair already returned; skip past it.
          // The index orders versions descending within a key, so "past"
          // is every entry of the cursor key at or above its version.
          const Slice cursor_key(scan.cursor.key);
          it.Seek(cursor_key);
          while (it.Valid() && it.entry()->user_key() == cursor_key &&
                 it.entry()->version >= scan.cursor.version) {
            it.Next();
          }
        }
        for (; it.Valid(); it.Next()) {
          MemEntry* entry = it.entry();
          // Deleted pairs are not copied: a repaired node that never hears
          // of the pair equals one that heard of it and its deletion.
          if (entry->deleted.load(std::memory_order_acquire)) continue;
          rpc::RepairPair pair;
          pair.key = entry->user_key().ToString();
          pair.version = entry->version;
          if (!scan.keys_only) {
            // Resolves the dedup traceback too, so the page carries full
            // values the receiver can store without this node's chain.
            Result<std::string> value = db->Get(pair.key, pair.version);
            if (!value.ok()) continue;  // Collected mid-scan; skip.
            pair.value = std::move(value).value();
          }
          budget += pair.key.size() + pair.value.size() + 16;
          page.pairs.push_back(std::move(pair));
          if (page.pairs.size() >= max_pairs ||
              budget >= rpc::kRepairPageBudgetBytes) {
            page.next.shard = shard;
            page.next.version = page.pairs.back().version;
            page.next.key = page.pairs.back().key;
            page.next.resume = true;
            full = true;
            break;
          }
        }
      }
      page.done = !full;
      std::string payload;
      rpc::EncodeRepairPage(page, &payload);
      return rpc::MakeResponse(request, Status::OK(), std::move(payload));
    }
    case rpc::Opcode::kBulkAbort: {
      std::shared_ptr<BulkIngestSession> session;
      {
        MutexLock lock(&conn->bulk_mu);
        session = std::move(conn->bulk);
      }
      if (session != nullptr) session->Abort();
      return rpc::MakeResponse(request, Status::OK());  // Idempotent.
    }
  }
  return rpc::MakeResponse(request, Status::Protocol("unknown opcode"));
}

std::string KvServer::StatsText() {
  char line[512];
  std::string out;
  std::snprintf(line, sizeof(line),
                "server: accepted=%llu idle_closed=%llu served=%llu "
                "busy_rejected=%llu stream_errors=%llu writes_batched=%llu "
                "send_failures=%llu\n",
                (unsigned long long)counters_.connections_accepted.load(),
                (unsigned long long)counters_.connections_idle_closed.load(),
                (unsigned long long)counters_.requests_served.load(),
                (unsigned long long)counters_.requests_rejected_busy.load(),
                (unsigned long long)counters_.stream_errors.load(),
                (unsigned long long)counters_.writes_batched.load(),
                (unsigned long long)counters_.response_send_failures.load());
  out += line;
  std::snprintf(line, sizeof(line),
                "bulk: sessions=%llu slices_landed=%llu checksum_rejects=%llu\n",
                (unsigned long long)counters_.bulk_sessions_opened.load(),
                (unsigned long long)counters_.bulk_slices_landed.load(),
                (unsigned long long)counters_.bulk_checksum_rejects.load());
  out += line;
  // Every node opens its engine with the same options, so node 0's resolved
  // shard count speaks for the cluster (0 = no node has an open engine).
  unsigned engine_shards = 0;
  if (cluster_->num_nodes() > 0 && cluster_->node(0)->db() != nullptr) {
    engine_shards = cluster_->node(0)->db()->num_shards();
  }
  std::snprintf(line, sizeof(line),
                "cluster: nodes=%d engine_shards=%u user_bytes=%llu "
                "disk_bytes=%llu\n",
                cluster_->num_nodes(), engine_shards,
                (unsigned long long)cluster_->TotalUserBytesIngested(),
                (unsigned long long)cluster_->TotalDiskBytes());
  out += line;
  // Read-path memory governors, summed across every local node's engine.
  qindb::EngineCacheTotals cache;
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    if (cluster_->node(n)->db() == nullptr) continue;
    cache.Add(cluster_->node(n)->db()->CacheTotals());
  }
  std::snprintf(line, sizeof(line),
                "cache: hits=%llu misses=%llu inserts=%llu "
                "admission_rejects=%llu evicted_bytes=%llu "
                "charged_bytes=%llu index_loads=%llu index_unloads=%llu "
                "resident_versions=%llu cold_versions=%llu\n",
                (unsigned long long)cache.cache_hits,
                (unsigned long long)cache.cache_misses,
                (unsigned long long)cache.cache_inserts,
                (unsigned long long)cache.cache_admission_rejects,
                (unsigned long long)cache.cache_evicted_bytes,
                (unsigned long long)cache.cache_charged_bytes,
                (unsigned long long)cache.index_loads,
                (unsigned long long)cache.index_unloads,
                (unsigned long long)cache.resident_versions,
                (unsigned long long)cache.cold_versions);
  out += line;
  return out;
}

}  // namespace directload::server
