#include "mint/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/coding.h"
#include "common/failpoint.h"
#include "mint/routing.h"

namespace directload::mint {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Fires once per replica inside the write fan-out, before the RPC is sent —
// the chaos harness uses it to starve individual replicas of writes and
// then watch quorum accounting and repair make up the difference.
DIRECTLOAD_FAILPOINT_DEFINE(fp_coord_replica_write, "coord_replica_write");

// Fires once per read attempt (primary, hedge, and failover alike) before
// its RPC is sent — injected failures exercise the failover ladder without
// any server-side cooperation. It runs on the calling thread, so a delay
// action stalls the whole read.
DIRECTLOAD_FAILPOINT_DEFINE(fp_coord_read_attempt, "coord_read_attempt");

// Per-replica send attempts for retryable write failures (kBusy and
// transport errors), on top of the RPC client's own reconnect handling.
// Each retry first sleeps a seeded draw from
// [kWriteBackoffMs/2, kWriteBackoffMs], like the client's reconnect backoff.
constexpr int kWriteAttempts = 2;
constexpr int kWriteBackoffMs = 5;

// The hedge fires after the primary's rolling p95 read latency, never
// sooner than the floor.
constexpr double kHedgeQuantile = 0.95;
constexpr double kHedgeFloorMs = 1.0;

/// A failure of the transport (or the peer's availability), as opposed to
/// the server answering the operation with an error. Only these count as
/// failure-detector misses: a NotFound is a healthy node disagreeing about
/// data, not a dead one.
bool IsTransportError(const Status& s) {
  return s.IsUnavailable() || s.IsIOError() || s.IsTimedOut();
}

double ElapsedMs(SteadyClock::time_point since) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - since)
      .count();
}

std::string InventoryToken(const Slice& key, uint64_t version) {
  std::string token(key.data(), key.size());
  PutFixed64(&token, version);
  return token;
}

}  // namespace

MintCoordinator::MintCoordinator(std::vector<std::vector<NodeEndpoint>> groups,
                                 CoordinatorOptions options)
    : options_(options), backoff_rng_(options.seed) {
  // Probe clients are deliberately impatient: no reconnects, short
  // deadlines — a probe that needs a retry *is* a miss.
  rpc::RpcClient::Options probe_opts = options_.rpc;
  probe_opts.connect_timeout_ms = options_.heartbeat_timeout_ms;
  probe_opts.request_timeout_ms = options_.heartbeat_timeout_ms;
  probe_opts.max_reconnects = 0;
  probe_opts.retry_budget_ms = options_.heartbeat_timeout_ms;

  groups_.resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    for (NodeEndpoint& endpoint : groups[g]) {
      const int id = static_cast<int>(nodes_.size());
      auto node = std::make_unique<Node>();
      node->endpoint = endpoint;
      node->group = static_cast<int>(g);
      node->probe = std::make_unique<rpc::RpcClient>(
          endpoint.host, endpoint.port, probe_opts);
      nodes_.push_back(std::move(node));
      groups_[g].push_back(id);
    }
  }
}

MintCoordinator::~MintCoordinator() { Stop(); }

Status MintCoordinator::Start() {
  if (started_) return Status::InvalidArgument("coordinator already started");
  started_ = true;
  detector_ = std::thread(&MintCoordinator::DetectorLoop, this);
  return Status::OK();
}

void MintCoordinator::Stop() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    cv_.SignalAll();
  }
  if (detector_.joinable()) detector_.join();
}

int MintCoordinator::GroupOf(const Slice& key) const {
  return GroupOfKey(key, num_groups());
}

std::vector<int> MintCoordinator::ReplicasOf(const Slice& key) const {
  return RendezvousReplicas(key, groups_[GroupOf(key)], options_.replicas);
}

NodeHealth MintCoordinator::health(int node_id) const {
  MutexLock lock(&mu_);
  return nodes_[node_id]->health;
}

MintCoordinator::Counters MintCoordinator::counters() const {
  Counters c;
  c.writes_acked = writes_acked_.load(std::memory_order_relaxed);
  c.write_quorum_failures =
      write_quorum_failures_.load(std::memory_order_relaxed);
  c.replica_write_failures =
      replica_write_failures_.load(std::memory_order_relaxed);
  c.hedged_reads = hedged_reads_.load(std::memory_order_relaxed);
  c.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  c.read_failovers = read_failovers_.load(std::memory_order_relaxed);
  c.heartbeat_misses = heartbeat_misses_.load(std::memory_order_relaxed);
  c.repair_pairs_copied =
      repair_pairs_copied_.load(std::memory_order_relaxed);
  return c;
}

std::unique_ptr<rpc::RpcClient> MintCoordinator::AcquireClient(int node_id) {
  {
    MutexLock lock(&mu_);
    auto& pool = nodes_[node_id]->pool;
    if (!pool.empty()) {
      std::unique_ptr<rpc::RpcClient> client = std::move(pool.back());
      pool.pop_back();
      return client;
    }
  }
  const NodeEndpoint& endpoint = nodes_[node_id]->endpoint;
  return std::make_unique<rpc::RpcClient>(endpoint.host, endpoint.port,
                                          options_.rpc);
}

void MintCoordinator::ReleaseClient(int node_id,
                                    std::unique_ptr<rpc::RpcClient> client,
                                    bool reusable) {
  // A client whose transport failed is dropped, not pooled: its stream may
  // hold half a frame, and reconnecting is the next caller's job anyway.
  static constexpr size_t kMaxPooledPerNode = 8;
  if (!reusable) return;  // unique_ptr dtor closes the socket.
  MutexLock lock(&mu_);
  auto& pool = nodes_[node_id]->pool;
  if (pool.size() < kMaxPooledPerNode) pool.push_back(std::move(client));
}

void MintCoordinator::ReportNodeOutcome(int node_id, bool healthy) {
  MutexLock lock(&mu_);
  Node* node = nodes_[node_id].get();
  if (healthy) {
    node->misses = 0;
    node->health = NodeHealth::kUp;
    return;
  }
  ++node->misses;
  if (node->misses >= options_.down_after_misses) {
    node->health = NodeHealth::kDown;
  } else if (node->misses >= options_.suspect_after_misses) {
    node->health = NodeHealth::kSuspect;
  }
}

std::vector<int> MintCoordinator::ReadOrder(int group) const {
  struct Candidate {
    int health_rank;
    double p95;
    int id;
  };
  std::vector<Candidate> candidates;
  {
    MutexLock lock(&mu_);
    for (int id : groups_[group]) {
      const Node& node = *nodes_[id];
      Candidate c;
      c.health_rank = static_cast<int>(node.health);
      // No samples yet sorts ahead of a known-slow replica: a fresh node
      // deserves the benefit of the doubt (and quickly earns a real
      // estimate either way).
      c.p95 = node.latency_ms.Quantile(0.95, 1, /*fallback=*/0.0);
      c.id = id;
      candidates.push_back(c);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.health_rank != b.health_rank) {
                return a.health_rank < b.health_rank;
              }
              if (a.p95 != b.p95) return a.p95 < b.p95;
              return a.id < b.id;
            });
  std::vector<int> order;
  order.reserve(candidates.size());
  for (const Candidate& c : candidates) order.push_back(c.id);
  return order;
}

int MintCoordinator::JitteredBackoffMs() {
  MutexLock lock(&mu_);
  return kWriteBackoffMs - kWriteBackoffMs / 2 +
         static_cast<int>(backoff_rng_.Uniform(kWriteBackoffMs / 2 + 1));
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

Status MintCoordinator::Put(const Slice& key, uint64_t version,
                            const Slice& value, bool dedup,
                            WriteReport* report) {
  const std::vector<int> targets = ReplicasOf(key);
  if (targets.empty()) {
    return Status::InvalidArgument("key maps to no replicas");
  }
  const int quorum = static_cast<int>(targets.size()) / 2 + 1;

  int acks = 0;
  int attempts_total = 0;
  Status first_error;
  for (int id : targets) {
    if (health(id) == NodeHealth::kDown) {
      // Routed around; RepairNode re-replicates what it missed.
      ++replica_write_failures_;
      if (first_error.ok()) {
        first_error = Status::Unavailable("replica " + std::to_string(id) +
                                          " is down (routed around)");
      }
      continue;
    }
    Status s;
#if DIRECTLOAD_FAILPOINTS_COMPILED
    if (fp_coord_replica_write->armed()) {
      s = fp_coord_replica_write->MaybeFail();
    }
#endif
    if (s.ok()) {
      for (int attempt = 1; attempt <= kWriteAttempts; ++attempt) {
        if (attempt > 1) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(JitteredBackoffMs()));
        }
        std::unique_ptr<rpc::RpcClient> client = AcquireClient(id);
        s = client->Put(key, version, value, dedup);
        const bool transport_ok = !IsTransportError(s);
        ReleaseClient(id, std::move(client), transport_ok);
        ReportNodeOutcome(id, transport_ok);
        ++attempts_total;
        if (s.ok()) break;
        // Retry what waiting can fix: admission-control pushback and
        // transport failures. A definitive server answer is final.
        if (!s.IsBusy() && transport_ok) break;
        if (health(id) == NodeHealth::kDown) break;
      }
    }
    if (s.ok()) {
      ++acks;
    } else {
      ++replica_write_failures_;
      if (first_error.ok()) first_error = s;
    }
  }

  if (report != nullptr) {
    report->acks = acks;
    report->targets = static_cast<int>(targets.size());
    report->quorum = quorum;
    report->attempts = attempts_total;
  }
  if (acks >= quorum) {
    ++writes_acked_;
    return Status::OK();
  }
  ++write_quorum_failures_;
  std::string message = "write acked by " + std::to_string(acks) + " of " +
                        std::to_string(targets.size()) +
                        " replicas (quorum " + std::to_string(quorum) + ")";
  if (!first_error.ok()) {
    message += ": " + std::string(first_error.message());
  }
  return Status::Unavailable(message);
}

Status MintCoordinator::Del(const Slice& key, uint64_t version) {
  const int group = GroupOf(key);
  bool any = false;
  bool any_live = false;
  Status first_error;
  for (int id : groups_[group]) {
    if (health(id) == NodeHealth::kDown) continue;
    std::unique_ptr<rpc::RpcClient> client = AcquireClient(id);
    Status s = client->Del(key, version);
    const bool transport_ok = !IsTransportError(s);
    ReleaseClient(id, std::move(client), transport_ok);
    ReportNodeOutcome(id, transport_ok);
    if (transport_ok) any_live = true;
    if (s.ok()) {
      any = true;
    } else if (!s.IsNotFound() && transport_ok && first_error.ok()) {
      first_error = s;
    }
  }
  if (any) return Status::OK();
  if (!any_live) {
    return Status::Unavailable("group " + std::to_string(group) +
                               " is entirely unreachable; delete not applied");
  }
  if (!first_error.ok()) return first_error;
  return Status::NotFound("no replica held the pair");
}

// ---------------------------------------------------------------------------
// Hedged reads
// ---------------------------------------------------------------------------

Result<MintCoordinator::ReadResult> MintCoordinator::ReadInternal(
    const Slice& key, uint64_t version, bool latest) {
  const SteadyClock::time_point start = SteadyClock::now();
  const int group = GroupOf(key);
  const std::vector<int> order = ReadOrder(group);
  if (order.empty()) {
    return Status::Unavailable("group " + std::to_string(group) +
                               " has no nodes");
  }
  const double p95 = nodes_[order[0]]->latency_ms.Quantile(
      kHedgeQuantile, static_cast<size_t>(options_.hedge_min_samples),
      /*fallback=*/-1.0);
  const double hedge_ms =
      p95 < 0 ? options_.hedge_default_delay_ms : std::max(kHedgeFloorMs, p95);

  rpc::Frame request;
  request.op = rpc::Opcode::kGet;
  request.latest = latest;
  request.version = version;
  request.key = key.ToString();

  // One attempt on the wire, on a client no one else holds. A loser is
  // cancelled by dropping its client: the connection closes, so its late
  // answer can never reach a later request.
  struct Attempt {
    int node_id;
    std::unique_ptr<rpc::RpcClient> client;
    uint64_t request_id;
    bool hedge;
    SteadyClock::time_point sent;
  };
  std::vector<Attempt> attempts;
  size_t next = 0;
  bool hedged = false;
  Status answered;  // First error a replica answered with (e.g. NotFound).
  Status failure = Status::Unavailable("no read attempt made");

  // A transport failure is a detector miss; any other error is the
  // replica's answer.
  const auto fail = [&](int node_id, const Status& s) {
    if (IsTransportError(s)) {
      ReportNodeOutcome(node_id, false);
      failure = s;
    } else if (answered.ok()) {
      answered = s;
    }
  };
  // Sends the read to the next candidate. Once a replica has answered,
  // down nodes are skipped: only a live replica's answer is worth waiting
  // for. An attempt that fails before it is on the wire moves straight on
  // to the next candidate. False when the candidates are used up.
  enum class Launch { kPrimary, kHedge, kFailover };
  const auto send_next = [&](Launch why) {
    while (next < order.size()) {
      const int node_id = order[next++];
      if (!answered.ok() && health(node_id) == NodeHealth::kDown) continue;
      if (why == Launch::kHedge) {
        hedged = true;
        ++hedged_reads_;
      } else if (why == Launch::kFailover) {
        ++read_failovers_;
      }
      Status s;
#if DIRECTLOAD_FAILPOINTS_COMPILED
      if (fp_coord_read_attempt->armed()) {
        s = fp_coord_read_attempt->MaybeFail();
      }
#endif
      if (s.ok()) {
        std::unique_ptr<rpc::RpcClient> client = AcquireClient(node_id);
        request.request_id = client->NextRequestId();
        s = client->Send(request);
        if (s.ok()) {
          attempts.push_back(Attempt{node_id, std::move(client),
                                     request.request_id,
                                     why == Launch::kHedge,
                                     SteadyClock::now()});
          return true;
        }
      }
      fail(node_id, s);
      why = Launch::kFailover;
    }
    return false;
  };

  if (!send_next(Launch::kPrimary)) return answered.ok() ? failure : answered;
  const auto hedge_delay = std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double, std::milli>(hedge_ms));
  const auto request_timeout =
      std::chrono::milliseconds(options_.rpc.request_timeout_ms);

  while (!attempts.empty()) {
    // Attempts sit in send order, and until the hedge fires exactly one is
    // in flight: the primary, or the failover that replaced it.
    const bool can_hedge = !hedged && next < order.size();
    const SteadyClock::time_point sent = attempts.front().sent;
    const SteadyClock::time_point hedge_at = sent + hedge_delay;
    const SteadyClock::time_point expires = sent + request_timeout;
    std::vector<rpc::RpcClient*> clients;
    for (const Attempt& a : attempts) clients.push_back(a.client.get());
    size_t index;
    Result<rpc::Frame> got = rpc::RpcClient::ReceiveFirst(
        clients, can_hedge ? std::min(hedge_at, expires) : expires, &index);
    if (index == attempts.size()) {
      const SteadyClock::time_point now = SteadyClock::now();
      if (can_hedge && now >= hedge_at) {
        // The attempt went silent past the primary's p95: race a backup
        // against it.
        send_next(Launch::kHedge);
        continue;
      }
      if (now < expires) continue;
      index = 0;
      got = Status::TimedOut("request deadline expired");
    }
    Attempt attempt = std::move(attempts[index]);
    attempts.erase(attempts.begin() + static_cast<std::ptrdiff_t>(index));
    const bool clean = got.ok() && got->request_id == attempt.request_id;
    const Status status =
        !got.ok() ? got.status()
        : !clean  ? Status::Protocol("response to another request")
                  : rpc::StatusFromWire(got->status, got->value);
    ReleaseClient(attempt.node_id, std::move(attempt.client), clean);
    if (!IsTransportError(status)) ReportNodeOutcome(attempt.node_id, true);
    if (!status.ok()) {
      fail(attempt.node_id, status);
      send_next(Launch::kFailover);
      continue;
    }
    nodes_[attempt.node_id]->latency_ms.Record(ElapsedMs(attempt.sent));
    if (attempt.hedge) ++hedge_wins_;
    ReadResult result;
    result.value = std::move(got->value);
    result.served_by = attempt.node_id;
    result.hedged = hedged;
    result.latency_ms = ElapsedMs(start);
    return result;  // The losers' connections close with `attempts`.
  }
  // A replica's answer (NotFound, typically) outranks any transport error:
  // it is what the data says, and a down node has nothing to add.
  return answered.ok() ? failure : answered;
}

Result<MintCoordinator::ReadResult> MintCoordinator::Get(const Slice& key,
                                                         uint64_t version) {
  return ReadInternal(key, version, /*latest=*/false);
}

Result<MintCoordinator::ReadResult> MintCoordinator::GetLatest(
    const Slice& key) {
  return ReadInternal(key, 0, /*latest=*/true);
}

// ---------------------------------------------------------------------------
// Failure detector
// ---------------------------------------------------------------------------

void MintCoordinator::DetectorLoop() {
  while (true) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      {
        MutexLock lock(&mu_);
        if (stopping_) return;
      }
      Node* node = nodes_[i].get();
      Result<rpc::HeartbeatInfo> hb = node->probe->Heartbeat();
      const bool healthy = hb.ok() && hb->serving;
      if (!healthy) {
        heartbeat_misses_.fetch_add(1, std::memory_order_relaxed);
        // Drop the probe's connection so the next round dials fresh instead
        // of trusting a half-dead stream.
        node->probe->Close();
      }
      ReportNodeOutcome(static_cast<int>(i), healthy);
    }
    MutexLock lock(&mu_);
    if (stopping_) return;
    cv_.WaitFor(std::chrono::milliseconds(options_.heartbeat_interval_ms));
  }
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

Result<std::unordered_set<std::string>> MintCoordinator::InventoryNode(
    int node_id) {
  std::unordered_set<std::string> tokens;
  rpc::RepairScanRequest request;
  request.keys_only = true;
  request.max_pairs = options_.repair_page_pairs;
  std::unique_ptr<rpc::RpcClient> client = AcquireClient(node_id);
  Status failure;
  while (true) {
    Result<rpc::RepairPage> page = client->RepairScan(request);
    if (!page.ok()) {
      failure = page.status();
      break;
    }
    for (const rpc::RepairPair& pair : page->pairs) {
      tokens.insert(InventoryToken(pair.key, pair.version));
    }
    if (page->done) break;
    request.cursor = page->next;
  }
  ReleaseClient(node_id, std::move(client),
                failure.ok() || !IsTransportError(failure));
  if (!failure.ok()) return failure;
  return tokens;
}

Result<uint64_t> MintCoordinator::RepairNode(int node_id) {
  if (node_id < 0 || node_id >= num_nodes()) {
    return Status::InvalidArgument("no such node");
  }
  // The target must be serving before repair starts: everything below
  // writes into it.
  {
    std::unique_ptr<rpc::RpcClient> client = AcquireClient(node_id);
    Result<rpc::HeartbeatInfo> hb = client->Heartbeat();
    const bool serving = hb.ok() && hb->serving;
    ReleaseClient(node_id, std::move(client),
                  hb.ok() || !IsTransportError(hb.status()));
    if (!serving) {
      return Status::Unavailable("repair target is not serving");
    }
    ReportNodeOutcome(node_id, true);
  }

  Result<std::unordered_set<std::string>> inventory = InventoryNode(node_id);
  if (!inventory.ok()) return inventory.status();
  std::unordered_set<std::string> present = std::move(inventory).value();

  const int group = nodes_[node_id]->group;
  uint64_t copied = 0;
  Status first_error;
  for (int peer : groups_[group]) {
    if (peer == node_id) continue;
    if (health(peer) == NodeHealth::kDown) continue;

    rpc::RepairScanRequest request;
    request.max_pairs = options_.repair_page_pairs;
    std::unique_ptr<rpc::RpcClient> scan_client = AcquireClient(peer);
    bool scan_transport_ok = true;
    while (true) {
      Result<rpc::RepairPage> page = scan_client->RepairScan(request);
      if (!page.ok()) {
        if (first_error.ok()) first_error = page.status();
        scan_transport_ok = !IsTransportError(page.status());
        break;  // Next peer may still cover the missing pairs.
      }
      // Filter the page down to pairs the target owns but lacks.
      std::vector<rpc::BatchOp> ops;
      std::vector<std::string> op_tokens;
      for (rpc::RepairPair& pair : page->pairs) {
        const std::vector<int> owners = ReplicasOf(pair.key);
        if (std::find(owners.begin(), owners.end(), node_id) ==
            owners.end()) {
          continue;  // Not this node's responsibility.
        }
        std::string token = InventoryToken(pair.key, pair.version);
        if (present.count(token) != 0) continue;
        rpc::BatchOp op;
        op.version = pair.version;
        op.key = std::move(pair.key);
        op.value = std::move(pair.value);
        ops.push_back(std::move(op));
        op_tokens.push_back(std::move(token));
      }
      if (!ops.empty()) {
        std::unique_ptr<rpc::RpcClient> target_client =
            AcquireClient(node_id);
        std::vector<Status> statuses;
        Status s = target_client->WriteBatch(ops, &statuses);
        ReleaseClient(node_id, std::move(target_client),
                      !IsTransportError(s));
        if (statuses.size() == ops.size()) {
          for (size_t i = 0; i < statuses.size(); ++i) {
            if (statuses[i].ok()) {
              ++copied;
              present.insert(std::move(op_tokens[i]));
            }
          }
        }
        if (!s.ok() && first_error.ok()) first_error = s;
      }
      if (page->done) break;
      request.cursor = page->next;
    }
    ReleaseClient(peer, std::move(scan_client), scan_transport_ok);
  }
  repair_pairs_copied_.fetch_add(copied, std::memory_order_relaxed);
  if (copied == 0 && !first_error.ok()) return first_error;
  return copied;
}

Result<uint64_t> MintCoordinator::VerifyNodeComplete(int node_id) {
  if (node_id < 0 || node_id >= num_nodes()) {
    return Status::InvalidArgument("no such node");
  }
  Result<std::unordered_set<std::string>> inventory = InventoryNode(node_id);
  if (!inventory.ok()) return inventory.status();
  const std::unordered_set<std::string> present = std::move(inventory).value();

  std::unordered_set<std::string> missing;
  const int group = nodes_[node_id]->group;
  for (int peer : groups_[group]) {
    if (peer == node_id) continue;
    if (health(peer) == NodeHealth::kDown) continue;
    rpc::RepairScanRequest request;
    request.keys_only = true;
    request.max_pairs = options_.repair_page_pairs;
    std::unique_ptr<rpc::RpcClient> client = AcquireClient(peer);
    Status failure;
    while (true) {
      Result<rpc::RepairPage> page = client->RepairScan(request);
      if (!page.ok()) {
        failure = page.status();
        break;
      }
      for (const rpc::RepairPair& pair : page->pairs) {
        const std::vector<int> owners = ReplicasOf(pair.key);
        if (std::find(owners.begin(), owners.end(), node_id) ==
            owners.end()) {
          continue;
        }
        std::string token = InventoryToken(pair.key, pair.version);
        if (present.count(token) == 0) missing.insert(std::move(token));
      }
      if (page->done) break;
      request.cursor = page->next;
    }
    ReleaseClient(peer, std::move(client),
                  failure.ok() || !IsTransportError(failure));
    if (!failure.ok()) return failure;
  }
  return static_cast<uint64_t>(missing.size());
}

}  // namespace directload::mint
