// End-to-end serving tests over real localhost sockets: a KvServer hosting
// a small mint::MintCluster, driven by RpcClients on real threads. Covers
// the full request surface, pipelining and its ordering, concurrent
// clients, a client dying mid-frame, admission control, the
// protocol-corruption matrix at the
// socket level, graceful protocol-error teardown, idle timeouts, and the
// graceful-drain guarantee: every acknowledged PUT is readable after the
// server is restarted on the same cluster.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bifrost/wire/slice_codec.h"
#include "common/coding.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/socket.h"
#include "server/kv_server.h"

namespace directload::server {
namespace {

mint::MintOptions SmallClusterOptions() {
  mint::MintOptions options;
  // A compact topology keeps each test fast: two groups of one node each,
  // no replication fan-out (the serving layer supplies the real-thread
  // concurrency here).
  options.num_groups = 2;
  options.nodes_per_group = 1;
  options.replicas = 1;
  options.engine.aof.segment_bytes = 4 << 20;
  return options;
}

class ServerSmokeTest : public ::testing::Test {
 protected:
  void StartCluster() {
    cluster_ = std::make_unique<mint::MintCluster>(SmallClusterOptions());
    ASSERT_TRUE(cluster_->Start().ok());
  }

  void StartServer(KvServerOptions options = KvServerOptions()) {
    server_ = std::make_unique<KvServer>(cluster_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  rpc::RpcClient MakeClient() {
    return rpc::RpcClient("127.0.0.1", server_->port());
  }

  std::unique_ptr<mint::MintCluster> cluster_;
  std::unique_ptr<KvServer> server_;
};

TEST_F(ServerSmokeTest, FullRequestSurface) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();

  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Put("url:a", 1, "hello").ok());
  EXPECT_TRUE(client.Put("url:a", 2, "world").ok());

  Result<std::string> got = client.Get("url:a", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "hello");

  got = client.GetLatest("url:a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "world");

  // Deduplicated put: the value is resolved by traceback to version 2.
  EXPECT_TRUE(client.Put("url:a", 3, "", /*dedup=*/true).ok());
  got = client.Get("url:a", 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "world");

  EXPECT_TRUE(client.Del("url:a", 1).ok());
  EXPECT_TRUE(client.Get("url:a", 1).status().IsNotFound());
  EXPECT_TRUE(client.Get("url:missing", 1).status().IsNotFound());

  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("server:"), std::string::npos);
  EXPECT_NE(stats->find("cluster:"), std::string::npos);

  server_->Shutdown();
  EXPECT_GE(server_->counters().requests_served.load(), 9u);
}

TEST_F(ServerSmokeTest, WriteBatchRoundTripWithPerOpStatuses) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();

  std::vector<rpc::BatchOp> ops(4);
  ops[0].key = "wb:a";
  ops[0].version = 1;
  ops[0].value = "alpha";
  ops[1].key = "wb:b";
  ops[1].version = 1;
  ops[1].value = "beta";
  ops[2].key = "wb:a";
  ops[2].version = 2;
  ops[2].dedup = true;  // Resolves through version 1 by traceback.
  ops[3].key = "wb:missing";
  ops[3].version = 1;
  ops[3].is_del = true;  // Fails alone: nothing to delete.

  std::vector<Status> statuses;
  Status overall = client.WriteBatch(ops, &statuses);
  EXPECT_TRUE(overall.IsNotFound()) << overall.ToString();
  ASSERT_EQ(statuses.size(), ops.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_TRUE(statuses[3].IsNotFound());

  Result<std::string> got = client.Get("wb:a", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "alpha");
  got = client.Get("wb:b", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "beta");
  got = client.Get("wb:a", 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "alpha");

  // A malformed batch payload is rejected at the frame level, before any
  // op executes.
  ASSERT_TRUE(client.Connect().ok());
  rpc::Frame raw;
  raw.op = rpc::Opcode::kWriteBatch;
  raw.request_id = client.NextRequestId();
  raw.value = "not a batch payload";
  ASSERT_TRUE(client.Send(raw).ok());
  Result<rpc::Frame> response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, StatusCode::kProtocol);

  // An empty batch is answered client-side without a round trip.
  std::vector<Status> empty_statuses;
  EXPECT_TRUE(client.WriteBatch({}, &empty_statuses).ok());
  EXPECT_TRUE(empty_statuses.empty());
}

TEST_F(ServerSmokeTest, SingleOpWritesAreBatchedOpportunistically) {
  StartCluster();
  // Pipelined single-op PUTs that one recv delivers together are decoded
  // in one pass, and the reader runs them as one cluster batch.
  KvServerOptions options;
  options.max_write_batch = 16;
  StartServer(options);
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  // Each burst usually reaches the reader as a few large reads, but the
  // scheduler could in principle let it read every frame on its own — so
  // repeat bursts until the counter proves a pass actually grouped
  // (converges immediately in practice).
  constexpr int kDepth = 16;
  int sent = 0;
  int bursts = 0;
  for (; bursts < 50 && server_->counters().writes_batched.load() == 0;
       ++bursts) {
    for (int i = 0; i < kDepth; ++i, ++sent) {
      rpc::Frame request;
      request.op = rpc::Opcode::kPut;
      request.request_id = client.NextRequestId();
      request.version = 1;
      request.key = "ob:k" + std::to_string(sent);
      request.value = "v" + std::to_string(sent);
      ASSERT_TRUE(client.Send(request).ok());
    }
    for (int i = 0; i < kDepth; ++i) {
      Result<rpc::Frame> response = client.Receive();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->status, StatusCode::kOk);
    }
  }
  EXPECT_GT(server_->counters().writes_batched.load(), 0u)
      << "no burst ever grouped after " << bursts << " tries";

  // Every write is individually readable regardless of how it was grouped.
  for (int i = 0; i < sent; ++i) {
    Result<std::string> got = client.Get("ob:k" + std::to_string(i), 1);
    ASSERT_TRUE(got.ok()) << "ob:k" << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

TEST_F(ServerSmokeTest, ConcurrentClients) {
  StartCluster();
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rpc::RpcClient client("127.0.0.1", server_->port());
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + ":k" + std::to_string(i);
        const std::string value = "v" + std::to_string(t * 1000 + i);
        if (!client.Put(key, 1, value).ok()) {
          failures.fetch_add(1);
          continue;
        }
        Result<std::string> got = client.Get(key, 1);
        if (!got.ok() || *got != value) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server_->Shutdown();
  EXPECT_EQ(server_->counters().requests_served.load(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread * 2);
}

TEST_F(ServerSmokeTest, PipelinedRequestsMatchByRequestId) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  constexpr int kDepth = 16;
  std::map<uint64_t, std::string> expected_value;  // id -> key
  for (int i = 0; i < kDepth; ++i) {
    rpc::Frame request;
    request.op = rpc::Opcode::kPut;
    request.request_id = client.NextRequestId();
    request.version = 1;
    request.key = "pipe:k" + std::to_string(i);
    request.value = "pv" + std::to_string(i);
    expected_value[request.request_id] = request.value;
    ASSERT_TRUE(client.Send(request).ok());
  }
  // All kDepth responses arrive, each naming its request.
  std::map<uint64_t, StatusCode> results;
  for (int i = 0; i < kDepth; ++i) {
    Result<rpc::Frame> response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    results[response->request_id] = response->status;
  }
  ASSERT_EQ(results.size(), expected_value.size());
  for (const auto& [id, status] : results) {
    EXPECT_TRUE(expected_value.count(id)) << "unknown response id " << id;
    EXPECT_EQ(status, StatusCode::kOk);
  }
  // The writes really happened.
  for (int i = 0; i < kDepth; ++i) {
    Result<std::string> got = client.Get("pipe:k" + std::to_string(i), 1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "pv" + std::to_string(i));
  }
}

TEST_F(ServerSmokeTest, PipelinedPutThenGetSeesThePut) {
  StartCluster();
  StartServer();

  // Put(k, v_i) at version i+1 then GetLatest(k), N times, written in one
  // send before any response is read: point requests on one connection run
  // in arrival order, so each GET sees the PUT just ahead of it and every
  // response comes back in request order.
  constexpr int kPairs = 64;
  std::string wire;
  for (int i = 0; i < kPairs; ++i) {
    rpc::Frame put;
    put.op = rpc::Opcode::kPut;
    put.request_id = 2 * i + 1;
    put.version = static_cast<uint64_t>(i) + 1;
    put.key = "order:k";
    put.value = "ov" + std::to_string(i);
    rpc::EncodeFrame(put, &wire);

    rpc::Frame get;
    get.op = rpc::Opcode::kGet;
    get.request_id = 2 * i + 2;
    get.latest = true;
    get.key = "order:k";
    rpc::EncodeFrame(get, &wire);
  }
  Result<rpc::Socket> raw = rpc::ConnectTo("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SendAll(wire, 1000).ok());

  rpc::FrameDecoder decoder;
  char buf[4096];
  for (uint64_t id = 1; id <= 2 * kPairs; ++id) {
    rpc::Frame response;
    Result<bool> next = decoder.Next(&response);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    while (!*next) {
      Result<size_t> n = raw->RecvSome(buf, sizeof(buf), 5000);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_GT(*n, 0u) << "server closed the connection";
      decoder.Append(buf, *n);
      next = decoder.Next(&response);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
    }
    const int pair = static_cast<int>((id - 1) / 2);
    ASSERT_EQ(response.request_id, id) << "response out of request order";
    ASSERT_EQ(response.status, StatusCode::kOk) << "request " << id;
    if (id % 2 == 0) {
      EXPECT_EQ(response.value, "ov" + std::to_string(pair))
          << "GET " << pair << " did not see the PUT sent before it";
    }
  }
}

TEST_F(ServerSmokeTest, PointRequestBurstIsServedNotQueued) {
  StartCluster();
  KvServerOptions options;
  options.num_workers = 1;
  options.max_queued_requests = 2;  // Bounds the slice queue only.
  StartServer(options);
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  // Point requests run on the connection's reader and never queue, so a
  // burst far past the queue bound is served whole.
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    rpc::Frame request;
    request.op = rpc::Opcode::kPut;
    request.request_id = client.NextRequestId();
    request.version = 1;
    request.key = "burst:k" + std::to_string(i);
    request.value = "bv" + std::to_string(i);
    ASSERT_TRUE(client.Send(request).ok());
  }
  for (int i = 0; i < kBurst; ++i) {
    Result<rpc::Frame> response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, StatusCode::kOk);
  }
  for (int i = 0; i < kBurst; ++i) {
    Result<std::string> got = client.Get("burst:k" + std::to_string(i), 1);
    ASSERT_TRUE(got.ok()) << "burst:k" << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "bv" + std::to_string(i));
  }
  server_->Shutdown();
  EXPECT_EQ(server_->counters().requests_rejected_busy.load(), 0u);
}

TEST_F(ServerSmokeTest, AdmissionControlAnswersBusyNotQueueGrowth) {
  StartCluster();
  KvServerOptions options;
  options.num_workers = 1;
  options.max_queued_requests = 2;  // Tiny bound to force rejections.
  StartServer(options);
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  // Bulk slices are what queues for the worker pool: open a session, then
  // pipeline bursts of slices at the one worker.
  constexpr uint64_t kVersion = 2;
  rpc::Frame begin;
  begin.op = rpc::Opcode::kBulkBegin;
  begin.request_id = client.NextRequestId();
  begin.version = kVersion;
  bifrost::wire::BulkBeginInfo info;
  info.version = kVersion;
  bifrost::wire::EncodeBulkBegin(info, &begin.value);
  ASSERT_TRUE(client.Send(begin).ok());
  Result<rpc::Frame> began = client.Receive();
  ASSERT_TRUE(began.ok()) << began.status().ToString();
  ASSERT_EQ(began->status, StatusCode::kOk);

  // A burst usually overruns the queue at once, but the scheduler could in
  // principle let the worker keep pace — so repeat bursts until one is
  // rejected.
  constexpr int kBurst = 64;
  constexpr int kPairsPerSlice = 16;
  uint64_t slice_id = 0;
  int ok = 0, busy = 0;
  for (int burst = 0; burst < 20 && busy == 0; ++burst) {
    for (int i = 0; i < kBurst; ++i, ++slice_id) {
      std::string payload;
      for (int p = 0; p < kPairsPerSlice; ++p) {
        bifrost::wire::AppendWirePair(
            &payload,
            "busy:s" + std::to_string(slice_id) + ":" + std::to_string(p),
            kVersion, std::string(64, 'v'), /*dedup=*/false,
            /*tombstone=*/false);
      }
      bifrost::wire::SliceHeader header;
      header.slice_id = slice_id;
      header.version = kVersion;
      header.pair_count = kPairsPerSlice;
      rpc::Frame slice;
      slice.op = rpc::Opcode::kBulkSlice;
      slice.request_id = client.NextRequestId();
      slice.version = kVersion;
      bifrost::wire::EncodeSlicePacket(header, payload, &slice.value);
      ASSERT_TRUE(client.Send(slice).ok());
    }
    for (int i = 0; i < kBurst; ++i) {
      Result<rpc::Frame> response = client.Receive();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      if (response->status == StatusCode::kOk) {
        ++ok;
      } else {
        // The only legal rejection is kBusy — admission control, not drops.
        ASSERT_EQ(response->status, StatusCode::kBusy);
        ++busy;
      }
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(busy, 0) << "no burst of " << kBurst << " slices overran a "
                     << options.max_queued_requests << "-slot queue";
  server_->Shutdown();
  EXPECT_EQ(server_->counters().requests_rejected_busy.load(),
            static_cast<uint64_t>(busy));
}

TEST_F(ServerSmokeTest, SurvivesClientsDyingMidFrame) {
  StartCluster();
  StartServer();
  {
    // A client that connects, sends half a valid frame, and vanishes.
    Result<rpc::Socket> half = rpc::ConnectTo("127.0.0.1", server_->port(),
                                              1000);
    ASSERT_TRUE(half.ok());
    rpc::Frame request;
    request.op = rpc::Opcode::kPut;
    request.key = "doomed";
    request.value = std::string(1000, 'x');
    std::string wire;
    rpc::EncodeFrame(request, &wire);
    ASSERT_TRUE(
        half->SendAll(Slice(wire.data(), wire.size() / 2), 1000).ok());
  }  // Socket closes here, mid-frame.
  {
    // A client that sends pure garbage.
    Result<rpc::Socket> garbage = rpc::ConnectTo("127.0.0.1",
                                                 server_->port(), 1000);
    ASSERT_TRUE(garbage.ok());
    ASSERT_TRUE(garbage->SendAll("complete nonsense bytes", 1000).ok());
  }
  // The server keeps serving everyone else.
  rpc::RpcClient client = MakeClient();
  EXPECT_TRUE(client.Put("alive", 1, "yes").ok());
  Result<std::string> got = client.Get("alive", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "yes");
}

TEST_F(ServerSmokeTest, CorruptFramesGetErrorResponseAndTeardown) {
  StartCluster();
  StartServer();

  struct Case {
    const char* name;
    StatusCode expected;
    std::string (*damage)(std::string wire);
  };
  const Case cases[] = {
      {"bad magic", StatusCode::kProtocol,
       [](std::string wire) {
         wire[0] = 'X';
         return wire;
       }},
      {"flipped payload byte", StatusCode::kCorruption,
       [](std::string wire) {
         wire[wire.size() / 2] ^= 0x5A;
         return wire;
       }},
      {"oversized length", StatusCode::kProtocol,
       [](std::string wire) {
         EncodeFixed32(&wire[4],
                       static_cast<uint32_t>(rpc::kMaxBodyBytes) + 1);
         return wire;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Result<rpc::Socket> raw =
        rpc::ConnectTo("127.0.0.1", server_->port(), 1000);
    ASSERT_TRUE(raw.ok());
    rpc::Frame request;
    request.op = rpc::Opcode::kPut;
    request.request_id = 7;
    request.version = 1;
    request.key = "corrupt";
    request.value = "never-applied";
    std::string wire;
    rpc::EncodeFrame(request, &wire);
    ASSERT_TRUE(raw->SendAll(c.damage(wire), 1000).ok());

    // The server answers with an error frame naming the cause, then closes.
    rpc::FrameDecoder decoder;
    rpc::Frame response;
    bool got_response = false, closed = false;
    char buf[4096];
    for (int spins = 0; spins < 100 && !closed; ++spins) {
      Result<size_t> n = raw->RecvSome(buf, sizeof(buf), 100);
      if (!n.ok()) {
        if (n.status().IsTimedOut()) continue;
        closed = true;
        break;
      }
      if (*n == 0) {
        closed = true;
        break;
      }
      decoder.Append(buf, *n);
      Result<bool> next = decoder.Next(&response);
      ASSERT_TRUE(next.ok());
      if (*next) got_response = true;
    }
    ASSERT_TRUE(got_response) << "no error frame before teardown";
    EXPECT_TRUE(closed) << "connection not torn down";
    EXPECT_TRUE(response.response);
    EXPECT_EQ(response.status, c.expected);
    // The damaged PUT was never applied.
    rpc::RpcClient client = MakeClient();
    EXPECT_TRUE(client.Get("corrupt", 1).status().IsNotFound());
  }
  EXPECT_GE(server_->counters().stream_errors.load(), 3u);
}

// A protocol-error teardown is graceful even while the client is still
// streaming: the server sends its error frame, half-closes, and drains the
// rest of the input before closing, so the client's send completes and it
// reads the error frame followed by a clean EOF. Closing with unread input
// instead makes the kernel answer with a reset. A tiny client receive
// buffer and 100 rounds make a lost race show up.
TEST_F(ServerSmokeTest, ProtocolErrorTeardownEndsInEofNeverAReset) {
  StartCluster();
  StartServer();

  // A header declaring a body over the bound, followed by a tail the server
  // never decodes: it is still in flight when the server rejects the stream.
  rpc::Frame request;
  request.op = rpc::Opcode::kPut;
  request.request_id = 9;
  request.version = 1;
  request.key = "oversized";
  request.value.assign(256 << 10, 'x');
  std::string wire;
  rpc::EncodeFrame(request, &wire);
  EncodeFixed32(&wire[4], static_cast<uint32_t>(rpc::kMaxBodyBytes) + 1);

  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE(round);
    Result<rpc::Socket> raw =
        rpc::ConnectTo("127.0.0.1", server_->port(), 1000);
    ASSERT_TRUE(raw.ok());
    int tiny = 1;  // The kernel floor-clamps this to a few KiB.
    ASSERT_EQ(::setsockopt(raw->fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
                           sizeof(tiny)),
              0);
    Status sent = raw->SendAll(wire, 5000);
    ASSERT_TRUE(sent.ok()) << sent.ToString();

    rpc::FrameDecoder decoder;
    rpc::Frame response;
    bool got_response = false, eof = false;
    char buf[4096];
    for (int spins = 0; spins < 100 && !eof; ++spins) {
      Result<size_t> n = raw->RecvSome(buf, sizeof(buf), 100);
      if (!n.ok()) {
        ASSERT_TRUE(n.status().IsTimedOut())
            << "teardown reset the connection: " << n.status().ToString();
        continue;
      }
      if (*n == 0) {
        eof = true;
        break;
      }
      decoder.Append(buf, *n);
      Result<bool> next = decoder.Next(&response);
      ASSERT_TRUE(next.ok());
      if (*next) got_response = true;
    }
    ASSERT_TRUE(got_response) << "no error frame before EOF";
    ASSERT_TRUE(eof) << "connection not torn down";
    EXPECT_EQ(response.status, StatusCode::kProtocol);
  }
}

TEST_F(ServerSmokeTest, IdleConnectionsAreClosed) {
  StartCluster();
  KvServerOptions options;
  options.idle_timeout_ms = 150;
  StartServer(options);

  Result<rpc::Socket> idle = rpc::ConnectTo("127.0.0.1", server_->port(),
                                            1000);
  ASSERT_TRUE(idle.ok());
  // The server closes the connection once the idle window lapses; the read
  // observes EOF (or a reset, depending on timing).
  char buf[64];
  bool closed = false;
  for (int spins = 0; spins < 100 && !closed; ++spins) {
    Result<size_t> n = idle->RecvSome(buf, sizeof(buf), 100);
    if (n.ok() && *n == 0) closed = true;
    if (!n.ok() && !n.status().IsTimedOut()) closed = true;
  }
  EXPECT_TRUE(closed);
  server_->Shutdown();
  EXPECT_GE(server_->counters().connections_idle_closed.load(), 1u);
}

TEST_F(ServerSmokeTest, PerConnectionThrottlingStillServes) {
  StartCluster();
  KvServerOptions options;
  options.conn_bytes_per_sec = 64 * 1024;
  options.conn_burst_bytes = 4 * 1024;
  StartServer(options);
  rpc::RpcClient client = MakeClient();
  for (int i = 0; i < 5; ++i) {
    const std::string key = "throttle:k" + std::to_string(i);
    ASSERT_TRUE(client.Put(key, 1, std::string(512, 'p')).ok());
    Result<std::string> got = client.Get(key, 1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 512u);
  }
}

TEST_F(ServerSmokeTest, GracefulDrainLosesNoAcknowledgedWrite) {
  StartCluster();
  StartServer();

  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::pair<std::string, std::string>>> acked(
      kWriters);

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      rpc::RpcClient::Options client_options;
      client_options.max_reconnects = 0;  // A drained server stays down.
      rpc::RpcClient client("127.0.0.1", server_->port(), client_options);
      for (int i = 0; !stop.load(); ++i) {
        const std::string key =
            "drain:t" + std::to_string(t) + ":k" + std::to_string(i);
        const std::string value = "dv" + std::to_string(i);
        if (client.Put(key, 1, value).ok()) {
          // Acknowledged: the drain contract says this write is durable in
          // the cluster no matter when the shutdown lands.
          acked[t].emplace_back(key, value);
        }
      }
    });
  }
  // Let the writers get going, then drain mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server_->Shutdown();
  stop.store(true);
  for (std::thread& t : writers) t.join();

  size_t total_acked = 0;
  for (const auto& per_thread : acked) total_acked += per_thread.size();
  ASSERT_GT(total_acked, 0u) << "no write was acknowledged before the drain";

  // Restart serving on the SAME cluster: every acknowledged put must be
  // there.
  server_ = std::make_unique<KvServer>(cluster_.get(), KvServerOptions());
  ASSERT_TRUE(server_->Start().ok());
  rpc::RpcClient reader = MakeClient();
  for (const auto& per_thread : acked) {
    for (const auto& [key, value] : per_thread) {
      Result<std::string> got = reader.Get(key, 1);
      ASSERT_TRUE(got.ok()) << "acknowledged write lost: " << key << " ("
                            << got.status().ToString() << ")";
      EXPECT_EQ(*got, value);
    }
  }
}

TEST_F(ServerSmokeTest, ServerRestartsOnSamePort) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Put("restart:a", 1, "before").ok());
  const uint16_t port = server_->port();
  server_->Shutdown();

  KvServerOptions options;
  options.port = port;
  server_ = std::make_unique<KvServer>(cluster_.get(), options);
  ASSERT_TRUE(server_->Start().ok());
  EXPECT_EQ(server_->port(), port);
  // The client's bounded reconnect picks the new server up transparently.
  Result<std::string> got = client.Get("restart:a", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "before");
}

}  // namespace
}  // namespace directload::server
