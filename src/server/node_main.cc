// dmint_node: one distributed-Mint storage node as its own process — a
// KvServer over a single-node MintCluster (1 group x 1 node, replication
// factor 1; the *coordinator* replicates across node processes, each node
// stores exactly what it is sent). The multi-process cluster harnesses
// (tests/dmint_test.cc, bench/server_loadgen --cluster) fork a fleet of
// these and drive them over DLP1.
//
//   dmint_node [--port N] [--shards S]
//
// Binds --port (0 = kernel-assigned) and prints one machine-readable ready
// line on stdout once serving:
//
//   dmint_node: ready port=<port> pid=<pid>
//
// The parent reads that line to learn the ephemeral port. SIGTERM (or
// SIGINT) drains gracefully — every acknowledged write is applied before
// exit. SIGKILL is the crash arm: the node's simulated SSD lives in process
// memory, so a killed node restarts empty and must be healed by the
// coordinator's RepairNode.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/status.h"
#include "mint/cluster.h"
#include "server/kv_server.h"

using namespace directload;

namespace {

std::sig_atomic_t volatile g_stop = 0;

// The server's worker pool lands bulk slices only, and a storage node
// never receives any: its coordinator sends point writes, batches and
// repair scans, which all run on the connection's reader thread.
constexpr int kNodeWorkers = 1;

void HandleStop(int /*signum*/) { g_stop = 1; }

struct NodeConfig {
  uint16_t port = 0;
  int shards = 1;
};

bool ParseArgs(int argc, char** argv, NodeConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return true;
    };
    if (arg == "--port") {
      int port = 0;
      if (!next_int(&port) || port < 0 || port > 65535) return false;
      config->port = static_cast<uint16_t>(port);
    } else if (arg == "--shards") {
      if (!next_int(&config->shards)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return config->shards >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  NodeConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: dmint_node [--port N] [--shards S]\n");
    return 1;
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStop;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // A coordinator or loadgen parent that dies mid-run closes our stdout
  // pipe; ignore SIGPIPE so the node keeps serving its other clients.
  signal(SIGPIPE, SIG_IGN);

  mint::MintOptions mint_options;
  mint_options.num_groups = 1;
  mint_options.nodes_per_group = 1;
  mint_options.replicas = 1;
  mint_options.engine.aof.segment_bytes = 8 << 20;
  mint_options.engine.num_shards = static_cast<uint32_t>(config.shards);
  mint::MintCluster cluster(mint_options);
  if (Status s = cluster.Start(); !s.ok()) {
    std::fprintf(stderr, "dmint_node: cluster start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  server::KvServerOptions server_options;
  server_options.port = config.port;
  server_options.num_workers = kNodeWorkers;
  server::KvServer server(&cluster, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "dmint_node: server start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  // The handshake line the parent process blocks on.
  std::printf("dmint_node: ready port=%u pid=%d\n", server.port(),
              static_cast<int>(getpid()));
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.Shutdown();
  return 0;
}
