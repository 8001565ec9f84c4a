#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/random.h"
#include "mint/cluster.h"

namespace directload::mint {
namespace {

MintOptions SmallCluster() {
  MintOptions o;
  o.num_groups = 2;
  o.nodes_per_group = 3;
  o.replicas = 3;
  o.node_geometry.page_size = 4096;
  o.node_geometry.pages_per_block = 8;
  o.node_geometry.num_blocks = 2048;  // 64 MiB per node.
  o.engine.aof.segment_bytes = 128 << 10;
  return o;
}

class MintTest : public ::testing::Test {
 protected:
  MintTest() : cluster_(SmallCluster()) {
    EXPECT_TRUE(cluster_.Start().ok());
  }
  MintCluster cluster_;
};

TEST_F(MintTest, DispatchIsByGroupAndDeterministic) {
  EXPECT_EQ(cluster_.GroupOf("some-key"), cluster_.GroupOf("some-key"));
  // Replicas live inside the key's group.
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    const int group = cluster_.GroupOf(key);
    const std::vector<int> replicas = cluster_.ReplicasOf(key);
    EXPECT_EQ(replicas.size(), 3u);
    std::set<int> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 3u);
    for (int id : replicas) {
      EXPECT_EQ(id / 3, group);  // 3 nodes per group, ids are contiguous.
    }
  }
}

TEST_F(MintTest, KeysSpreadAcrossGroups) {
  std::set<int> groups;
  for (int i = 0; i < 100; ++i) {
    groups.insert(cluster_.GroupOf("key" + std::to_string(i)));
  }
  EXPECT_EQ(groups.size(), 2u);
}

TEST_F(MintTest, PutReplicatesToAllReplicas) {
  ASSERT_TRUE(cluster_.Put("key", 1, "value").ok());
  for (int id : cluster_.ReplicasOf("key")) {
    Result<std::string> got = cluster_.node(id)->db()->Get("key", 1);
    ASSERT_TRUE(got.ok()) << "node " << id;
    EXPECT_EQ(*got, "value");
  }
}

TEST_F(MintTest, GetReturnsFastestReplica) {
  ASSERT_TRUE(cluster_.Put("key", 1, std::string(5000, 'v')).ok());
  Result<MintCluster::ReadResult> got = cluster_.Get("key", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, std::string(5000, 'v'));
  EXPECT_GT(got->latency_micros, 0.0);
  EXPECT_GE(got->served_by, 0);
}

// A large value is slow on every replica alike. Reads are parallel in
// simulated time, so the fastest of the slow replicas still serves it: no
// replica's latency, however far above the warm small-read history, turns
// an answer the cluster already has into a failure. (One group, so it uses
// its own cluster rather than the fixture's.)
TEST_F(MintTest, ReadServedWhenEveryReplicaIsSlow) {
  MintOptions options = SmallCluster();
  options.num_groups = 1;
  options.engine.aof.segment_bytes = 1 << 20;
  MintCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.Put("small", 1, "v").ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(cluster.Get("small", 1).ok()) << "warm read " << i;
  }
  const std::string large(256 << 10, 'L');
  ASSERT_TRUE(cluster.Put("large", 1, large).ok());

  Result<MintCluster::ReadResult> got = cluster.Get("large", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, large);
  EXPECT_GE(got->served_by, 0);
}

TEST_F(MintTest, GetLatestAndVersioning) {
  ASSERT_TRUE(cluster_.Put("key", 1, "v1").ok());
  ASSERT_TRUE(cluster_.Put("key", 2, "v2").ok());
  Result<MintCluster::ReadResult> got = cluster_.GetLatest("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v2");
  ASSERT_TRUE(cluster_.Del("key", 2).ok());
  got = cluster_.GetLatest("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v1");
}

TEST_F(MintTest, DedupPairsResolveAcrossVersions) {
  ASSERT_TRUE(cluster_.Put("key", 1, "stable-value").ok());
  ASSERT_TRUE(cluster_.Put("key", 2, Slice(), /*dedup=*/true).ok());
  Result<MintCluster::ReadResult> got = cluster_.Get("key", 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "stable-value");
}

TEST_F(MintTest, DropVersionPrunesEverywhere) {
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(cluster_.Put(key, 1, "old").ok());
    ASSERT_TRUE(cluster_.Put(key, 2, "new").ok());
  }
  ASSERT_TRUE(cluster_.DropVersion(1).ok());
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_TRUE(cluster_.Get(key, 1).status().IsNotFound()) << key;
    ASSERT_TRUE(cluster_.Get(key, 2).ok());
  }
}

TEST_F(MintTest, ReadsSurviveNodeFailure) {
  Random rnd(1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cluster_.Put("key" + std::to_string(i), 1, rnd.NextString(500)).ok());
  }
  // Kill one node; every key still answers from the surviving replicas.
  ASSERT_TRUE(cluster_.FailNode(0).ok());
  int served_by_failed = 0;
  for (int i = 0; i < 50; ++i) {
    Result<MintCluster::ReadResult> got =
        cluster_.Get("key" + std::to_string(i), 1);
    ASSERT_TRUE(got.ok()) << i;
    if (got->served_by == 0) ++served_by_failed;
  }
  EXPECT_EQ(served_by_failed, 0);
}

TEST_F(MintTest, RecoveryRestoresNodeAndReportsTime) {
  Random rnd(2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        cluster_.Put("key" + std::to_string(i), 1, rnd.NextString(2000)).ok());
  }
  ASSERT_TRUE(cluster_.FailNode(1).ok());
  Result<double> recovery_seconds = cluster_.RecoverNode(1);
  ASSERT_TRUE(recovery_seconds.ok()) << recovery_seconds.status().ToString();
  // Recovery scans the AOFs: it takes real (simulated) time.
  EXPECT_GT(*recovery_seconds, 0.0);
  EXPECT_TRUE(cluster_.node(1)->up());
  // The recovered node serves its share of reads again.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster_.Get("key" + std::to_string(i), 1).ok());
  }
}

TEST_F(MintTest, WritesSkipDownNodesAndClusterStaysAvailable) {
  ASSERT_TRUE(cluster_.FailNode(0).ok());
  ASSERT_TRUE(cluster_.FailNode(3).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster_.Put("key" + std::to_string(i), 1, "v").ok());
    ASSERT_TRUE(cluster_.Get("key" + std::to_string(i), 1).ok());
  }
}

// The replica-aggregated write statuses, pinned for Put, Del and
// WriteMany alike: one replica down still acknowledges, the key's whole
// group down is kUnavailable (never kNotFound), and a Del of a pair no live
// replica holds is kNotFound.
TEST_F(MintTest, WriteStatusesWhenReplicasAreDown) {
  const std::string key = "status-key";
  const std::vector<int> group = [&] {
    std::vector<int> ids = cluster_.ReplicasOf(key);  // 3 of 3: the group.
    std::sort(ids.begin(), ids.end());
    return ids;
  }();
  auto put_op = [&](uint64_t version) {
    rpc::BatchOp op;
    op.key = key;
    op.version = version;
    op.value = "v" + std::to_string(version);
    return op;
  };
  auto del_op = [&](uint64_t version) {
    rpc::BatchOp op;
    op.is_del = true;
    op.key = key;
    op.version = version;
    return op;
  };
  std::vector<Status> statuses;

  // All replicas up: a Del of a missing pair is NotFound.
  EXPECT_TRUE(cluster_.Del(key, 99).IsNotFound());
  EXPECT_TRUE(cluster_.WriteMany({del_op(99)}, &statuses).IsNotFound());
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].IsNotFound());

  // One replica down: writes still land on the others.
  ASSERT_TRUE(cluster_.FailNode(group[0]).ok());
  EXPECT_TRUE(cluster_.Put(key, 1, "v1").ok());
  EXPECT_TRUE(cluster_.Put(key, 2, "v2").ok());
  EXPECT_TRUE(cluster_.Del(key, 1).ok());
  EXPECT_TRUE(
      cluster_.WriteMany({put_op(3), del_op(2), del_op(98)}, &statuses)
          .IsNotFound());
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_TRUE(statuses[2].IsNotFound()) << statuses[2].ToString();
  Result<MintCluster::ReadResult> read = cluster_.Get(key, 3);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->value, "v3");

  // The whole group down: Unavailable for puts and deletes alike.
  ASSERT_TRUE(cluster_.FailNode(group[1]).ok());
  ASSERT_TRUE(cluster_.FailNode(group[2]).ok());
  EXPECT_TRUE(cluster_.Put(key, 4, "v4").IsUnavailable());
  EXPECT_TRUE(cluster_.Del(key, 3).IsUnavailable());
  EXPECT_TRUE(cluster_.Del(key, 99).IsUnavailable());
  EXPECT_TRUE(
      cluster_.WriteMany({put_op(4), del_op(3)}, &statuses).IsUnavailable());
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].IsUnavailable()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].IsUnavailable()) << statuses[1].ToString();

  // Back up: the surviving pair deletes, a missing one is NotFound again.
  for (int id : group) ASSERT_TRUE(cluster_.RecoverNode(id).ok());
  EXPECT_TRUE(cluster_.Del(key, 3).ok());
  EXPECT_TRUE(cluster_.Del(key, 97).IsNotFound());
}

TEST_F(MintTest, AddNodeWithoutRedistribution) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster_.Put("key" + std::to_string(i), 1, "before").ok());
  }
  Result<int> new_node = cluster_.AddNode(0);
  ASSERT_TRUE(new_node.ok());
  EXPECT_EQ(cluster_.num_nodes(), 7);
  // Nothing moved: the new node holds no data.
  EXPECT_EQ(cluster_.node(*new_node)->db()->memtable().live_count(), 0u);
  // All previously stored pairs remain readable (reads query the group).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster_.Get("key" + std::to_string(i), 1).ok()) << i;
  }
  // New writes may now land on the new node.
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(cluster_.Put("key" + std::to_string(i), 2, "after").ok());
  }
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(cluster_.Get("key" + std::to_string(i), 2).ok());
  }
}

TEST_F(MintTest, ReplicationTriplesIngestedBytes) {
  const std::string value(1000, 'v');
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster_.Put("key" + std::to_string(i), 1, value).ok());
  }
  const uint64_t user_bytes = 30 * (4 + std::to_string(0).size() + 1000);
  // Roughly 3x the single-copy volume (key sizes vary slightly).
  EXPECT_NEAR(static_cast<double>(cluster_.TotalUserBytesIngested()),
              3.0 * static_cast<double>(user_bytes), 0.1 * 3 * user_bytes);
}

}  // namespace
}  // namespace directload::mint
