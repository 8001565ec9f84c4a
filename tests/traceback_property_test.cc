// Model-based oracle for the QinDB engine. An in-memory model of versioned
// KV with dedup traceback is driven through the same random op history as
// the engine, and every read the engine answers is checked against it.
//
// The `legacy` arm is the original traceback property: random chains of
// value/NULL versions interleaved with DELs, whole-version drops, and forced
// GC at one shard. The other arms cross the shard count, the block cache,
// and lazy version indexes, and add multi-op WriteBatches (with per-op
// statuses and drop counts), GetLatest, bulk-ingest sessions (runs with
// tombstones, then commit or abort), and crashes at op boundaries followed
// by recovery. Invariants: Get/GetLatest return exactly what the model's
// traceback says, staged pairs stay invisible until commit, an aborted or
// crash-cut session leaves no trace, GC never reclaims a record a live
// dedup version still resolves through, VersionCounts matches the model,
// and the final state scrubs clean. A failure names the arm, the seed, the
// op index and the op, so it replays.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"
#include "qindb/qindb.h"
#include "ssd/env.h"

namespace directload::qindb {
namespace {

constexpr int kSeeds = 10;
constexpr int kOpsPerSeed = 400;
constexpr int kKeys = 12;
constexpr size_t kValueBytes = 300;
constexpr uint64_t kSegmentBytes = 4 << 10;  // Small: frequent GC victims.

ssd::Geometry PropertyGeometry() {
  ssd::Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 2048;  // 64 MiB device.
  return g;
}

std::string KeyOf(int slot) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "doc%02d", slot);
  return std::string(buf);
}

struct ModelVersion {
  std::string value;
  bool dedup = false;
  bool deleted = false;
};
using VersionMap = std::map<uint64_t, ModelVersion>;
using Model = std::map<std::string, VersionMap>;

const std::string* ExpectedValue(const Model& model, const std::string& key,
                                 uint64_t version, bool* found) {
  *found = false;
  auto kit = model.find(key);
  if (kit == model.end()) return nullptr;
  auto vit = kit->second.find(version);
  if (vit == kit->second.end() || vit->second.deleted) return nullptr;
  *found = true;
  if (!vit->second.dedup) return &vit->second.value;
  for (auto rit = std::make_reverse_iterator(vit);
       rit != kit->second.rend(); ++rit) {
    if (!rit->second.dedup) return &rit->second.value;
  }
  *found = false;
  return nullptr;
}

// GetLatest's answer: the newest non-deleted version, through traceback.
const std::string* ExpectedLatest(const Model& model, const std::string& key,
                                  bool* found) {
  *found = false;
  auto kit = model.find(key);
  if (kit == model.end()) return nullptr;
  for (auto rit = kit->second.rbegin(); rit != kit->second.rend(); ++rit) {
    if (!rit->second.deleted) {
      return ExpectedValue(model, key, rit->first, found);
    }
  }
  return nullptr;
}

// A dedup PUT at a version above every entry of `versions` below `below`
// is safe iff its traceback target is guaranteed unreclaimed: the newest
// non-dedup version below must exist and either be live itself or be
// pinned as a referent by a live dedup version in the chain above it. (A
// fully dead chain may already have been collected, so stacking a new
// dedup on it could never resolve.)
bool DedupPutSafe(const VersionMap& versions, uint64_t below = UINT64_MAX) {
  for (auto rit = std::make_reverse_iterator(versions.lower_bound(below));
       rit != versions.rend(); ++rit) {
    if (!rit->second.dedup) {
      return !rit->second.deleted;  // The target itself must be reachable...
    }
    if (!rit->second.deleted) return true;  // ...or pinned by a live dedup.
  }
  return false;  // No value-bearing version at all.
}

uint64_t NextVersion(const VersionMap& versions) {
  return versions.empty() ? 1 : versions.rbegin()->first + 1;
}

// Live pairs per version: what QinDb::VersionCounts must report.
std::map<uint64_t, uint64_t> ModelVersionCounts(const Model& model) {
  std::map<uint64_t, uint64_t> counts;
  for (const auto& [key, versions] : model) {
    for (const auto& [version, state] : versions) {
      if (!state.deleted) ++counts[version];
    }
  }
  return counts;
}

// Flags every live pair of `version` deleted; returns how many.
uint64_t ModelDrop(Model* model, uint64_t version) {
  uint64_t flagged = 0;
  for (auto& [key, versions] : *model) {
    auto it = versions.find(version);
    if (it != versions.end() && !it->second.deleted) {
      it->second.deleted = true;
      ++flagged;
    }
  }
  return flagged;
}

/// One configuration of the oracle. `extended` turns on the op mix beyond
/// the original traceback property (batches, GetLatest, bulk ingest,
/// crashes); extended arms log deletes so DELs survive their crashes.
struct Arm {
  std::string name;
  uint32_t num_shards = 1;
  uint64_t cache_bytes = 0;
  uint64_t index_memory_bytes = 0;
  uint64_t checkpoint_interval_bytes = 0;
  bool extended = false;
};

std::ostream& operator<<(std::ostream& os, const Arm& arm) {
  return os << arm.name;
}

std::vector<Arm> Arms() {
  std::vector<Arm> arms;
  Arm legacy;
  legacy.name = "legacy";
  arms.push_back(legacy);
  for (const uint32_t shards : {1u, 4u}) {
    for (const uint64_t cache : {uint64_t{0}, uint64_t{64} << 10}) {
      // 2 KiB per shard: below one arena block, so every commit tail looks
      // for an unloadable version.
      for (const uint64_t index : {uint64_t{0}, uint64_t{2048} * shards}) {
        Arm arm;
        arm.num_shards = shards;
        arm.cache_bytes = cache;
        arm.index_memory_bytes = index;
        arm.extended = true;
        arm.name = "shards" + std::to_string(shards) +
                   (cache > 0 ? "_cache64k" : "_nocache") +
                   (index > 0 ? "_lazyindex" : "_resident");
        if (shards == 1 && cache > 0 && index > 0) {
          // Interval checkpoints: some reopens load a checkpoint and scan
          // only the segments after it.
          arm.checkpoint_interval_bytes = 8 << 10;
          arm.name += "_checkpoint";
        }
        arms.push_back(arm);
      }
    }
  }
  return arms;
}

/// What a failure message names: enough to replay the exact history.
struct OpContext {
  const Arm* arm = nullptr;
  int seed = 0;
  int op = 0;
  std::string what;
};

std::ostream& operator<<(std::ostream& os, const OpContext& ctx) {
  return os << "[arm " << ctx.arm->name << ", seed " << ctx.seed << ", op #"
            << ctx.op << ": " << ctx.what << "]";
}

/// The model's view of an open bulk-ingest session: the staged ops in run
/// order, applied to the model only at commit.
struct StagedOp {
  std::string key;
  uint64_t version = 0;
  std::string value;
  bool dedup = false;
  bool tombstone = false;
};

class TracebackPropertyTest : public ::testing::TestWithParam<Arm> {
 protected:
  QinDbOptions Options() const {
    const Arm& arm = GetParam();
    QinDbOptions options;
    options.num_shards = arm.num_shards;
    options.aof.segment_bytes = kSegmentBytes;
    options.cache_bytes = arm.cache_bytes;
    options.index_memory_bytes = arm.index_memory_bytes;
    options.checkpoint_interval_bytes = arm.checkpoint_interval_bytes;
    if (arm.extended) {
      options.aof.log_deletes = true;  // DELs must survive a crash.
      // The commit tail's lazy GC is part of the write path under test.
      options.auto_gc = true;
    } else {
      options.auto_gc = false;  // GC only when the test says so.
    }
    return options;
  }

  void OpenEngine() {
    auto opened = QinDb::Open(env_.get(), Options());
    ASSERT_TRUE(opened.ok()) << ctx_ << " " << opened.status().ToString();
    db_ = std::move(opened).value();
  }

  /// Drops the engine at an op boundary with no checkpoint or shutdown
  /// step, then recovers it from the AOF (and the checkpoint, when one is
  /// valid). An open session dies with the process.
  void CrashAndReopen() {
    totals_.Add(db_->CacheTotals());
    db_.reset();
    if (env_->FileExists("checkpoint.dat")) ++checkpoint_reopens_;
    ++reopens_;
    OpenEngine();
    session_.reset();
    staged_.clear();
  }

  // --- Checks ---------------------------------------------------------

  void CheckGet(const std::string& key, uint64_t version) {
    bool expect_found = false;
    const std::string* expected =
        ExpectedValue(model_, key, version, &expect_found);
    Result<std::string> got = db_->Get(key, version);
    if (expect_found) {
      ASSERT_TRUE(got.ok()) << ctx_ << " Get " << key << "/" << version
                            << ": " << got.status().ToString();
      EXPECT_EQ(*got, *expected) << ctx_ << " Get " << key << "/" << version;
    } else {
      EXPECT_TRUE(got.status().IsNotFound())
          << ctx_ << " Get " << key << "/" << version << ": "
          << got.status().ToString();
    }
  }

  void CheckLatest(const std::string& key) {
    bool expect_found = false;
    const std::string* expected = ExpectedLatest(model_, key, &expect_found);
    Result<std::string> got = db_->GetLatest(key);
    if (expect_found) {
      ASSERT_TRUE(got.ok()) << ctx_ << " GetLatest " << key << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, *expected) << ctx_ << " GetLatest " << key;
    } else {
      EXPECT_TRUE(got.status().IsNotFound())
          << ctx_ << " GetLatest " << key << ": " << got.status().ToString();
    }
  }

  /// Get of every pair the model knows.
  void CheckPairs() {
    for (const auto& [key, versions] : model_) {
      for (const auto& [version, state] : versions) {
        CheckGet(key, version);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  void CheckKey(const std::string& key) {
    auto it = model_.find(key);
    if (it != model_.end()) {
      for (const auto& [version, state] : it->second) {
        CheckGet(key, version);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    CheckLatest(key);
  }

  /// Every pair the model knows, GetLatest of every key, the staged pairs'
  /// invisibility, and the per-version live counts.
  void CheckAll() {
    for (int slot = 0; slot < kKeys; ++slot) {
      CheckKey(KeyOf(slot));
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const StagedOp& op : staged_) {
      if (op.tombstone) continue;
      auto kit = model_.find(op.key);
      if (kit != model_.end() && kit->second.count(op.version) != 0) continue;
      EXPECT_TRUE(db_->Get(op.key, op.version).status().IsNotFound())
          << ctx_ << " staged pair " << op.key << "/" << op.version
          << " visible before commit";
    }
    EXPECT_EQ(db_->VersionCounts(), ModelVersionCounts(model_)) << ctx_;
  }

  // --- Extended op mix ------------------------------------------------

  std::string RandomKey() {
    return KeyOf(static_cast<int>(rnd_->Uniform(kKeys)));
  }

  void SinglePut(const std::string& key, uint64_t version, bool dedup) {
    const std::string value =
        dedup ? std::string() : rnd_->NextString(kValueBytes);
    ctx_.what = std::string(dedup ? "dedup Put " : "Put ") + key + "/" +
                std::to_string(version);
    Status s = db_->Put(key, version, value, dedup);
    ASSERT_TRUE(s.ok()) << ctx_ << " " << s.ToString();
    model_[key][version] = ModelVersion{value, dedup, false};
    max_version_ = std::max(max_version_, version);
    CheckKey(key);
  }

  /// A multi-op WriteBatch generated against a working copy of the model,
  /// so each op sees the effects of the earlier ops in the batch.
  void RunBatch() {
    Model work = model_;
    uint64_t work_max = max_version_;
    WriteBatch batch;
    std::vector<StatusCode> expect;
    std::vector<uint64_t> expect_dropped;
    std::vector<std::string> touched;
    ctx_.what = "WriteBatch{";
    auto add = [&](StatusCode code, uint64_t dropped, const std::string& d) {
      expect.push_back(code);
      expect_dropped.push_back(dropped);
      ctx_.what += (expect.size() > 1 ? ", " : "") + d;
    };
    const int ops = 2 + static_cast<int>(rnd_->Uniform(5));
    for (int i = 0; i < ops; ++i) {
      const std::string key = RandomKey();
      VersionMap& versions = work[key];
      touched.push_back(key);
      const double choice = rnd_->NextDouble();
      if (choice < 0.15) {
        // A base and a dedup pair stacked on it, in the same batch.
        const uint64_t v = NextVersion(versions);
        const std::string value = rnd_->NextString(kValueBytes);
        batch.Put(key, v, value);
        versions[v] = ModelVersion{value, false, false};
        add(StatusCode::kOk, 0, "Put " + key + "/" + std::to_string(v));
        batch.Put(key, v + 1, Slice(), /*dedup=*/true);
        versions[v + 1] = ModelVersion{std::string(), true, false};
        work_max = std::max(work_max, v + 1);
        add(StatusCode::kOk, 0,
            "dedup Put " + key + "/" + std::to_string(v + 1));
      } else if (choice < 0.30 && DedupPutSafe(versions)) {
        const uint64_t v = NextVersion(versions);
        batch.Put(key, v, Slice(), /*dedup=*/true);
        versions[v] = ModelVersion{std::string(), true, false};
        work_max = std::max(work_max, v);
        add(StatusCode::kOk, 0, "dedup Put " + key + "/" + std::to_string(v));
      } else if (choice < 0.50) {
        std::vector<uint64_t> live;
        for (const auto& [v, state] : versions) {
          if (!state.deleted) live.push_back(v);
        }
        if (live.empty() || rnd_->Bernoulli(0.2)) {
          const uint64_t v = NextVersion(versions) + rnd_->Uniform(3);
          batch.Del(key, v);
          add(StatusCode::kNotFound, 0,
              "Del(missing) " + key + "/" + std::to_string(v));
        } else {
          const uint64_t v = live[rnd_->Uniform(live.size())];
          batch.Del(key, v);
          versions[v].deleted = true;
          add(StatusCode::kOk, 0, "Del " + key + "/" + std::to_string(v));
        }
      } else if (choice < 0.58 && work_max > 0) {
        const uint64_t v = rnd_->UniformRange(1, work_max);
        batch.DropVersion(v);
        add(StatusCode::kOk, ModelDrop(&work, v),
            "DropVersion " + std::to_string(v));
      } else if (choice < 0.66 && !versions.empty() &&
                 !versions.rbegin()->second.deleted &&
                 !versions.rbegin()->second.dedup) {
        // Re-PUT of the newest live value: supersedes the record.
        const uint64_t v = versions.rbegin()->first;
        const std::string value = rnd_->NextString(kValueBytes);
        batch.Put(key, v, value);
        versions[v].value = value;
        add(StatusCode::kOk, 0, "re-Put " + key + "/" + std::to_string(v));
      } else if (choice < 0.72) {
        // Ops the record limits reject: each fails alone.
        const uint64_t v = NextVersion(versions);
        switch (rnd_->Uniform(3)) {
          case 0:
            batch.Put(Slice(), v, "x");
            add(StatusCode::kInvalidArgument, 0, "Put(empty key)");
            break;
          case 1:
            batch.Put(std::string(UINT16_MAX + 1, 'k'), v, "x");
            add(StatusCode::kInvalidArgument, 0, "Put(key too long)");
            break;
          default:
            batch.Put(key, v, std::string(kSegmentBytes, 'v'));
            add(StatusCode::kInvalidArgument, 0,
                "Put(oversized) " + key + "/" + std::to_string(v));
            break;
        }
      } else {
        const uint64_t v = NextVersion(versions);
        const std::string value = rnd_->NextString(kValueBytes);
        batch.Put(key, v, value);
        versions[v] = ModelVersion{value, false, false};
        work_max = std::max(work_max, v);
        add(StatusCode::kOk, 0, "Put " + key + "/" + std::to_string(v));
      }
    }
    ctx_.what += "}";

    const Status overall = db_->Write(batch);
    ASSERT_EQ(batch.statuses().size(), expect.size()) << ctx_;
    StatusCode first_failure = StatusCode::kOk;
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(batch.statuses()[i].code(), expect[i])
          << ctx_ << " op " << i << ": " << batch.statuses()[i].ToString();
      EXPECT_EQ(batch.dropped(i), expect_dropped[i]) << ctx_ << " op " << i;
      if (first_failure == StatusCode::kOk) first_failure = expect[i];
    }
    EXPECT_EQ(overall.code(), first_failure)
        << ctx_ << " " << overall.ToString();
    model_ = std::move(work);
    max_version_ = work_max;
    for (const std::string& key : touched) {
      CheckKey(key);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void BeginSession() {
    const uint64_t version = max_version_ + 1;
    ctx_.what = "IngestBegin " + std::to_string(version);
    Status s = db_->IngestBegin(version);
    ASSERT_TRUE(s.ok()) << ctx_ << " " << s.ToString();
    session_ = version;
    max_version_ = version;
  }

  /// The model as the session will leave it: `model_` with the staged ops
  /// applied in run order.
  Model SessionView() const {
    Model view = model_;
    for (const StagedOp& op : staged_) ApplyStaged(&view, op);
    return view;
  }

  static void ApplyStaged(Model* model, const StagedOp& op) {
    VersionMap& versions = (*model)[op.key];
    if (op.tombstone) {
      auto it = versions.find(op.version);
      if (it != versions.end()) it->second.deleted = true;  // Else no-op.
      return;
    }
    versions[op.version] = ModelVersion{op.value, op.dedup, false};
  }

  void RunIngest() {
    const uint64_t version = *session_;
    Model view = SessionView();
    std::vector<StagedOp> run;
    const int count = 1 + static_cast<int>(rnd_->Uniform(6));
    for (int i = 0; i < count; ++i) {
      StagedOp op;
      op.key = RandomKey();
      VersionMap& versions = view[op.key];
      const double choice = rnd_->NextDouble();
      if (choice < 0.20 && !versions.empty()) {
        // The `d` flag: delete an older pair (or a missing one: no-op).
        op.tombstone = true;
        op.version = rnd_->Bernoulli(0.8)
                         ? std::next(versions.begin(),
                                     rnd_->Uniform(versions.size()))->first
                         : version + 1 + rnd_->Uniform(5);
        if (op.version == version) op.version = version + 1;
      } else if (choice < 0.45 && DedupPutSafe(versions, version)) {
        op.version = version;
        op.dedup = true;
      } else {
        op.version = version;
        op.value = rnd_->NextString(kValueBytes);
      }
      ApplyStaged(&view, op);
      run.push_back(std::move(op));
    }
    // Now and then one op breaks a record limit: the run fails whole and
    // stages nothing.
    std::optional<size_t> invalid;
    std::string invalid_key;
    if (rnd_->Bernoulli(0.1)) {
      invalid = rnd_->Uniform(run.size());
      StagedOp& bad = run[*invalid];
      bad.tombstone = false;
      bad.dedup = false;
      bad.version = version;
      switch (rnd_->Uniform(4)) {
        case 0:
          bad.key.clear();
          break;
        case 1:
          bad.key = std::string(UINT16_MAX + 1, 'k');
          break;
        case 2:
          bad.value = std::string(kSegmentBytes, 'v');
          break;
        default:
          bad.version = version + 1;  // Puts must carry the session version.
          bad.value = "x";
          break;
      }
    }

    ctx_.what = "IngestRun " + std::to_string(version) + "{";
    std::vector<IngestOp> ops(run.size());
    for (size_t i = 0; i < run.size(); ++i) {
      ops[i].key = run[i].key;
      ops[i].version = run[i].version;
      ops[i].value = run[i].value;
      ops[i].dedup = run[i].dedup;
      ops[i].tombstone = run[i].tombstone;
      ctx_.what += std::string(i > 0 ? ", " : "") +
                   (run[i].tombstone ? "tombstone "
                    : run[i].dedup   ? "dedup "
                                     : "put ") +
                   (run[i].key.size() > 16 ? "<long key>" : run[i].key) + "/" +
                   std::to_string(run[i].version);
    }
    ctx_.what += invalid.has_value() ? "} (one invalid op)" : "}";
    Status s = db_->IngestRun(version, ops.data(), ops.size());
    if (invalid.has_value()) {
      EXPECT_TRUE(s.IsInvalidArgument()) << ctx_ << " " << s.ToString();
      return;
    }
    ASSERT_TRUE(s.ok()) << ctx_ << " " << s.ToString();
    for (StagedOp& op : run) staged_.push_back(std::move(op));
    // Staged pairs are invisible: the committed state reads unchanged.
    for (const StagedOp& op : staged_) {
      CheckKey(op.key);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void CommitSession() {
    const uint64_t version = *session_;
    ctx_.what = "IngestCommit " + std::to_string(version) + " (" +
                std::to_string(staged_.size()) + " staged)";
    Status s = db_->IngestCommit(version);
    ASSERT_TRUE(s.ok()) << ctx_ << " " << s.ToString();
    for (const StagedOp& op : staged_) ApplyStaged(&model_, op);
    session_.reset();
    staged_.clear();
    CheckAll();
  }

  void AbortSession() {
    const uint64_t version = *session_;
    ctx_.what = "IngestAbort " + std::to_string(version) + " (" +
                std::to_string(staged_.size()) + " staged)";
    std::vector<StagedOp> dropped = std::move(staged_);
    staged_.clear();
    Status s = db_->IngestAbort(version);
    ASSERT_TRUE(s.ok()) << ctx_ << " " << s.ToString();
    session_.reset();
    // No trace: the pairs it staged read exactly as before the session.
    for (const StagedOp& op : dropped) {
      CheckKey(op.key);
      if (::testing::Test::HasFatalFailure()) return;
    }
    CheckAll();
  }

  /// One op while a bulk session is open: more runs, plain PUTs and reads
  /// around them, a refused forced GC, or the session's end.
  void SessionStep() {
    const double choice = rnd_->NextDouble();
    if (choice < 0.45) {
      RunIngest();
    } else if (choice < 0.60) {
      const std::string key = RandomKey();
      SinglePut(key, NextVersion(model_[key]), /*dedup=*/false);
    } else if (choice < 0.68) {
      const std::string key = RandomKey();
      ctx_.what = "GetLatest " + key + " (session open)";
      CheckKey(key);
    } else if (choice < 0.72) {
      ctx_.what = "ForceGc (session open)";
      Status s = db_->ForceGc();
      EXPECT_TRUE(s.IsBusy()) << ctx_ << " " << s.ToString();
    } else if (choice < 0.88) {
      CommitSession();
    } else if (choice < 0.94) {
      AbortSession();
    } else {
      ctx_.what = "crash with session " + std::to_string(*session_) +
                  " open (" + std::to_string(staged_.size()) + " staged)";
      std::vector<StagedOp> lost = std::move(staged_);
      staged_.clear();
      CrashAndReopen();
      if (::testing::Test::HasFatalFailure()) return;
      for (const StagedOp& op : lost) {
        CheckKey(op.key);
        if (::testing::Test::HasFatalFailure()) return;
      }
      CheckAll();
    }
  }

  void ExtendedStep() {
    if (session_.has_value()) {
      SessionStep();
      return;
    }
    const std::string key = RandomKey();
    VersionMap& versions = model_[key];
    const double choice = rnd_->NextDouble();
    if (choice < 0.06) {
      ctx_.what = "ForceGc";
      ASSERT_TRUE(db_->ForceGc().ok()) << ctx_;
      CheckAll();
    } else if (choice < 0.09 && max_version_ > 0) {
      const uint64_t v = rnd_->UniformRange(1, max_version_);
      ctx_.what = "DropVersion " + std::to_string(v);
      const uint64_t expected = ModelDrop(&model_, v);
      Result<uint64_t> flagged = db_->DropVersion(v);
      ASSERT_TRUE(flagged.ok()) << ctx_ << " " << flagged.status().ToString();
      EXPECT_EQ(*flagged, expected) << ctx_;
      CheckKey(key);
    } else if (choice < 0.20 && !versions.empty()) {
      std::vector<uint64_t> live;
      for (const auto& [v, state] : versions) {
        if (!state.deleted) live.push_back(v);
      }
      if (live.empty()) {
        const uint64_t v = NextVersion(versions);
        ctx_.what = "Del(missing) " + key + "/" + std::to_string(v);
        EXPECT_TRUE(db_->Del(key, v).IsNotFound()) << ctx_;
      } else {
        const uint64_t v = live[rnd_->Uniform(live.size())];
        ctx_.what = "Del " + key + "/" + std::to_string(v);
        ASSERT_TRUE(db_->Del(key, v).ok()) << ctx_;
        versions[v].deleted = true;
      }
      CheckKey(key);
    } else if (choice < 0.35 && DedupPutSafe(versions)) {
      SinglePut(key, NextVersion(versions), /*dedup=*/true);
    } else if (choice < 0.50) {
      SinglePut(key, NextVersion(versions), /*dedup=*/false);
    } else if (choice < 0.70) {
      RunBatch();
    } else if (choice < 0.78) {
      ctx_.what = "GetLatest " + key;
      CheckKey(key);
    } else if (choice < 0.86) {
      BeginSession();
    } else if (choice < 0.91) {
      ctx_.what = "crash";
      CrashAndReopen();
      if (::testing::Test::HasFatalFailure()) return;
      CheckAll();
    } else {
      SinglePut(key, NextVersion(versions), /*dedup=*/false);
    }
  }

  // --- The original traceback property (the legacy arm) ---------------

  void LegacyStep() {
    Random& rnd = *rnd_;
    QinDb* db = db_.get();
    const std::string key = KeyOf(static_cast<int>(rnd.Uniform(kKeys)));
    VersionMap& versions = model_[key];
    const double choice = rnd.NextDouble();

    if (choice < 0.10) {
      ctx_.what = "ForceGc";
      ASSERT_TRUE(db->ForceGc().ok()) << ctx_;
      // The property: no collection may have reclaimed a record a live
      // deduplicated version still resolves through.
      CheckPairs();
    } else if (choice < 0.15 && max_version_ > 0) {
      const uint64_t v = rnd.UniformRange(1, max_version_);
      ctx_.what = "DropVersion " + std::to_string(v);
      const uint64_t expected_flagged = ModelDrop(&model_, v);
      Result<uint64_t> flagged = db->DropVersion(v);
      ASSERT_TRUE(flagged.ok()) << ctx_;
      EXPECT_EQ(*flagged, expected_flagged) << ctx_;
    } else if (choice < 0.30 && !versions.empty()) {
      std::vector<uint64_t> live;
      for (const auto& [v, state] : versions) {
        if (!state.deleted) live.push_back(v);
      }
      if (!live.empty()) {
        const uint64_t victim = live[rnd.Uniform(live.size())];
        ctx_.what = "Del " + key + "/" + std::to_string(victim);
        ASSERT_TRUE(db->Del(key, victim).ok()) << ctx_;
        versions[victim].deleted = true;
      }
    } else if (choice < 0.60 && DedupPutSafe(versions)) {
      const uint64_t v = versions.rbegin()->first + 1;
      ctx_.what = "dedup Put " + key + "/" + std::to_string(v);
      ASSERT_TRUE(db->Put(key, v, Slice(), /*dedup=*/true).ok()) << ctx_;
      versions[v] = ModelVersion{std::string(), true, false};
      if (v > max_version_) max_version_ = v;
    } else {
      const uint64_t v = NextVersion(versions);
      const std::string value = rnd.NextString(kValueBytes);
      ctx_.what = "Put " + key + "/" + std::to_string(v);
      ASSERT_TRUE(db->Put(key, v, value).ok()) << ctx_;
      versions[v] = ModelVersion{value, false, false};
      if (v > max_version_) max_version_ = v;
    }

    // Spot-check the touched key's newest version every op.
    if (!versions.empty()) {
      CheckGet(key, versions.rbegin()->first);
    }
  }

  void RunSeed(int seed) {
    const Arm& arm = GetParam();
    ctx_ = OpContext{&arm, seed, -1, "open"};
    rnd_ = std::make_unique<Random>(static_cast<uint64_t>(seed) * 104729);
    env_.reset();
    clock_ = std::make_unique<SimClock>();
    env_ = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock, PropertyGeometry(),
                          ssd::LatencyModel(), clock_.get());
    model_.clear();
    max_version_ = 0;
    session_.reset();
    staged_.clear();
    OpenEngine();
    if (::testing::Test::HasFatalFailure()) return;

    for (int op = 0; op < kOpsPerSeed; ++op) {
      ctx_.op = op;
      ctx_.what.clear();
      if (arm.extended) {
        ExtendedStep();
      } else {
        LegacyStep();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }

    ctx_.op = kOpsPerSeed;
    if (session_.has_value()) {
      CommitSession();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ctx_.what = "final ForceGc";
    ASSERT_TRUE(db_->ForceGc().ok()) << ctx_;
    CheckPairs();
    if (::testing::Test::HasFatalFailure()) return;
    if (arm.extended) {
      CheckAll();
      ctx_.what = "final crash";
      CrashAndReopen();
      if (::testing::Test::HasFatalFailure()) return;
      CheckAll();
    }
    Result<QinDb::ScrubReport> report = db_->Scrub();
    ASSERT_TRUE(report.ok()) << ctx_;
    EXPECT_TRUE(report->clean())
        << ctx_ << " " << report->damaged_entries << " damaged, "
        << report->unresolvable_dedups << " unresolvable dedups of "
        << report->entries_checked;
    totals_.Add(db_->CacheTotals());
    db_.reset();
  }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
  std::unique_ptr<QinDb> db_;
  std::unique_ptr<Random> rnd_;
  Model model_;
  uint64_t max_version_ = 0;
  std::optional<uint64_t> session_;
  std::vector<StagedOp> staged_;
  OpContext ctx_;
  // Counters summed over every engine instance the arm opened: evidence
  // that the arm exercised what its name says.
  EngineCacheTotals totals_;
  int reopens_ = 0;
  int checkpoint_reopens_ = 0;
};

TEST_P(TracebackPropertyTest, RandomChainsMatchModelUnderGc) {
  const Arm& arm = GetParam();
  for (int seed = 1; seed <= kSeeds; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (arm.cache_bytes > 0) {
    EXPECT_GT(totals_.cache_hits, 0u) << arm.name;
  }
  if (arm.index_memory_bytes > 0) {
    EXPECT_GT(totals_.index_unloads, 0u) << arm.name;
    EXPECT_GT(totals_.index_loads, 0u) << arm.name;
  }
  if (arm.extended) {
    EXPECT_GT(reopens_, 0) << arm.name;
  }
  if (arm.checkpoint_interval_bytes > 0) {
    EXPECT_GT(checkpoint_reopens_, 0) << arm.name;
  }
  std::printf("[arm %s] reopens=%d (from checkpoint %d) cache_hits=%llu "
              "index_unloads=%llu index_loads=%llu\n",
              arm.name.c_str(), reopens_, checkpoint_reopens_,
              static_cast<unsigned long long>(totals_.cache_hits),
              static_cast<unsigned long long>(totals_.index_unloads),
              static_cast<unsigned long long>(totals_.index_loads));
}

// An empty instantiation prefix keeps the test names
// "TracebackPropertyTest.RandomChainsMatchModelUnderGc/<arm>".
INSTANTIATE_TEST_SUITE_P(, TracebackPropertyTest, ::testing::ValuesIn(Arms()),
                         [](const ::testing::TestParamInfo<Arm>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace directload::qindb
