#ifndef DIRECTLOAD_AOF_RECORD_H_
#define DIRECTLOAD_AOF_RECORD_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace directload::aof {

/// Address of a record inside the AOF space: which segment file and the byte
/// offset of the record header within it. Packs into the uint64 the memtable
/// stores as `MemEntry::address`.
struct RecordAddress {
  uint32_t segment_id = 0;
  uint32_t offset = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(segment_id) << 32) | offset;
  }
  static RecordAddress Unpack(uint64_t packed) {
    return RecordAddress{static_cast<uint32_t>(packed >> 32),
                         static_cast<uint32_t>(packed & 0xFFFFFFFFu)};
  }

  friend bool operator==(const RecordAddress& a, const RecordAddress& b) {
    return a.segment_id == b.segment_id && a.offset == b.offset;
  }
};

/// Record flags (the paper's Figure 2 datum: "a key carrying a value or
/// NULL", plus tombstones when delete logging is enabled).
enum RecordFlags : uint8_t {
  kFlagNone = 0,
  /// Value field removed by Bifrost's dedup; GETs traceback to resolve it.
  kFlagDedup = 1u << 0,
  /// Delete marker (written only when AofOptions::log_deletes is on).
  kFlagTombstone = 1u << 1,
  /// Copy re-appended by segment collection. Recovery must not let such a
  /// copy revive a pair an earlier tombstone deleted: relocation preserves
  /// a record's bytes but not its position in operation order.
  kFlagRelocated = 1u << 2,
  /// Staged by a bulk-ingest session (QinDb::IngestRun) and not yet
  /// committed. Recovery indexes such a record only if a matching
  /// kFlagIngestCommit marker for its version exists; otherwise the record
  /// is dead on arrival — an aborted or crashed load leaves no trace. A
  /// pending tombstone carries its target pair's version in the header and
  /// the session's version as its 8-byte value.
  kFlagIngestPending = 1u << 3,
  /// Commit marker for a bulk-ingest version (zero-length key and value;
  /// `version` names the committed ingest version). Written once per shard
  /// at IngestCommit, after every pending record of the session is durable.
  /// GC never collects markers: a relocated pending record may land after
  /// its marker in segment order, and the marker is what vouches for it. A
  /// relocated marker's 8-byte value is the packed address it was first
  /// written at — where the commit happened.
  kFlagIngestCommit = 1u << 4,
  /// Set on a relocated copy of a pair that was deleted when GC moved it (a
  /// referent kept for a later deduplicated version). With it a relocated
  /// copy states the pair exactly as GC found it, so recovery never has to
  /// guess whether an earlier tombstone still applies.
  kFlagDeleted = 1u << 5,
};

/// Fixed-size record header. A fixed layout (vs varints) lets the engine
/// compute a record's extent purely from the memtable item (key size +
/// value size), which the GC and traceback paths rely on.
///
///   crc32c(4, masked; covers bytes 4..end) |
///   key_len(2) | flags(1) | reserved(1) | version(8) | value_len(4) |
///   key bytes | value bytes
struct RecordHeader {
  static constexpr size_t kSize = 20;

  uint32_t crc = 0;
  uint16_t key_len = 0;
  uint8_t flags = 0;
  uint64_t version = 0;
  uint32_t value_len = 0;
};

/// Total on-file extent of a record with the given key/value sizes.
inline uint64_t RecordExtent(size_t key_len, size_t value_len) {
  return RecordHeader::kSize + key_len + value_len;
}

/// A decoded record. `key` and `value` alias `backing`.
struct RecordView {
  RecordHeader header;
  Slice key;
  Slice value;
  std::string backing;

  bool is_dedup() const { return (header.flags & kFlagDedup) != 0; }
  bool is_tombstone() const { return (header.flags & kFlagTombstone) != 0; }
  bool is_relocated() const { return (header.flags & kFlagRelocated) != 0; }
  bool is_deleted() const { return (header.flags & kFlagDeleted) != 0; }
  bool is_ingest_pending() const {
    return (header.flags & kFlagIngestPending) != 0;
  }
  bool is_ingest_commit() const {
    return (header.flags & kFlagIngestCommit) != 0;
  }
};

/// Serializes a record (header + key + value) into `dst` (appended).
void EncodeRecord(const Slice& key, uint64_t version, uint8_t flags,
                  const Slice& value, std::string* dst);

/// Decodes and checksum-verifies a record from `data` (which must start at a
/// record header and contain the full extent). On success fills `out`
/// (copying bytes into out->backing).
Status DecodeRecord(const Slice& data, RecordView* out);

/// Decodes only the header (no checksum verification possible without the
/// body). Used by sequential scans to learn the record extent.
Status DecodeHeader(const Slice& data, RecordHeader* out);

}  // namespace directload::aof

#endif  // DIRECTLOAD_AOF_RECORD_H_
