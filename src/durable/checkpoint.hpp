// Checkpoint files: one consistent, checksummed image of the whole sharded
// store, written from an epoch-pinned SnapshotView so ingest never stalls.
//
// Layout of `ckpt-<seq>.cpma` (all integers little-endian):
//
//   magic   u64  "CPMACKP1"
//   version u32  format version (1)
//   codec   u32  engine codec tag — informational; bodies are portable
//   seq     u64  checkpoint sequence number
//   cut_lsn u64  every WAL record with lsn <= cut is reflected in the body
//   shards  u64  shard count (recovery restores the same shard layout)
//   splitters     (shards-1) × u64
//   per shard     [count u64][body_bytes u64][shard_version u64][crc u32]
//   header_crc    u32 over all bytes above
//   bodies        concatenated per-shard key streams
//
// A shard body is the raw first key (u64) followed by byte-varint deltas —
// deliberately NOT the engine's in-memory leaf region. The delta stream is
// engine-portable (a checkpoint written by a CPMA restores into an
// uncompressed PMA and vice versa), it is usually smaller than the leaf
// region (no empty-slot gaps, no per-leaf heads), and restoring through
// `build_from_sorted` lands the keys in an optimally-packed engine instead
// of resurrecting whatever density skew the writer had accumulated.
//
// Write protocol: encode to `ckpt-<seq>.tmp`, fsync, rename to the final
// name, fsync the directory. A crash mid-write leaves a `.tmp` that
// recovery deletes; the rename is the commit point. Validation re-checks
// the header crc, every body crc, and strict key ordering, so a checkpoint
// that survives `validate` loads without further error handling.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/varint.hpp"
#include "durable/io.hpp"
#include "durable/wal.hpp"
#include "util/crc32c.hpp"

namespace cpma::durable {

inline constexpr uint64_t kCkptMagic = 0x31504b43414d5043ull;  // "CPMACKP1"
inline constexpr uint32_t kCkptVersion = 1;

inline std::string ckpt_name(uint64_t seq) {
  return "ckpt-" + std::to_string(seq) + ".cpma";
}
inline std::string ckpt_tmp_name(uint64_t seq) {
  return "ckpt-" + std::to_string(seq) + ".tmp";
}

inline bool parse_ckpt_name(const std::string& name, uint64_t* seq) {
  if (name.rfind("ckpt-", 0) != 0) return false;
  size_t at = 5;
  if (!parse_u64_digits(name, at, seq)) return false;
  return name.compare(at, std::string::npos, ".cpma") == 0;
}

struct CheckpointInfo {
  uint64_t seq = 0;
  uint64_t cut_lsn = 0;
  uint32_t codec_tag = 0;
  std::vector<uint64_t> splitters;       // shards-1 entries
  std::vector<uint64_t> shard_counts;    // keys per shard
  std::vector<uint64_t> shard_versions;  // writer's shard_version() at cut
  uint64_t total_keys = 0;
  uint64_t file_bytes = 0;
};

namespace ckpt_detail {

// Delta-varint encodes a strictly-increasing key stream.
class BodyEncoder {
 public:
  void add(uint64_t key) {
    if (first_) {
      put_u64(bytes_, key);
      first_ = false;
    } else {
      uint8_t tmp[codec::kMaxVarintBytes];
      const size_t n = codec::varint_encode(key - prev_, tmp);
      bytes_.insert(bytes_.end(), tmp, tmp + n);
    }
    prev_ = key;
  }
  std::vector<uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t prev_ = 0;
  bool first_ = true;
};

// Decodes a shard body; returns false on any structural violation (short
// stream, trailing garbage, non-increasing keys).
inline bool decode_body(const uint8_t* data, uint64_t body_bytes,
                        uint64_t count, std::vector<uint64_t>& out) {
  out.clear();
  out.reserve(count);
  if (count == 0) return body_bytes == 0;
  if (body_bytes < 8) return false;
  uint64_t key = get_u64(data);
  out.push_back(key);
  uint64_t at = 8;
  for (uint64_t i = 1; i < count; ++i) {
    if (at >= body_bytes) return false;
    uint64_t delta;
    at += codec::varint_decode(data + at, &delta);
    if (at > body_bytes || delta == 0 || key + delta < key) return false;
    key += delta;
    out.push_back(key);
  }
  return at == body_bytes;
}

}  // namespace ckpt_detail

// Serializes `view` (any type exposing num_shards/splitters/shard(s).map)
// to `dir/ckpt-<seq>.cpma` via the tmp+rename protocol above.
template <typename View>
io::Status write_checkpoint(io::Vfs& vfs, const std::string& dir,
                            uint64_t seq, uint64_t cut_lsn,
                            uint32_t codec_tag, const View& view,
                            const std::vector<uint64_t>& shard_versions,
                            uint64_t* bytes_written = nullptr) {
  const uint64_t shards = view.num_shards();
  std::vector<std::vector<uint8_t>> bodies(shards);
  for (uint64_t s = 0; s < shards; ++s) {
    ckpt_detail::BodyEncoder enc;
    view.shard(s).map([&](uint64_t key) { enc.add(key); });
    bodies[s] = enc.take();
  }

  std::vector<uint8_t> header;
  put_u64(header, kCkptMagic);
  put_u32(header, kCkptVersion);
  put_u32(header, codec_tag);
  put_u64(header, seq);
  put_u64(header, cut_lsn);
  put_u64(header, shards);
  for (uint64_t sp : view.splitters()) put_u64(header, sp);
  for (uint64_t s = 0; s < shards; ++s) {
    put_u64(header, view.shard(s).size());
    put_u64(header, bodies[s].size());
    put_u64(header, s < shard_versions.size() ? shard_versions[s] : 0);
    put_u32(header, util::crc32c(bodies[s].data(), bodies[s].size()));
  }
  put_u32(header, util::crc32c(header.data(), header.size()));

  io::Status st;
  const std::string tmp = dir + "/" + ckpt_tmp_name(seq);
  std::unique_ptr<io::File> f = vfs.open_write(tmp, /*truncate=*/true, &st);
  if (!st.ok()) return st;
  st = f->append(header.data(), header.size());
  uint64_t total = header.size();
  for (uint64_t s = 0; st.ok() && s < shards; ++s) {
    st = f->append(bodies[s].data(), bodies[s].size());
    total += bodies[s].size();
  }
  if (st.ok()) st = f->sync();
  f.reset();
  if (!st.ok()) {
    vfs.remove(tmp);
    return st;
  }
  st = vfs.rename(tmp, dir + "/" + ckpt_name(seq));
  if (!st.ok()) return st;
  st = vfs.sync_dir(dir);  // the commit point
  if (!st.ok()) return st;
  if (bytes_written != nullptr) *bytes_written = total;
  return io::Status::good();
}

// Reads + fully validates a checkpoint: header crc, magic/version, body
// crcs, per-shard structural decode. On success fills `info` and, when
// `shard_keys` is non-null, the decoded sorted key vectors per shard.
inline io::Status load_checkpoint(
    io::Vfs& vfs, const std::string& path, CheckpointInfo* info,
    std::vector<std::vector<uint64_t>>* shard_keys) {
  std::vector<uint8_t> data;
  io::Status st = vfs.read_all(path, data);
  if (!st.ok()) return st;
  auto bad = [&](const char* why) {
    return io::Status::error("checkpoint " + path + ": " + why);
  };
  // Fixed prefix: magic + version + codec + seq + cut + shards = 40 bytes.
  if (data.size() < 40) return bad("truncated header");
  if (get_u64(data.data()) != kCkptMagic) return bad("bad magic");
  if (get_u32(data.data() + 8) != kCkptVersion) return bad("bad version");
  info->codec_tag = get_u32(data.data() + 12);
  info->seq = get_u64(data.data() + 16);
  info->cut_lsn = get_u64(data.data() + 24);
  const uint64_t shards = get_u64(data.data() + 32);
  if (shards == 0 || shards > (1u << 20)) return bad("insane shard count");
  const uint64_t header_bytes = 40 + (shards - 1) * 8 + shards * 28 + 4;
  if (data.size() < header_bytes) return bad("truncated header");
  if (util::crc32c(data.data(), header_bytes - 4) !=
      get_u32(data.data() + header_bytes - 4)) {
    return bad("header crc mismatch");
  }
  info->splitters.resize(shards - 1);
  uint64_t at = 40;
  for (uint64_t s = 0; s + 1 < shards; ++s, at += 8) {
    info->splitters[s] = get_u64(data.data() + at);
  }
  info->shard_counts.resize(shards);
  info->shard_versions.resize(shards);
  std::vector<uint64_t> body_bytes(shards);
  std::vector<uint32_t> body_crc(shards);
  info->total_keys = 0;
  for (uint64_t s = 0; s < shards; ++s, at += 28) {
    info->shard_counts[s] = get_u64(data.data() + at);
    body_bytes[s] = get_u64(data.data() + at + 8);
    info->shard_versions[s] = get_u64(data.data() + at + 16);
    body_crc[s] = get_u32(data.data() + at + 24);
    info->total_keys += info->shard_counts[s];
  }
  at = header_bytes;
  if (shard_keys != nullptr) shard_keys->assign(shards, {});
  for (uint64_t s = 0; s < shards; ++s) {
    if (at + body_bytes[s] > data.size()) return bad("truncated body");
    if (util::crc32c(data.data() + at, body_bytes[s]) != body_crc[s]) {
      return bad("body crc mismatch");
    }
    if (shard_keys != nullptr &&
        !ckpt_detail::decode_body(data.data() + at, body_bytes[s],
                                  info->shard_counts[s], (*shard_keys)[s])) {
      return bad("body decode failed");
    }
    at += body_bytes[s];
  }
  if (at != data.size()) return bad("trailing bytes");
  info->file_bytes = data.size();
  return io::Status::good();
}

}  // namespace cpma::durable
