#include "rl/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/file.h"
#include "util/timer.h"

namespace dpdp {
namespace {

struct CkptMetrics {
  obs::Counter* saves =
      obs::MetricsRegistry::Global().GetCounter("ckpt.saves");
  obs::Counter* loads =
      obs::MetricsRegistry::Global().GetCounter("ckpt.loads");
  obs::Counter* bytes_written =
      obs::MetricsRegistry::Global().GetCounter("ckpt.bytes_written");
  obs::Histogram* save_latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "ckpt.save_latency_s", obs::LatencyBucketsSeconds());
};

CkptMetrics& Metrics() {
  static CkptMetrics* metrics = new CkptMetrics;
  return *metrics;
}

constexpr char kMagic[8] = {'D', 'P', 'D', 'P', 'C', 'K', 'P', '1'};

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Parsed checkpoint envelope: the validated body fields plus the payload
/// window. Shared by LoadCheckpoint and ReadCheckpointInfo so the two can
/// never drift on what "a valid file" means.
struct ParsedCheckpoint {
  CheckpointInfo info;
  const char* payload = nullptr;
  uint64_t payload_size = 0;
};

Result<ParsedCheckpoint> ParseCheckpoint(const std::string& contents,
                                         const std::string& path) {
  // Smallest valid file: magic + version + episodes + payload size + CRC
  // (v1 layout; the v2 seq footer only makes files larger).
  const size_t min_size = sizeof(kMagic) + sizeof(uint32_t) +
                          sizeof(int32_t) + sizeof(uint64_t) +
                          sizeof(uint32_t);
  if (contents.size() < min_size) {
    return Status::InvalidArgument("checkpoint truncated: " + path);
  }
  if (std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad checkpoint magic: " + path);
  }
  const char* body = contents.data() + sizeof(kMagic);
  const size_t body_size = contents.size() - sizeof(kMagic) - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc,
              contents.data() + contents.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (Crc32(body, body_size) != stored_crc) {
    return Status::InvalidArgument("checkpoint CRC mismatch: " + path);
  }
  uint32_t version = 0;
  int32_t episodes_done = 0;
  uint64_t payload_size = 0;
  size_t off = 0;
  std::memcpy(&version, body + off, sizeof(version));
  off += sizeof(version);
  std::memcpy(&episodes_done, body + off, sizeof(episodes_done));
  off += sizeof(episodes_done);
  std::memcpy(&payload_size, body + off, sizeof(payload_size));
  off += sizeof(payload_size);
  if (version != 1 && version != kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  const size_t footer = version >= 2 ? sizeof(uint64_t) : 0;
  if (episodes_done < 0 || body_size < off + footer ||
      payload_size != body_size - off - footer) {
    return Status::InvalidArgument("checkpoint payload size mismatch");
  }
  ParsedCheckpoint parsed;
  parsed.info.episodes_done = static_cast<int>(episodes_done);
  if (version >= 2) {
    uint64_t seq = 0;
    std::memcpy(&seq, body + off + payload_size, sizeof(seq));
    parsed.info.seq = seq;
  } else {
    parsed.info.seq = static_cast<uint64_t>(episodes_done);
  }
  parsed.payload = body + off;
  parsed.payload_size = payload_size;
  return parsed;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("checkpoint not found: " + path);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

Status SaveCheckpointPayload(const std::string& path, int episodes_done,
                             const std::string& payload, uint64_t seq) {
  DPDP_TRACE_SPAN("ckpt.save");
  WallTimer timer;
  if (episodes_done < 0) {
    return Status::InvalidArgument("episodes_done must be >= 0");
  }
  if (seq == 0) seq = static_cast<uint64_t>(episodes_done);

  // Assemble the full file image in memory; checkpoints here are a few MB
  // at most (tiny nets + float replay), so this is cheap and lets the CRC
  // cover exactly the bytes on disk.
  std::string image(kMagic, sizeof(kMagic));
  AppendPod(&image, kCheckpointVersion);
  AppendPod(&image, static_cast<int32_t>(episodes_done));
  AppendPod(&image, static_cast<uint64_t>(payload.size()));
  image += payload;
  AppendPod(&image, seq);
  AppendPod(&image, Crc32(image.data() + sizeof(kMagic),
                          image.size() - sizeof(kMagic)));
  DPDP_RETURN_IF_ERROR(WriteFileAtomic(path, image));
  CkptMetrics& metrics = Metrics();
  metrics.saves->Add();
  metrics.bytes_written->Add(image.size());
  metrics.save_latency->Record(timer.ElapsedSeconds());
  return Status::OK();
}

Status SaveCheckpoint(const std::string& path, int episodes_done,
                      const Agent& agent, uint64_t seq) {
  std::ostringstream payload_stream;
  DPDP_RETURN_IF_ERROR(agent.SaveState(&payload_stream));
  return SaveCheckpointPayload(path, episodes_done, payload_stream.str(),
                               seq);
}

Result<CheckpointPayload> LoadCheckpointPayload(const std::string& path) {
  DPDP_TRACE_SPAN("ckpt.load");
  Metrics().loads->Add();
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) return contents.status();
  Result<ParsedCheckpoint> parsed = ParseCheckpoint(contents.value(), path);
  if (!parsed.ok()) return parsed.status();
  const ParsedCheckpoint& ckpt = parsed.value();
  CheckpointPayload out;
  out.info = ckpt.info;
  out.payload.assign(ckpt.payload, ckpt.payload_size);
  return out;
}

Result<int> LoadCheckpoint(const std::string& path, Agent* agent) {
  DPDP_CHECK(agent != nullptr);
  Result<CheckpointPayload> loaded = LoadCheckpointPayload(path);
  if (!loaded.ok()) return loaded.status();
  std::istringstream payload(loaded.value().payload);
  DPDP_RETURN_IF_ERROR(agent->LoadState(&payload));
  return loaded.value().info.episodes_done;
}

Result<CheckpointInfo> ReadCheckpointInfo(const std::string& path) {
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) return contents.status();
  Result<ParsedCheckpoint> parsed = ParseCheckpoint(contents.value(), path);
  if (!parsed.ok()) return parsed.status();
  return parsed.value().info;
}

}  // namespace dpdp
