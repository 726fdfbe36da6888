// The tree's one varint codec and its length-prefixed CRC-framed streams.
//
// A frame is:
//
//     varint payload_len | payload bytes | CRC32-LE(payload)   (4 bytes)
//
// The hub wire protocol and the CTR store's segments (and the trial journal
// perfbench probes) all write this shape with AppendFrame, under one CRC
// (common/crc32.h); the trace spools and the store's column payloads use
// the varint codec alone.
// On disk a torn frame is the end of the valid prefix. On a socket the
// stream continues, so the incremental decoder distinguishes "need more
// bytes" (kNeedMore) from "this connection is poisoned" (kError — bad
// varint, zero/oversized length, CRC mismatch). Servers drop only the
// offending connection, never abort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace chaser::net {

/// Hard ceiling on a single frame's payload. Large enough for a batch of
/// publish records with multi-megabyte masks, small enough that a garbage
/// length prefix cannot make a peer allocate unbounded memory.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 22;  // 4 MiB

// ---- varint (LEB128, unsigned) ---------------------------------------------

void AppendVarint(std::string* out, std::uint64_t value);

/// Zig-zag for signed values (tags/ranks on the wire).
inline std::uint64_t ZigZagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t ZigZagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

enum class DecodeStatus : std::uint8_t {
  kOk,        // value decoded, *pos advanced past it
  kNeedMore,  // buffer ends mid-varint — feed more bytes and retry
  kMalformed, // not the one canonical encoding of a 64-bit value
};

/// Decode a varint from buf[*pos..). On kOk advances *pos; otherwise leaves
/// it untouched so the caller can retry once more bytes arrive. Every value
/// has exactly one accepted encoding — the one AppendVarint writes — so an
/// overlong form (a terminal 0x00 after a continuation byte) and bits past
/// 2^64 are kMalformed. The CTR store's byte-determinism relies on that.
DecodeStatus DecodeVarint(const char* buf, std::size_t size, std::size_t* pos,
                          std::uint64_t* value);

/// The same decoder for a whole in-memory buffer: the value, or nullopt when
/// `buf` ends mid-varint or the encoding is malformed (a file reader stops
/// there either way).
inline std::optional<std::uint64_t> DecodeVarint(const std::string& buf,
                                                 std::size_t* pos) {
  std::uint64_t value = 0;
  if (DecodeVarint(buf.data(), buf.size(), pos, &value) != DecodeStatus::kOk) {
    return std::nullopt;
  }
  return value;
}

// ---- frame encode ----------------------------------------------------------

/// Append one complete frame (length + payload + CRC) to `out`.
void AppendFrame(std::string* out, const std::string& payload);

// ---- incremental frame decode ----------------------------------------------

/// Incremental decoder over a byte stream: Feed() socket reads in, call
/// Next() until it stops returning kFrame. Keeps a single rolling buffer;
/// consumed frames are compacted away lazily.
class FrameDecoder {
 public:
  enum class Result : std::uint8_t {
    kFrame,     // *payload holds the next frame's payload
    kNeedMore,  // no complete frame buffered yet
    kError,     // stream poisoned (see error()); drop the connection
  };

  void Feed(const char* data, std::size_t n) { buf_.append(data, n); }

  Result Next(std::string* payload);

  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed (backpressure accounting).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  std::string error_;
  bool poisoned_ = false;
};

}  // namespace chaser::net
