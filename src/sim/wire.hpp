// Wire: the byte-buffer codec under the wire-once broadcast plane.
//
// Every protocol message family (cup discovery/gossip, sink detector, SCP
// envelopes, PBFT, ledger SlotEnvelope) encodes itself through a WireWriter
// into a flat little-endian frame:
//
//   frame     := u16 wire_type ++ payload
//   integers  := fixed-width little-endian (u8/u16/u32/u64)
//   NodeSet   := u32 universe ++ u32 count ++ count * u32 id   (ascending)
//   sequences := u32 count ++ elements (canonical order: ascending where the
//                in-memory container is ordered)
//
// Encoding is canonical: for every registered type, decode(encode(m))
// re-encodes to the same bytes, which is what the differential tests pin.
// Decoding is Byzantine input handling: WireReader is bounds-checked, count
// fields are validated against the remaining byte budget *before* any
// allocation, non-canonical element order is rejected, and a frame must be
// consumed exactly — truncated or oversized buffers decode to nullptr, never
// to UB. See DESIGN.md §4.9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/node_set.hpp"
#include "common/types.hpp"

namespace scup::sim {

class Message;
using MessagePtr = std::shared_ptr<const Message>;

/// Frame ids reserved for message types defined in tests and benches.
/// Production codecs take ids below this range (cup 1..5, scp 16..17,
/// pbft 32..36, bftcup 48..49); each test or bench type picks its own
/// offset into it, and none of them is registered for decoding.
inline constexpr std::uint16_t kWireTestTypeFirst = 0xff00;
inline constexpr std::uint16_t kWireTestTypeLast = 0xffff;

/// Largest NodeSet universe a decoder accepts (see WireReader::node_set).
inline constexpr std::uint32_t kWireMaxUniverse = 1u << 20;

/// Appends fixed-width little-endian fields to a byte buffer. The buffer is
/// caller-owned so the per-message encode path can reuse a thread-local
/// scratch vector (zero steady-state allocation).
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  /// u32 universe ++ u32 count ++ ascending member ids.
  void node_set(const NodeSet& set) {
    u32(static_cast<std::uint32_t>(set.universe_size()));
    u32(static_cast<std::uint32_t>(set.count()));
    for (ProcessId id : set) u32(id);
  }

  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked reader over an untrusted frame. All accessors return a
/// value and latch `ok() == false` on underrun or validation failure;
/// once failed, subsequent reads return zeros and never touch the buffer.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Latches the failure state (decoders call this on semantic rejects).
  void fail() { ok_ = false; }

  /// True iff `count` elements of `elem_size` bytes each can still fit in
  /// the remaining buffer. Decoders must check this before reserving
  /// containers sized from an attacker-controlled count field.
  bool fits(std::uint64_t count, std::size_t elem_size) const {
    return ok_ && elem_size > 0 && count <= remaining() / elem_size;
  }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_ - 1];
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    return static_cast<std::uint16_t>(data_[pos_ - 2] |
                                      (data_[pos_ - 1] << 8));
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ - 4 + i]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ - 8 + i]) << (8 * i);
    }
    return v;
  }

  /// Rejects universes past kWireMaxUniverse, ids >= universe,
  /// descending/duplicate ids, and count fields larger than the remaining
  /// byte budget.
  NodeSet node_set() {
    const std::uint32_t universe = u32();
    const std::uint32_t count = u32();
    // NodeSet is a dense bitset (universe/8 bytes), so the universe field
    // itself is an allocation bomb vector: a forged 2^32 universe in an
    // 8-byte frame would reserve 512 MiB. 2^20 processes is far past any
    // simulated scale and caps the bitset at 128 KiB.
    if (universe > kWireMaxUniverse || !fits(count, 4) || count > universe) {
      fail();
      return NodeSet{};
    }
    NodeSet set{universe};
    ProcessId prev = kInvalidProcess;
    for (std::uint32_t i = 0; i < count; ++i) {
      const ProcessId id = u32();
      if (!ok_ || id >= universe || (i > 0 && id <= prev)) {
        fail();
        return NodeSet{};
      }
      set.add(id);
      prev = id;
    }
    return set;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Process-wide table mapping wire type ids to decoders. Encoding never
/// consults it (wire_encode is a virtual on the message); it exists for the
/// decode side — differential tests today, a real network backend tomorrow.
/// Registration is explicit (core::register_wire_codecs) because decoders
/// live above sim/ in the layer graph; it is idempotent and thread-safe,
/// and it throws std::logic_error when a second name or decoder claims an
/// id that is already taken.
class WireCodecRegistry {
 public:
  using DecodeFn = MessagePtr (*)(WireReader&);

  static void register_type(std::uint16_t type, const char* name, DecodeFn fn);
  static DecodeFn find(std::uint16_t type);
  static const char* name_of(std::uint16_t type);
  static std::vector<std::uint16_t> registered_types();
};

/// Decodes one full frame (u16 type header ++ payload). Returns nullptr on
/// unknown type, any reader failure, or trailing bytes left unconsumed.
MessagePtr decode_frame(const std::uint8_t* data, std::size_t size);
MessagePtr decode_frame(const std::vector<std::uint8_t>& frame);

}  // namespace scup::sim
