#include "sim/wire.hpp"

#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace scup::sim {

namespace {

struct CodecEntry {
  const char* name = nullptr;
  WireCodecRegistry::DecodeFn decode = nullptr;
};

// The registry is process-wide shared state: tests and the ScenarioMatrix
// runner can register/decode from several threads at once. Function-local
// statics avoid static-initialization-order issues for codecs registered
// during other globals' construction.
std::mutex& codec_mutex() {
  // scup-lint: thread-safe(a mutex is its own synchronization)
  static std::mutex mutex;
  return mutex;
}
// scup-analyze: requires-lock(codec_mutex)
std::map<std::uint16_t, CodecEntry>& codec_table() {
  // scup-lint: guarded-by(codec_mutex)
  // scup-guarded-by: codec_mutex
  static std::map<std::uint16_t, CodecEntry> table;
  return table;
}

}  // namespace

void WireCodecRegistry::register_type(std::uint16_t type, const char* name,
                                      DecodeFn fn) {
  const std::lock_guard<std::mutex> lock(codec_mutex());
  // Re-registering the identical entry is a no-op, so
  // register_wire_codecs() can run from every test without bookkeeping. A
  // different name or decoder on a taken id would decode that id's frames
  // as the wrong type, so it is a programming error.
  const auto [it, inserted] =
      codec_table().emplace(type, CodecEntry{name, fn});
  if (inserted) return;
  if (it->second.decode != fn || std::strcmp(it->second.name, name) != 0) {
    throw std::logic_error("WireCodecRegistry: wire type " +
                           std::to_string(type) + " is already taken by " +
                           it->second.name);
  }
}

WireCodecRegistry::DecodeFn WireCodecRegistry::find(std::uint16_t type) {
  const std::lock_guard<std::mutex> lock(codec_mutex());
  const auto& table = codec_table();
  const auto it = table.find(type);
  return it == table.end() ? nullptr : it->second.decode;
}

const char* WireCodecRegistry::name_of(std::uint16_t type) {
  const std::lock_guard<std::mutex> lock(codec_mutex());
  const auto& table = codec_table();
  const auto it = table.find(type);
  return it == table.end() ? nullptr : it->second.name;
}

std::vector<std::uint16_t> WireCodecRegistry::registered_types() {
  const std::lock_guard<std::mutex> lock(codec_mutex());
  std::vector<std::uint16_t> types;
  for (const auto& [type, entry] : codec_table()) {
    (void)entry;
    types.push_back(type);
  }
  return types;
}

MessagePtr decode_frame(const std::uint8_t* data, std::size_t size) {
  WireReader reader(data, size);
  const std::uint16_t type = reader.u16();
  if (!reader.ok()) return nullptr;
  const WireCodecRegistry::DecodeFn decode = WireCodecRegistry::find(type);
  if (decode == nullptr) return nullptr;
  MessagePtr msg = decode(reader);
  // A frame must be consumed exactly: trailing bytes mean a forged or
  // corrupted length field somewhere upstream, so the whole frame is
  // rejected rather than silently ignored.
  if (!reader.ok() || reader.remaining() != 0) return nullptr;
  return msg;
}

MessagePtr decode_frame(const std::vector<std::uint8_t>& frame) {
  return decode_frame(frame.data(), frame.size());
}

}  // namespace scup::sim
