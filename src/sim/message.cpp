#include "sim/message.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/wire.hpp"

namespace scup::sim {

namespace {
// The registry is process-wide shared state; the ScenarioMatrix runner
// interns from several simulation threads at once, so it is guarded by a
// mutex. Names live in a deque because name_of hands out references that
// must survive later interning (deque growth never moves elements).
// Function-local statics avoid static-initialization-order issues for
// messages interned during other globals' construction.
std::mutex& registry_mutex() {
  // scup-lint: thread-safe(a mutex is its own synchronization)
  static std::mutex mutex;
  return mutex;
}
// scup-analyze: requires-lock(registry_mutex)
std::deque<std::string>& names_by_id() {
  // scup-lint: guarded-by(registry_mutex)
  // scup-guarded-by: registry_mutex
  static std::deque<std::string> names;
  return names;
}
// scup-analyze: requires-lock(registry_mutex)
std::map<std::string, std::uint32_t>& ids_by_name() {
  // scup-lint: guarded-by(registry_mutex)
  // scup-guarded-by: registry_mutex
  static std::map<std::string, std::uint32_t> ids;
  return ids;
}
}  // namespace

std::uint32_t MessageTypeRegistry::intern(const std::string& name) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  auto& ids = ids_by_name();
  const auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  auto& names = names_by_id();
  const auto id = static_cast<std::uint32_t>(names.size());
  names.push_back(name);
  ids.emplace(name, id);
  return id;
}

const std::string& MessageTypeRegistry::name_of(std::uint32_t id) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  const auto& names = names_by_id();
  if (id >= names.size()) {
    throw std::out_of_range("MessageTypeRegistry::name_of: unknown id " +
                            std::to_string(id));
  }
  return names[id];
}

std::size_t MessageTypeRegistry::count() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  return names_by_id().size();
}

namespace {
// Reused encode scratch: wire_encode appends here, then the frame is copied
// into the message's inline buffer (or one overflow buffer for frames past
// the inline capacity). Capacity persists across encodes, so steady-state
// encoding of typical messages performs zero allocations.
thread_local std::vector<std::uint8_t> wire_scratch;
}  // namespace

bool Message::encode_frame_once() const {
  if (wire_state_.load(std::memory_order_acquire) == kWireReady) return false;
  std::uint32_t expected = kWireEmpty;
  if (wire_state_.compare_exchange_strong(expected, kWireBuilding,
                                          std::memory_order_acquire)) {
    wire_scratch.clear();
    WireWriter writer(wire_scratch);
    writer.u16(wire_type());
    wire_encode(writer);
    const std::size_t size = wire_scratch.size();
    wire_size_ = static_cast<std::uint32_t>(size);
    if (size <= kWireInlineCapacity) {
      std::copy(wire_scratch.begin(), wire_scratch.end(),
                wire_inline_.begin());
    } else {
      wire_overflow_.assign(wire_scratch.begin(), wire_scratch.end());
    }
    wire_state_.store(kWireReady, std::memory_order_release);
    return true;
  }
  // Another thread won the race (a cross-shard resend of a shared message
  // object); wait out its few-hundred-nanosecond encode.
  while (wire_state_.load(std::memory_order_acquire) != kWireReady) {
    std::this_thread::yield();
  }
  return false;
}

std::pair<const std::uint8_t*, std::size_t> Message::wire_frame() const {
  encode_frame_once();
  const std::size_t size = wire_size_;
  const std::uint8_t* data = size <= kWireInlineCapacity
                                 ? wire_inline_.data()
                                 : wire_overflow_.data();
  return {data, size};
}

}  // namespace scup::sim
