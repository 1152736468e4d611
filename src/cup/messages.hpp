// Wire messages of the knowledge-discovery layer (Section VI).
//
// Each message implements the wire codec (DESIGN.md §4.9): wire_type()
// names its frame id, wire_encode() appends the canonical little-endian
// payload, and wire_decode() rebuilds a message from an untrusted reader
// (returning nullptr on any malformed input). The sink-detector layer
// reuses KnownMsg/GetSinkMsg/SinkValueMsg, so these five codecs cover both
// discovery families.
#pragma once

#include <vector>

#include "common/node_set.hpp"
#include "sim/message.hpp"
#include "sim/wire.hpp"

namespace scup::cup {

/// Frame ids 1..5 (see the allocation table in sim/wire.hpp callers).
inline constexpr std::uint16_t kWireTypeDiscover = 1;
inline constexpr std::uint16_t kWireTypeCertGossip = 2;
inline constexpr std::uint16_t kWireTypeKnown = 3;
inline constexpr std::uint16_t kWireTypeGetSink = 4;
inline constexpr std::uint16_t kWireTypeSinkValue = 5;

/// A participant-detector certificate: process `owner` asserts that its PD
/// equals `pd`. In the real system this would be signed by `owner`; here the
/// convention is that only `owner` (or an adversarial `owner`) creates
/// certificates for itself, and everyone may forward them. A Byzantine owner
/// may issue conflicting certificates; receivers merge them by union (see
/// DESIGN.md §4.1).
struct PdCertificate {
  ProcessId owner = kInvalidProcess;
  NodeSet pd;
  bool operator==(const PdCertificate&) const = default;
};

/// DISCOVER: "send me what you know". Carries the sender's own certificate
/// so that knowledge also flows forward along the query.
struct DiscoverMsg final : sim::Message {
  explicit DiscoverMsg(PdCertificate c) : cert(std::move(c)) {}
  PdCertificate cert;
  std::string type_name() const override { return "cup.discover"; }
  std::uint16_t wire_type() const override { return kWireTypeDiscover; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(cert.owner);
    w.node_set(cert.pd);
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    PdCertificate cert;
    cert.owner = r.u32();
    cert.pd = r.node_set();
    if (!r.ok()) return nullptr;
    return sim::make_message<DiscoverMsg>(std::move(cert));
  }
};

/// Reply to DISCOVER (and general gossip): all certificates the sender
/// holds, merged per owner, one entry per owner in strictly ascending owner
/// order (the canonical frame order, which the decoder enforces).
struct CertGossipMsg final : sim::Message {
  // Construction does no work beyond the move: the frame (and with it the
  // size every send is charged) is encoded once, on the first send, and
  // read from the message's cache by every further send of the shared reply.
  explicit CertGossipMsg(std::vector<PdCertificate> c) : certs(std::move(c)) {}
  std::vector<PdCertificate> certs;
  std::string type_name() const override { return "cup.certs"; }
  std::uint16_t wire_type() const override { return kWireTypeCertGossip; }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(certs.size()));
    for (const PdCertificate& cert : certs) {
      w.u32(cert.owner);
      w.node_set(cert.pd);
    }
  }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const std::uint32_t count = r.u32();
    // Smallest possible entry is 12 bytes (owner + empty NodeSet), so a
    // forged count cannot force an oversized reservation.
    if (!r.fits(count, 12)) {
      r.fail();
      return nullptr;
    }
    std::vector<PdCertificate> certs;
    certs.reserve(count);
    ProcessId prev = kInvalidProcess;
    for (std::uint32_t i = 0; i < count; ++i) {
      const ProcessId owner = r.u32();
      if (i > 0 && owner <= prev) {
        // Canonical frames list owners in strictly ascending order;
        // anything else (a duplicate included) is a forgery or corruption.
        r.fail();
        return nullptr;
      }
      certs.push_back({owner, r.node_set()});
      prev = owner;
      if (!r.ok()) return nullptr;
    }
    return sim::make_message<CertGossipMsg>(std::move(certs));
  }
};

/// Step 2/3 of the SINK algorithm: the sender believes the set of processes
/// it can discover is `known`.
struct KnownMsg final : sim::Message {
  explicit KnownMsg(NodeSet k) : known(std::move(k)) {}
  NodeSet known;
  std::string type_name() const override { return "cup.known"; }
  std::uint16_t wire_type() const override { return kWireTypeKnown; }
  void wire_encode(sim::WireWriter& w) const override { w.node_set(known); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    NodeSet known = r.node_set();
    if (!r.ok()) return nullptr;
    return sim::make_message<KnownMsg>(std::move(known));
  }
};

/// Reachable-reliable broadcast payload: `origin` asks the sink members to
/// send it the sink (tag GET_SINK in Algorithm 3). Flooded along knowledge
/// edges with per-origin deduplication.
struct GetSinkMsg final : sim::Message {
  explicit GetSinkMsg(ProcessId o) : origin(o) {}
  ProcessId origin;
  std::string type_name() const override { return "cup.get_sink"; }
  std::uint16_t wire_type() const override { return kWireTypeGetSink; }
  void wire_encode(sim::WireWriter& w) const override { w.u32(origin); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const ProcessId origin = r.u32();
    if (!r.ok()) return nullptr;
    return sim::make_message<GetSinkMsg>(origin);
  }
};

/// ⟨SINK, V⟩ in Algorithm 3: the sender claims the sink component is `sink`.
struct SinkValueMsg final : sim::Message {
  explicit SinkValueMsg(NodeSet s) : sink(std::move(s)) {}
  NodeSet sink;
  std::string type_name() const override { return "cup.sink_value"; }
  std::uint16_t wire_type() const override { return kWireTypeSinkValue; }
  void wire_encode(sim::WireWriter& w) const override { w.node_set(sink); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    NodeSet sink = r.node_set();
    if (!r.ok()) return nullptr;
    return sim::make_message<SinkValueMsg>(std::move(sink));
  }
};

}  // namespace scup::cup
