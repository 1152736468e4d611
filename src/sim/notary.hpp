// Signature simulation.
//
// The paper's model assumes authenticated channels and (implicitly, via the
// BFT-CUP substrate) the ability to present unforgeable evidence of what
// other processes said (e.g. PBFT view-change certificates). Instead of real
// cryptography we keep a per-process secret inside the simulator: a token is
// a keyed hash of (secret, statement). Correct processes sign only their own
// statements through Process-level helpers; Byzantine implementations can
// replay tokens they have observed but cannot mint tokens for other
// processes (they never see the secrets).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace scup::sim {

class Notary {
 public:
  using Token = std::uint64_t;

  Notary(std::size_t n, std::uint64_t seed);

  /// Token binding `signer` to `statement`. Every call is appended to the
  /// signer's own log, so the signing trace doubles as a protocol-behaviour
  /// fingerprint for determinism checks. A process signs only as itself,
  /// on its own shard and in its own event order, so each per-signer log
  /// has a single writer and the same contents under every shard count.
  Token sign(ProcessId signer, std::uint64_t statement) const;

  /// Signature check; does not log (verification is a read).
  bool verify(ProcessId signer, std::uint64_t statement, Token token) const;

  /// Order-sensitive hash of the sign logs (signers in id order, each
  /// signer's statements in signing order) — the determinism fingerprint
  /// the shard-invariance suites compare (cheaper to pin than the logs).
  std::uint64_t fingerprint() const;

  /// Every (signer, statement) pair signed so far, grouped by signer in id
  /// order, each signer's statements in signing order. Two runs of the
  /// same seeded simulation must produce identical logs.
  std::vector<std::pair<ProcessId, std::uint64_t>> log() const;

 private:
  Token token_for(ProcessId signer, std::uint64_t statement) const;

  std::vector<std::uint64_t> secrets_;
  /// The logs are observational state, not signature semantics; sign()
  /// stays const for callers holding the simulation's const notary
  /// reference.
  mutable std::vector<std::vector<std::uint64_t>> logs_;
};

}  // namespace scup::sim
