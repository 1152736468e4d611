#include "sim/notary.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace scup::sim {

Notary::Notary(std::size_t n, std::uint64_t seed) : logs_(n) {
  Rng rng(seed ^ 0x517e7a11ULL);
  secrets_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) secrets_.push_back(rng.next_u64());
}

Notary::Token Notary::token_for(ProcessId signer,
                                std::uint64_t statement) const {
  if (signer >= secrets_.size()) throw std::out_of_range("Notary::sign");
  return hash_mix(secrets_[signer], statement, 0x5197ULL);
}

Notary::Token Notary::sign(ProcessId signer, std::uint64_t statement) const {
  const Token token = token_for(signer, statement);
  logs_[signer].push_back(statement);
  return token;
}

std::uint64_t Notary::fingerprint() const {
  std::uint64_t h = 0x10742a15ULL;
  for (ProcessId signer = 0; signer < logs_.size(); ++signer) {
    for (std::uint64_t statement : logs_[signer]) {
      h = hash_mix(h, signer, statement);
    }
  }
  return h;
}

std::vector<std::pair<ProcessId, std::uint64_t>> Notary::log() const {
  std::vector<std::pair<ProcessId, std::uint64_t>> out;
  for (ProcessId signer = 0; signer < logs_.size(); ++signer) {
    for (std::uint64_t statement : logs_[signer]) {
      out.emplace_back(signer, statement);
    }
  }
  return out;
}

bool Notary::verify(ProcessId signer, std::uint64_t statement,
                    Token token) const {
  if (signer >= secrets_.size()) return false;
  return token_for(signer, statement) == token;
}

}  // namespace scup::sim
