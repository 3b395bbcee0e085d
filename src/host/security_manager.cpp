#include "host/security_manager.hpp"

#include <sstream>

namespace blap::host {

void SecurityManager::store_bond(BondRecord record) {
  bonds_[record.address] = std::move(record);
}

std::optional<crypto::LinkKey> SecurityManager::link_key_for(const BdAddr& address) const {
  auto it = bonds_.find(address);
  if (it == bonds_.end()) return std::nullopt;
  return it->second.link_key;
}

const BondRecord* SecurityManager::bond_for(const BdAddr& address) const {
  auto it = bonds_.find(address);
  return it == bonds_.end() ? nullptr : &it->second;
}

bool SecurityManager::is_bonded(const BdAddr& address) const { return bonds_.contains(address); }

void SecurityManager::remove_bond(const BdAddr& address) { bonds_.erase(address); }

std::vector<BondRecord> SecurityManager::bonds() const {
  std::vector<BondRecord> out;
  out.reserve(bonds_.size());
  for (const auto& [addr, record] : bonds_) out.push_back(record);
  return out;
}

bool SecurityManager::on_authentication_result(const BdAddr& address, hci::Status status) {
  // Real stacks purge the bond on a *cryptographic* failure; timeouts and
  // disconnects leave it alone (the peer may simply have gone away).
  if (status == hci::Status::kAuthenticationFailure ||
      status == hci::Status::kPinOrKeyMissing) {
    if (bonds_.erase(address) > 0) return true;
  }
  return false;
}

bool SecurityManager::is_transient_failure(hci::Status status) {
  // The timeout family: the channel (or the peer's channel) failed us, not
  // the cryptography. Everything else is treated as permanent.
  return status == hci::Status::kPageTimeout ||
         status == hci::Status::kConnectionTimeout ||
         status == hci::Status::kConnectionAcceptTimeout ||
         status == hci::Status::kLmpResponseTimeout;
}

std::optional<SimTime> SecurityManager::note_pairing_failure(const BdAddr& address,
                                                             hci::Status status) {
  if (!is_transient_failure(status)) {
    failed_attempts_.erase(address);
    return std::nullopt;
  }
  unsigned& attempts = failed_attempts_[address];
  ++attempts;
  if (attempts >= retry_policy_.max_attempts) {
    // Budget spent: surface the error and reset, so a later user-initiated
    // operation gets a fresh budget instead of failing instantly forever.
    failed_attempts_.erase(address);
    return std::nullopt;
  }
  // Exponential backoff: 1x, 2x, 4x ... of the initial backoff.
  return retry_policy_.initial_backoff << (attempts - 1);
}

void SecurityManager::note_pairing_success(const BdAddr& address) {
  failed_attempts_.erase(address);
}

unsigned SecurityManager::pairing_attempts(const BdAddr& address) const {
  auto it = failed_attempts_.find(address);
  return it == failed_attempts_.end() ? 0 : it->second;
}

std::string SecurityManager::to_bt_config() const {
  // Sequential append (rather than operator+ chains) sidesteps GCC 12's
  // -Wrestrict false positive on temporary-string concatenation (PR 105329).
  std::string out;
  for (const auto& [addr, record] : bonds_) {
    out.append("[").append(addr.to_string()).append("]\n");
    out.append("Name = ").append(record.name).append("\n");
    if (!record.services.empty()) {
      out.append("Service =");
      for (const auto& service : record.services) {
        out.append(" ").append(service.to_string());
      }
      out.append("\n");
    }
    // blap-taint: declassified — bt_config.conf bond export: the attack surface
    // the paper's extraction pipeline scrapes (Sec. 4); keys here are the point
    out.append("LinkKey = ").append(hex(record.link_key)).append("\n");
    out.append("LinkKeyType = ")
        .append(std::to_string(static_cast<unsigned>(record.key_type)))
        .append("\n\n");
  }
  return out;
}

SecurityManager SecurityManager::from_bt_config(const std::string& text) {
  SecurityManager manager;
  std::istringstream in(text);
  std::string line;
  BondRecord current;
  bool in_section = false;
  bool current_has_key = false;

  auto flush = [&] {
    if (in_section && current_has_key) manager.store_bond(std::move(current));
    current = BondRecord{};
    in_section = false;
    current_has_key = false;
  };

  auto trim = [](std::string s) {
    const auto begin = s.find_first_not_of(" \t\r\n");
    const auto end = s.find_last_not_of(" \t\r\n");
    if (begin == std::string::npos) return std::string();
    return s.substr(begin, end - begin + 1);
  };

  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    if (line.front() == '[' && line.back() == ']') {
      flush();
      auto addr = BdAddr::parse(line.substr(1, line.size() - 2));
      if (addr) {
        in_section = true;
        current.address = *addr;
      }
      continue;
    }
    if (!in_section) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key == "Name") {
      current.name = value;
    } else if (key == "Service") {
      std::istringstream services(value);
      std::string token;
      while (services >> token) {
        if (auto uuid = Uuid::parse(token)) current.services.push_back(*uuid);
      }
    } else if (key == "LinkKey") {
      if (auto parsed = crypto::link_key_from_hex(value)) {
        current.link_key = *parsed;
        current_has_key = true;
      }
    } else if (key == "LinkKeyType") {
      current.key_type = static_cast<crypto::LinkKeyType>(std::stoi(value));
    }
  }
  flush();
  return manager;
}

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void SecurityManager::persist(Io& io, Self& self) {
  io.map(self.bonds_, state::Duplicates::kFirstWins, [&io](auto& address, auto& bond) {
    io.field(address);
    if constexpr (Io::kLoading) bond.address = address;
    io.field(bond.name);
    // blap-taint: declassified — snapshot key section (bond store)
    io.field(bond.link_key);
    io.field(bond.key_type);
    io.seq(bond.services);
  });
  io.map(self.failed_attempts_, state::Duplicates::kLastWins, [&io](auto& address, auto& attempts) {
    io.field(address);
    io.field(attempts);
  });
  io.field(self.retry_policy_.max_attempts);
  io.field(self.retry_policy_.initial_backoff);
}

template void SecurityManager::persist(state::StateWriter&, const SecurityManager&);
template void SecurityManager::persist(state::StateReader&, SecurityManager&);

}  // namespace blap::host
