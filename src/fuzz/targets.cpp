#include "fuzz/targets.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "fuzz/codec_harness.hpp"
#include "hci/commands.hpp"
#include "hci/events.hpp"
#include "snapshot/chaos_trial.hpp"

namespace blap::fuzz {
namespace {

/// Byte-serialize a packet's full H4 wire form into a seed input.
Bytes wire_seed(const hci::HciPacket& packet) { return packet.to_wire(); }

}  // namespace

// --- hci_codec ---------------------------------------------------------------

std::vector<Bytes> HciCodecTarget::seed_inputs() const {
  std::vector<Bytes> seeds;
  seeds.push_back(wire_seed(hci::encode(hci::CreateConnectionCmd{})));
  seeds.push_back(wire_seed(hci::encode(hci::DisconnectCmd{.handle = 0x0042})));
  hci::ConnectionCompleteEvt complete;
  complete.handle = 0x0042;
  seeds.push_back(wire_seed(hci::encode(complete)));
  hci::LinkKeyNotificationEvt key;
  key.link_key.fill(0x5A);
  seeds.push_back(wire_seed(hci::encode(key)));
  // ACL fragment with continuation flags set — exercises the PB/BC paths.
  seeds.push_back(
      wire_seed(hci::make_acl_fragment(0x0042, 1, 0, Bytes{'e', 'c', 'h', 'o'})));
  return seeds;
}

ExecResult HciCodecTarget::execute(BytesView input, FeatureSink& sink) {
  const CheckResult check = check_hci_wire(input, &sink);
  if (check.ok) return {};
  return {true, "codec-round-trip", check.detail};
}

// --- lmp_codec ---------------------------------------------------------------

std::vector<Bytes> LmpCodecTarget::seed_inputs() const {
  std::vector<Bytes> seeds;
  controller::LmpPdu detach;
  detach.opcode = controller::LmpOpcode::kDetach;
  detach.payload = {0x13};
  seeds.push_back(detach.to_air_frame());

  controller::LmpPdu io_cap;
  io_cap.opcode = controller::LmpOpcode::kIoCapabilityReq;
  io_cap.payload = pdu::encode(controller::LmpIoCap{.io_capability = 1});
  seeds.push_back(io_cap.to_air_frame());

  controller::LmpPublicKey key;
  key.x.assign(32, 0x11);
  key.y.assign(32, 0x22);
  controller::LmpPdu pubkey;
  pubkey.opcode = controller::LmpOpcode::kEncapsulatedPublicKey;
  pubkey.payload = pdu::encode(key);
  seeds.push_back(pubkey.to_air_frame());

  controller::LmpPdu not_accepted;
  not_accepted.opcode = controller::LmpOpcode::kNotAccepted;
  not_accepted.payload =
      pdu::encode(controller::LmpNotAccepted{.rejected_opcode = controller::LmpOpcode::kAuRand,
                                             .reason = 0x05});
  seeds.push_back(not_accepted.to_air_frame());

  seeds.push_back(controller::acl_air_frame(Bytes{'l', '2', 'c', 'a', 'p'}));
  return seeds;
}

ExecResult LmpCodecTarget::execute(BytesView input, FeatureSink& sink) {
  const CheckResult check = check_lmp_frame(input, &sink);
  if (check.ok) return {};
  return {true, "codec-round-trip", check.detail};
}

// --- stack -------------------------------------------------------------------

StackTarget::StackTarget()
    : scenario_(snapshot::build_scenario(kStackSeed, snapshot::bonded_cell_params())) {
  snapshot::bonded_warm_setup(scenario_);
  std::string why;
  warm_ = snapshot::Snapshot::capture(*scenario_.sim, &why);
  if (!warm_.has_value()) {
    // Unreachable in a healthy tree — the snapshot tests gate exactly this
    // capture. Fail loudly rather than fuzz a dead scenario.
    std::fprintf(stderr, "StackTarget: warm capture failed: %s\n", why.c_str());
    std::abort();
  }
}

std::vector<Bytes> StackTarget::seed_inputs() const {
  std::vector<Bytes> seeds;

  // Pure time advance: 20 ticks x 50 ms, twice.
  seeds.push_back(Bytes{7, 20, 7, 20});

  // A well-formed Disconnect command injected at the target's host-side
  // transport, aimed at the live bonded ACL handle.
  {
    hci::ConnectionHandle handle = 0x0001;
    if (!scenario_.target->host().acls().empty())
      handle = scenario_.target->host().acls().front().handle;
    const Bytes wire = hci::encode(hci::DisconnectCmd{.handle = handle}).to_wire();
    Bytes seed{1, static_cast<std::uint8_t>(wire.size() > 1 ? wire.size() - 1 : 0)};
    // Op payloads are HciPacket bodies, not H4 wire: drop the type byte.
    seed.insert(seed.end(), wire.begin() + 1, wire.end());
    seed.push_back(7);
    seed.push_back(40);
    seeds.push_back(std::move(seed));
  }

  // A phantom ConnectionComplete event surfaced to the target host.
  {
    hci::ConnectionCompleteEvt evt;
    evt.handle = 0x0099;
    evt.bdaddr = scenario_.accessory->address();
    const Bytes wire = hci::encode(evt).to_wire();
    Bytes seed{0, static_cast<std::uint8_t>(wire.size() > 1 ? wire.size() - 1 : 0)};
    seed.insert(seed.end(), wire.begin() + 1, wire.end());
    seed.push_back(7);
    seed.push_back(40);
    seeds.push_back(std::move(seed));
  }

  // An LMP detach frame on the air toward the target.
  {
    controller::LmpPdu detach;
    detach.opcode = controller::LmpOpcode::kDetach;
    detach.payload = {0x13};
    const Bytes frame = detach.to_air_frame();
    Bytes seed{3, static_cast<std::uint8_t>(frame.size())};
    seed.insert(seed.end(), frame.begin(), frame.end());
    seed.push_back(7);
    seed.push_back(40);
    seeds.push_back(std::move(seed));
  }

  return seeds;
}

std::vector<Bytes> StackTarget::dictionary_extras() const {
  std::vector<Bytes> extras;
  for (const core::Device* device :
       {scenario_.target, scenario_.accessory, scenario_.attacker}) {
    if (device == nullptr) continue;
    const auto& addr = device->address().bytes();
    extras.emplace_back(addr.begin(), addr.end());
  }
  for (const auto& acl : scenario_.target->host().acls()) {
    extras.push_back(Bytes{static_cast<std::uint8_t>(acl.handle & 0xFF),
                           static_cast<std::uint8_t>((acl.handle >> 8) & 0xFF)});
  }
  return extras;
}

ExecResult StackTarget::execute(BytesView input, FeatureSink& sink) {
  const snapshot::FuzzFeatureFn feature = [&sink](std::uint8_t domain,
                                                  std::uint64_t value) {
    sink.hash(domain, value);
  };
  last_report_ =
      snapshot::run_fuzz_stack_trial(scenario_, *warm_, kStackSeed, input, feature);
  if (!last_report_.finding()) return {};
  return {true, last_report_.finding_kind(), last_report_.finding_detail()};
}

std::optional<snapshot::ReplayBundle> StackTarget::make_bundle(BytesView input,
                                                               const ExecResult& result) {
  (void)result;  // the bundle records last_report_'s verdict, finding or clean
  return snapshot::fuzz_stack_bundle(kStackSeed, input, last_report_, *warm_);
}

// --- registry ----------------------------------------------------------------

std::vector<std::string> target_names() { return {"hci_codec", "lmp_codec", "stack"}; }

TargetFactory resolve_target(const std::string& name) {
  if (name == "hci_codec")
    return [] { return std::unique_ptr<FuzzTarget>(new HciCodecTarget()); };
  if (name == "lmp_codec")
    return [] { return std::unique_ptr<FuzzTarget>(new LmpCodecTarget()); };
  if (name == "stack")
    return [] { return std::unique_ptr<FuzzTarget>(new StackTarget()); };
  return nullptr;
}

}  // namespace blap::fuzz
