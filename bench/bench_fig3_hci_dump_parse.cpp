// Reproduces FIG. 3: "A link key in a HCI packet and its HCI dump".
//
// The paper's figure shows a bonded phone whose HCI dump contains an
// HCI_Link_Key_Request_Reply command carrying the link key in plaintext,
// decodable by any parser. This bench bonds C to M, reconnects so the stored
// key crosses C's HCI, then:
//   * prints the frame table around the key-bearing packet,
//   * prints the RADIX byte view ("01 0b 04 16 ..." — packet indicator,
//     opcode, length, BD_ADDR, key),
//   * decodes the packet field by field, and
//   * verifies the decoded key equals the bonded key.
#include "bench_util.hpp"

#include "core/snoop_extractor.hpp"
#include "hci/commands.hpp"

int main() {
  using namespace blap;
  using namespace blap::bench;

  Scenario s = make_scenario(3, core::table2_profiles()[5], core::TransportKind::kUart, true);
  s.attacker->set_radio_enabled(false);

  // Bond, disconnect, enable the dump, reconnect: the reconnection pulls the
  // stored key across the HCI.
  bool done = false;
  s.accessory->host().pair(s.target->address(), [&](hci::Status) { done = true; });
  s.sim->run_for(20 * kSecond);
  s.accessory->host().disconnect(s.target->address());
  s.sim->run_for(2 * kSecond);

  s.accessory->host().enable_snoop(true);
  done = false;
  s.accessory->host().pair(s.target->address(), [&](hci::Status) { done = true; });
  s.sim->run_for(20 * kSecond);

  banner("FIG. 3 — A link key in an HCI packet and its HCI dump (device C)");
  std::printf("%s\n", s.accessory->host().snoop().format_table().c_str());

  // Locate the key-bearing record and show its wire bytes + decoded fields.
  const auto extracted = core::extract_link_key_for(s.accessory->host().snoop(),
                                                    s.target->address());
  if (!extracted) {
    std::printf("ERROR: no link key found in the dump\n");
    return 1;
  }
  const auto& record = s.accessory->host().snoop().records()[extracted->frame_index - 1];
  const Bytes wire = record.packet.to_wire();
  std::printf("Frame %zu RADIX view:\n%s\n", extracted->frame_index,
              hexdump(wire).c_str());

  auto params = record.packet.command_params();
  auto cmd = pdu::decode<hci::LinkKeyRequestReplyCmd>(*params);
  std::printf("Decoded HCI_Link_Key_Request_Reply:\n");
  std::printf("  packet indicator : 0x%02x (HCI command)\n", wire[0]);
  std::printf("  opcode           : 0x%04x (%s)\n", *record.packet.command_opcode(),
              hci::opcode_name(*record.packet.command_opcode()));
  std::printf("  total length     : %zu (0x16 = 22 parameter bytes)\n", params->size());
  std::printf("  BD_ADDR          : %s  (NAP 0x%04x, UAP 0x%02x, LAP 0x%06x)\n",
              cmd->bdaddr.to_string().c_str(), cmd->bdaddr.nap(), cmd->bdaddr.uap(),
              cmd->bdaddr.lap());
  std::printf("  Link_Key         : %s\n", hex(cmd->link_key).c_str());

  const auto bonded = s.accessory->host().security().link_key_for(s.target->address());
  const bool ok = bonded && cmd->link_key == *bonded;
  std::printf("\nkey in dump == bonded key: %s\nFig. 3 shape %s\n", ok ? "yes" : "NO",
              ok ? "HOLDS" : "DOES NOT HOLD");
  return ok ? 0 : 1;
}
