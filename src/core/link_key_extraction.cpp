#include "core/link_key_extraction.hpp"

#include "common/log.hpp"
#include "core/bug_report.hpp"

namespace blap::core {

LinkKeyExtractionReport LinkKeyExtractionAttack::run(Simulation& sim, Device& attacker,
                                                     Device& accessory, Device& target,
                                                     const LinkKeyExtractionOptions& options) {
  LinkKeyExtractionReport report;
  report.capture_channel = options.use_usb_sniff ? "USB sniff" : "HCI dump";

  const BdAddr m_addr = target.address();
  const BdAddr c_addr = accessory.address();
  const ClassOfDevice m_cod = target.spec().class_of_device;
  const ClassOfDevice c_cod = accessory.spec().class_of_device;

  obs::Observer* obs = sim.observer();
  const std::uint32_t a_tid = obs != nullptr ? obs->device_tid(attacker.spec().name) : 0;
  if (obs != nullptr) obs->count("attack.extraction.runs");

  // --- Precondition: C and M are bonded (the paper's testbed state). -------
  {
    const std::uint64_t bond_span =
        obs != nullptr ? obs->begin_span(sim.now(), a_tid, obs::Layer::kAttack,
                                         "precondition_bond", "legitimate C<->M pairing")
                       : 0;
    // Keep the attacker off the air while the legitimate bond forms.
    attacker.set_radio_enabled(false);
    bool paired = false;
    accessory.host().pair(m_addr, [&](hci::Status status) {
      paired = status == hci::Status::kSuccess;
    });
    sim.run_for(10 * kSecond);
    if (obs != nullptr && bond_span != 0)
      obs->end_span(sim.now(), bond_span, paired ? "bond established" : "FAILED");
    if (!paired) {
      BLAP_ERROR("attack", "precondition pairing C<->M failed");
      return report;
    }
    accessory.host().disconnect(m_addr);
    sim.run_for(kSecond);
  }
  report.bonded_precondition = accessory.host().security().is_bonded(m_addr) &&
                               target.host().security().is_bonded(c_addr);
  const auto real_key = accessory.host().security().link_key_for(m_addr);
  if (!report.bonded_precondition || !real_key) return report;

  // --- Step 1: arrange HCI recording on C. ---------------------------------
  std::unique_ptr<transport::UsbSniffer> sniffer;
  if (options.use_usb_sniff) {
    auto* usb = accessory.usb_transport();
    if (usb == nullptr) {
      BLAP_ERROR("attack", "USB sniff requested but %s has no USB transport",
                 accessory.spec().name.c_str());
      return report;
    }
    sniffer = std::make_unique<transport::UsbSniffer>(*usb, &sim.rng());
  } else {
    accessory.host().enable_snoop(true);
  }
  if (obs != nullptr && obs->tracing())
    obs->instant(sim.now(), a_tid, obs::Layer::kAttack, "step1_capture_armed",
                 strfmt("recording C's HCI traffic via %s", report.capture_channel.c_str()));

  // --- Steps 2 & 5: A impersonates M; A's host will stall the key request.
  target.set_radio_enabled(false);  // M is elsewhere during the attack
  attacker.set_radio_enabled(true);
  attacker.spoof_identity(m_addr, m_cod);
  if (obs != nullptr && obs->tracing())
    obs->instant(sim.now(), a_tid, obs::Layer::kAttack, "step2_impersonate_m",
                 strfmt("A answers as M (%s); key request will %s", m_addr.to_string().c_str(),
                        options.answer_with_wrong_key ? "get a bogus key" : "be stalled"));
  if (options.answer_with_wrong_key) {
    // Ablation: respond to the challenge with a bogus key instead.
    host::BondRecord bogus;
    bogus.address = c_addr;
    bogus.name = accessory.spec().name;
    Rng wrong_key_rng(0xBAD);
    bogus.link_key = crypto::random_link_key(wrong_key_rng);
    attacker.host().security().store_bond(std::move(bogus));
  } else {
    attacker.host().hooks().ignore_link_key_request = true;  // Fig. 9
  }

  // --- Step 3: C initiates reconnection + LMP authentication toward "M". ---
  const std::uint64_t reconnect_span =
      obs != nullptr ? obs->begin_span(sim.now(), a_tid, obs::Layer::kAttack,
                                       "step3_reconnect_auth",
                                       "C reconnects; its LinkKeyRequestReply is the capture")
                     : 0;
  bool c_completed = false;
  hci::Status c_status = hci::Status::kSuccess;
  accessory.host().pair(m_addr, [&](hci::Status status) {
    c_completed = true;
    c_status = status;
  });
  sim.run_for(options.attack_window);
  report.c_auth_status = c_completed ? c_status : hci::Status::kConnectionTimeout;
  if (obs != nullptr && reconnect_span != 0)
    obs->end_span(sim.now(), reconnect_span,
                  strfmt("C's auth ended: %s", to_string(report.c_auth_status)));

  // --- Step 5 outcome: did C keep its bond? ---------------------------------
  report.c_bond_survived = accessory.host().security().is_bonded(m_addr);
  if (obs != nullptr)
    obs->count(report.c_bond_survived ? "attack.extraction.bond_survived"
                                      : "attack.extraction.bond_lost");

  // --- Step 6: extract the key from the capture. ----------------------------
  std::vector<ExtractedKey> keys;
  if (options.use_usb_sniff) {
    keys = run_usb_extraction(*sniffer).keys;
  } else {
    // The snoop file itself lives in an inaccessible directory; the attacker
    // pulls it through an Android bug report (paper §IV-A, ref [22]).
    const std::string bug_report = generate_bug_report(accessory, sim.now());
    const auto snoop = extract_snoop_from_bug_report(bug_report);
    if (!snoop) {
      BLAP_ERROR("attack", "bug report carried no usable snoop attachment");
      return report;
    }
    keys = extract_link_keys(*snoop);
  }
  report.keys_in_capture = keys.size();
  std::optional<ExtractedKey> extracted;
  for (const auto& key : keys)
    if (key.peer == m_addr) extracted = key;
  if (extracted) {
    report.key_extracted = true;
    report.extracted_key = extracted->key;
    report.key_source = extracted->source;
    report.key_matches_bond = extracted->key == *real_key;
  }
  if (obs != nullptr) {
    obs->count(report.key_extracted ? "attack.extraction.keys_extracted"
                                    : "attack.extraction.no_key_in_capture");
    if (obs->tracing())
      obs->instant(sim.now(), a_tid, obs::Layer::kAttack, "step6_extract",
                   report.key_extracted
                       ? strfmt("link key recovered from %s (%zu keys in capture)",
                                to_string(report.key_source), report.keys_in_capture)
                       : std::string("capture held no usable key"));
  }

  // Undo the attack-phase manipulation.
  attacker.host().hooks().ignore_link_key_request = false;

  // --- Step 7: impersonate C against M; validate over PAN. ------------------
  if (options.validate_by_impersonation && report.key_extracted) {
    report.impersonation_attempted = true;
    const std::uint64_t validate_span =
        obs != nullptr ? obs->begin_span(sim.now(), a_tid, obs::Layer::kAttack,
                                         "step7_validate_impersonation",
                                         "A installs the extracted key as C's bond, opens PAN")
                       : 0;
    accessory.set_radio_enabled(false);  // the real C is out of range
    target.set_radio_enabled(true);

    // Fake bonding info (paper Fig. 10): M's address, the extracted key,
    // and the PAN service UUIDs — written as bt_config.conf and installed.
    host::SecurityManager fake;
    host::BondRecord bond;
    bond.address = m_addr;
    bond.name = target.spec().name;
    bond.link_key = report.extracted_key;
    bond.services = {Uuid::from_uuid16(uuid16::kPanu), Uuid::from_uuid16(uuid16::kNap)};
    fake.store_bond(std::move(bond));
    // Round-trip through the config-file format, as the real attack edits
    // the file on disk ("turn Bluetooth off and on" = stack reload).
    attacker.host().install_security(
        host::SecurityManager::from_bt_config(fake.to_bt_config()));
    attacker.spoof_identity(c_addr, c_cod);

    const std::size_t pairings_before = target.host().pairing_events().size();
    bool pan_done = false;
    bool pan_ok = false;
    attacker.host().connect_pan(m_addr, [&](bool connected) {
      pan_done = true;
      pan_ok = connected;
    });
    sim.run_for(15 * kSecond);
    const bool new_pairing_happened =
        target.host().pairing_events().size() > pairings_before;
    report.impersonation_succeeded = pan_done && pan_ok && !new_pairing_happened;
    report.impersonation_repaired = new_pairing_happened;
    if (obs != nullptr) {
      obs->count(report.impersonation_succeeded ? "attack.extraction.impersonation_success"
                                                : "attack.extraction.impersonation_failed");
      if (validate_span != 0)
        obs->end_span(sim.now(), validate_span,
                      report.impersonation_succeeded
                          ? "PAN opened on the stolen key, no re-pairing"
                          : (new_pairing_happened ? "M forced a fresh pairing"
                                                  : "PAN setup failed"));
    }
  }

  return report;
}

}  // namespace blap::core
