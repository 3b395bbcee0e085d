// s2_key_and_pin_log — secret fields reaching a log call, by type.
//
//   log_stored_key  a crypto::LinkKey field reaches BLAP_DEBUG -> finding
//   log_pin         a crypto::PinCode field reaches BLAP_INFO -> finding
//   log_key_event   logs the key *event* (peer name; prose mentioning
//                   Link_Key_Request) -> clean
//
// Never compiled.
struct Bond {
  crypto::LinkKey link_key;
  crypto::PinCode pin_code;
  const char* name;
};

const char* hex(const crypto::LinkKey& key);

void log_stored_key(const Bond& bond) {
  BLAP_DEBUG("host", "stored key %s", hex(bond.link_key));  // EXPECT-S2
}

void log_pin(const Bond& bond) {
  BLAP_INFO("host", "pin %s", bond.pin_code.c_str());  // EXPECT-S2
}

void log_key_event(const Bond& bond) {
  BLAP_INFO("host", "link key stored for %s", bond.name);
}
