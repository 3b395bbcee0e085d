// s2_renamed_buffer — a flow no name scan can see.
//
// Renaming the buffer through a local severs any match on identifiers that
// *name* key material — `staged` names nothing — while the bytes still
// reach the log. The S2 dataflow pass follows record.link_key -> staged ->
// hex(staged) -> BLAP_INFO regardless of the name; test_taint asserts it
// fires on exactly the marked line.
struct LinkKey {
  unsigned char bytes[16];
};

struct BondRecord {
  LinkKey link_key;
  int uses;
};

const char* hex(const LinkKey& key);

void log_bond(const BondRecord& record) {
  auto staged = record.link_key;
  BLAP_INFO("sec", "bond key = %s", hex(staged));  // EXPECT-S2
}

// Negative: derived non-secret state may be logged freely.
void log_bond_uses(const BondRecord& record) {
  BLAP_INFO("sec", "bond uses = %d", record.uses);
}
