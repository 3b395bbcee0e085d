// s2_sinks — one statement per non-log sink kind.
//
//   snapshot        StateWriter method with tainted argument, or a field
//                   kind of a snapshot field list on any receiver
//   serializer      `out += tainted` in a to_*-named function
//   record-builder  make_event(<key-bearing event>, ...) in a tests/ path
//                   (fires regardless of taint: corpus builders derive key
//                   bytes from a PRNG, which dataflow alone cannot see)
//
// save_key_section and persist_key_section show the snapshot sink
// declassified into a site.
struct LinkKey {
  unsigned char bytes[16];
};

struct Bond {
  LinkKey link_key;
  unsigned int handle;
};

const char* hex(const LinkKey& key);

void save_bond(StateWriter& w, const Bond& bond) {
  w.u32(bond.handle);
  w.fixed(bond.link_key);  // EXPECT-S2
}

void save_key_section(StateWriter& w, const Bond& bond) {
  w.u32(bond.handle);
  // blap-taint: declassified — fixture: length-framed key section
  w.fixed(bond.link_key);
}

template <class Archive, class Self>
void persist_bond(Archive& ar, Self& bond) {
  ar.field(bond.handle);
  ar.field(bond.link_key);  // EXPECT-S2
}

template <class Archive, class Self>
void persist_key_section(Archive& ar, Self& bond) {
  ar.field(bond.handle);
  // blap-taint: declassified — fixture: field-list key section
  ar.field(bond.link_key);
}

void to_json(std::string& out, const Bond& bond) {
  out += "{\"handle\": ";
  out += std::to_string(bond.handle);
  out += hex(bond.link_key);  // EXPECT-S2
}

Bytes key_record(const Bond& bond) {
  ByteWriter w;
  w.append(bond.link_key.bytes, 16);
  return make_event(ev::kReturnLinkKeys, w.data());  // EXPECT-S2
}
