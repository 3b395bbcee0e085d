// Fixture for rule S1 (centralized association-model decisions). Never
// compiled.
enum IoCapability { kDisplayYesNo, kNoInputNoOutput };

bool bad_iocap_check(IoCapability peer) {
  return peer == kNoInputNoOutput;  // EXPECT-S1
}

bool justified_iocap_check(IoCapability peer) {
  // blap-lint: spec-ok — this is the detector itself
  return peer == kNoInputNoOutput;
}

IoCapability fine_default(const IoCapability* maybe) {
  // A ternary *default* selects a value, it does not compare against one.
  return maybe != nullptr ? *maybe : kDisplayYesNo;
}
