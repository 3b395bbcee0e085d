// d6_lifetime — scheduler-callback escape analysis.
//
//   arm_raw     captures a raw Device* -> finding
//   arm_handle  captures the generation-checked handle and re-validates via
//               resolve() + nullptr check at fire time -> proven site
//   arm_waived  raw capture under a lifetime-ok marker -> suppressed
//   arm_waived_trailing_tag
//               the marker trails a multi-line statement: the whole schedule
//               statement is one waiver range -> suppressed
//   arm_id      value capture of a plain id -> fine
//
// test_taint asserts exactly one finding (the marked line) and exactly one
// proven lifetime site for this fixture.
struct Device {
  void tick();
};

void arm_raw(Scheduler& scheduler, Device* dev) {
  scheduler.schedule_in(5, [dev] {  // EXPECT-D6
    dev->tick();
  });
}

void arm_handle(Scheduler& scheduler, Registry& registry, EndpointHandle handle) {
  scheduler.schedule_in(5, [handle, &registry] {
    Device* live = registry.resolve(handle);
    if (live == nullptr) return;
    live->tick();
  });
}

void arm_waived(Scheduler& scheduler, Device* dev) {
  // blap-taint: lifetime-ok — fixture: dev outlives the scheduler by construction
  scheduler.schedule_in(5, [dev] { dev->tick(); });
}

void arm_waived_trailing_tag(Scheduler& scheduler, RadioEndpoint* responder) {
  scheduler.schedule_in(625, [responder] {
    responder->tick();
  });  // blap-taint: lifetime-ok — fixture: liveness re-verified at fire time
}

void arm_id(Scheduler& scheduler, RadioEndpoint* responder) {
  unsigned long long id = 7;
  scheduler.schedule_in(625, [id] { (void)id; });
  (void)responder;
}
