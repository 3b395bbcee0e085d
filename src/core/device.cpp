#include "core/device.hpp"

namespace blap::core {

Device::Device(Scheduler& scheduler, radio::RadioMedium& medium, DeviceSpec spec, Rng rng,
               obs::Observer* observer)
    : medium_(medium), spec_(std::move(spec)) {
  if (spec_.transport == TransportKind::kUsb) {
    auto usb = std::make_unique<transport::UsbTransport>(scheduler);
    usb_transport_ = usb.get();
    transport_ = std::move(usb);
  } else {
    transport_ = std::make_unique<transport::UartTransport>(scheduler);
  }

  controller::ControllerConfig controller_config = spec_.controller;
  controller_config.address = spec_.address;
  controller_config.class_of_device = spec_.class_of_device;
  controller_config.name = spec_.name;
  controller_ =
      std::make_unique<controller::Controller>(scheduler, medium, *transport_,
                                               controller_config, rng.fork());

  host::HostConfig host_config = spec_.host;
  host_config.device_name = spec_.name;
  // A device born into a faulty medium starts with recovery switched on
  // (matching what Simulation::set_fault_plan does for existing devices).
  if (medium.faults_enabled()) host_config.fault_recovery = true;
  host_ = std::make_unique<host::HostStack>(scheduler, *transport_, host_config);
  if (observer != nullptr) set_observer(observer);
  host_->power_on();
}

void Device::set_observer(obs::Observer* observer) {
  controller_->set_observer(observer);
  host_->set_observer(observer);
}

void Device::set_radio_enabled(bool enabled) {
  if (enabled == radio_enabled_) return;
  radio_enabled_ = enabled;
  if (enabled) medium_.attach(controller_.get());
  else medium_.detach(controller_.get());
}

void Device::spoof_identity(const BdAddr& address, ClassOfDevice class_of_device) {
  spec_.address = address;
  spec_.class_of_device = class_of_device;
  controller_->set_address(address);
  controller_->set_class_of_device(class_of_device);
}

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void Device::persist(Io& io, Self& self) {
  io.field(self.radio_enabled_);
  io.field(self.spec_.address);
  io.field(self.spec_.class_of_device);
  io.field(*self.transport_);
  io.field(*self.controller_);
  io.field(*self.host_);
}

template void Device::persist(state::StateWriter&, const Device&);
template void Device::persist(state::StateReader&, Device&);

Simulation::Simulation(std::uint64_t seed)
    : rng_(seed), medium_(scheduler_, Rng(seed ^ 0x9E3779B97F4A7C15ULL)) {}

Device& Simulation::add_device(DeviceSpec spec) {
  devices_.push_back(std::make_unique<Device>(scheduler_, medium_, std::move(spec),
                                              rng_.fork(), obs_.get()));
  // Let power-on traffic (Reset, Read_BD_ADDR, ...) drain.
  scheduler_.run_for(10 * kMillisecond);
  return *devices_.back();
}

void Simulation::set_fault_plan(faults::FaultPlan plan) {
  medium_.set_fault_plan(std::move(plan));
  const bool enabled = medium_.faults_enabled();
  for (const auto& device : devices_) {
    device->controller().refresh_fault_state();
    device->host().config().fault_recovery = enabled;
  }
}

void Simulation::reseed(std::uint64_t seed) {
  // Mirrors construction exactly: Simulation(seed) seeds rng_ and the
  // medium's jitter stream, then each add_device() forks a device stream
  // whose own fork feeds the controller (the host draws no randomness).
  rng_ = Rng(seed);
  medium_.set_rng(Rng(seed ^ 0x9E3779B97F4A7C15ULL));
  for (const auto& device : devices_) {
    Rng device_rng = rng_.fork();
    device->controller().set_rng(device_rng.fork());
  }
}

std::vector<radio::RadioEndpoint*> Simulation::endpoint_roster() {
  std::vector<radio::RadioEndpoint*> roster;
  roster.reserve(devices_.size());
  for (const auto& device : devices_) roster.push_back(&device->controller());
  return roster;
}

obs::Observer& Simulation::enable_observability(obs::ObsConfig config) {
  obs_ = std::make_unique<obs::Observer>(config);
  scheduler_.set_hook(obs_.get());
  medium_.set_observer(obs_.get());
  for (const auto& device : devices_) device->set_observer(obs_.get());
  return *obs_;
}

}  // namespace blap::core
