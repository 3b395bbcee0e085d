// device.hpp — assembling complete Bluetooth devices and simulations.
//
// A Device is the full stack of one physical unit: host ⟷ transport
// (UART or USB) ⟷ controller ⟷ radio. A Simulation owns the shared
// scheduler, the radio medium, and any number of devices — the A/M/C
// three-device system model of the paper's §III.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "controller/controller.hpp"
#include "host/host.hpp"
#include "obs/obs.hpp"
#include "radio/radio_medium.hpp"
#include "transport/uart_transport.hpp"
#include "transport/usb_transport.hpp"

namespace blap::core {

enum class TransportKind : std::uint8_t {
  kUart,  // controller-type chipset inside a phone
  kUsb,   // PC + USB dongle ("QSENN CSR V4.0")
};

struct DeviceSpec {
  std::string name = "device";
  BdAddr address;
  ClassOfDevice class_of_device{ClassOfDevice::kMobilePhone};
  TransportKind transport = TransportKind::kUart;
  host::HostConfig host;
  /// Controller knobs; address/COD/name are overwritten from the fields
  /// above during assembly.
  controller::ControllerConfig controller;
};

class Device {
 public:
  /// `observer` may be null (observability off). When set, the controller
  /// and host are wired before power-on so even the Reset/Read_BD_ADDR
  /// bring-up traffic is observed.
  Device(Scheduler& scheduler, radio::RadioMedium& medium, DeviceSpec spec, Rng rng,
         obs::Observer* observer = nullptr);

  [[nodiscard]] host::HostStack& host() { return *host_; }
  [[nodiscard]] const host::HostStack& host() const { return *host_; }
  [[nodiscard]] controller::Controller& controller() { return *controller_; }
  [[nodiscard]] transport::HciTransport& transport() { return *transport_; }
  /// Non-null only for USB devices — where a sniffer can attach.
  [[nodiscard]] transport::UsbTransport* usb_transport() { return usb_transport_; }
  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] const BdAddr& address() const { return spec_.address; }

  /// Take the device on/off the air (a powered-down or out-of-range unit).
  void set_radio_enabled(bool enabled);
  [[nodiscard]] bool radio_enabled() const { return radio_enabled_; }

  /// Rewrite the radio identity (the paper's BDADDR/COD spoofing via
  /// /persist/bdaddr.txt + bt_target.h).
  void spoof_identity(const BdAddr& address, ClassOfDevice class_of_device);

  /// Attach (or detach, with nullptr) the simulation's observer to the
  /// controller and host of this device.
  void set_observer(obs::Observer* observer);

  /// Snapshot support: the device flags plus transport, controller and host
  /// state in fixed order. The medium's attachment list is serialized by
  /// the medium itself, so a load only restores the local flag.
  [[nodiscard]] bool quiescent() const {
    return controller_->quiescent() && host_->quiescent();
  }
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self);

 private:
  radio::RadioMedium& medium_;
  DeviceSpec spec_;
  std::unique_ptr<transport::HciTransport> transport_;
  transport::UsbTransport* usb_transport_ = nullptr;
  std::unique_ptr<controller::Controller> controller_;
  std::unique_ptr<host::HostStack> host_;
  bool radio_enabled_ = true;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed);

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] radio::RadioMedium& medium() { return medium_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Create, power on, and register a device.
  Device& add_device(DeviceSpec spec);

  [[nodiscard]] std::vector<std::unique_ptr<Device>>& devices() { return devices_; }

  void run_for(SimTime duration) { scheduler_.run_for(duration); }
  void run_until_idle() { scheduler_.run_all(); }
  [[nodiscard]] SimTime now() const { return scheduler_.now(); }

  /// Install (or clear, with a default-constructed plan) the fault plan on
  /// the shared medium and switch every device's recovery machinery
  /// accordingly: supervision timers are (re)armed on live links and host
  /// fault recovery (watchdog + pairing retry) follows plan.enabled().
  /// Devices added later pick the state up at construction. With a disabled
  /// plan the whole layer is inert and outputs stay byte-identical.
  void set_fault_plan(faults::FaultPlan plan);
  [[nodiscard]] const faults::FaultPlan& fault_plan() const { return medium_.fault_plan(); }

  /// Turn on tracing and/or metrics for this simulation. Devices added
  /// before and after the call are both wired. Off by default: without
  /// this call every instrumentation site in the stack is a single
  /// never-taken branch on a null pointer.
  obs::Observer& enable_observability(obs::ObsConfig config);
  /// Null unless enable_observability() was called.
  [[nodiscard]] obs::Observer* observer() { return obs_.get(); }

  /// Per-trial reseed: re-derive every Rng stream exactly as construction
  /// would for `seed`. Scenario setup consumes no random draws, so a
  /// restored warm snapshot plus reseed(trial_seed) is byte-identical to a
  /// fresh build with that seed.
  void reseed(std::uint64_t seed);

  /// The canonical endpoint roster — every device's controller in device
  /// order. Snapshots identify endpoints by index into this list.
  [[nodiscard]] std::vector<radio::RadioEndpoint*> endpoint_roster();

 private:
  Scheduler scheduler_;
  Rng rng_;
  radio::RadioMedium medium_;
  std::unique_ptr<obs::Observer> obs_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace blap::core
