// IP address management — paper §IV and §V-B.2/4.
//
// S-CORE's location identification relies on servers being numbered from a
// subnet associated with each rack: "This is achieved by assigning servers IP
// addresses from a subnet associated with each rack. A VM can then use a
// combination of static topology information and active probing to identify
// the number of hops to any other VM." VM ids are IPv4 addresses ("we have
// used the IPv4 address of a VM as the 32-bit VM ID"), handed out by a
// centralized VM instance placement manager.
//
// The Ipam implements both roles:
//   * dom0/server addressing: host h in rack r gets 10.(r>>8).(r&255).(h+1)
//     within its rack /24 — so the rack (and with the static topology, the
//     pod) is recoverable from any dom0 address, which is what the
//     "precomputed location cost mapping" (§V-B.4) indexes on;
//   * VM addressing: VM ids allocated sequentially from a disjoint 172.16/12
//     block, with the VM -> current-host directory maintained on migration
//     (the placement-manager role).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace score::hypervisor {

using Ipv4 = std::uint32_t;

/// Dotted-quad rendering, for logs and demos.
std::string format_ipv4(Ipv4 addr);

class Ipam {
 public:
  explicit Ipam(const topo::Topology& topology);

  // ---- dom0 (server) addressing -------------------------------------------
  /// Address of host h's dom0 (its rack subnet is 10.rr.rr.0/24).
  Ipv4 host_address(topo::HostId host) const { return host_addr_.at(host); }

  /// Host owning a dom0 address; throws std::out_of_range for foreign
  /// addresses. With Topology::comm_level it is the §V-B.4 location cost
  /// mapping ("a lookup into a precomputed location cost mapping with its own
  /// IP address and the IP address of the underlying dom0").
  topo::HostId host_of_address(Ipv4 addr) const;

  // ---- VM addressing (placement-manager role) ------------------------------
  /// Allocate the next VM id/address and record its host. Sequential ids keep
  /// the token's total order (paper: "over 4 billion IDs before recycling").
  Ipv4 allocate_vm(topo::HostId host);

  /// Current host of a VM address (the directory a token sender consults —
  /// physically, the fabric delivers to the VM's current host and the NAT
  /// redirect hands the message to dom0).
  topo::HostId vm_host(Ipv4 vm_addr) const;

  /// Update the directory after a live migration.
  void move_vm(Ipv4 vm_addr, topo::HostId new_host);

  std::size_t num_vms() const { return vm_host_.size(); }

  /// The VM address block base (172.16.0.0).
  static constexpr Ipv4 kVmBase = (172u << 24) | (16u << 16);

 private:
  std::size_t vm_index(Ipv4 vm_addr) const;

  const topo::Topology* topo_;
  std::vector<Ipv4> host_addr_;
  std::vector<topo::HostId> vm_host_;
};

}  // namespace score::hypervisor
