#include "hypervisor/ipam.hpp"

#include <stdexcept>

namespace score::hypervisor {

std::string format_ipv4(Ipv4 addr) {
  return std::to_string(addr >> 24) + "." + std::to_string((addr >> 16) & 255) +
         "." + std::to_string((addr >> 8) & 255) + "." + std::to_string(addr & 255);
}

Ipam::Ipam(const topo::Topology& topology) : topo_(&topology) {
  const std::size_t hosts = topology.num_hosts();
  const std::size_t hosts_per_rack = hosts / topology.num_racks();
  if (hosts_per_rack > 254) {
    throw std::invalid_argument("Ipam: more than 254 hosts per rack /24");
  }
  host_addr_.resize(hosts);
  for (topo::HostId h = 0; h < hosts; ++h) {
    const auto rack = static_cast<std::uint32_t>(topology.rack_of(h));
    const auto index_in_rack = static_cast<std::uint32_t>(h % hosts_per_rack);
    host_addr_[h] = (10u << 24) | ((rack >> 8) << 16) | ((rack & 255u) << 8) |
                    (index_in_rack + 1);
  }
}

topo::HostId Ipam::host_of_address(Ipv4 addr) const {
  if ((addr >> 24) != 10u) {
    throw std::out_of_range("Ipam: not a dom0 address");
  }
  const std::uint32_t rack = ((addr >> 16) & 255u) << 8 | ((addr >> 8) & 255u);
  const std::uint32_t index_in_rack = (addr & 255u) - 1;
  const std::size_t hosts_per_rack = topo_->num_hosts() / topo_->num_racks();
  if (rack >= topo_->num_racks() || index_in_rack >= hosts_per_rack) {
    throw std::out_of_range("Ipam: address outside the fabric");
  }
  return static_cast<topo::HostId>(rack * hosts_per_rack + index_in_rack);
}

Ipv4 Ipam::allocate_vm(topo::HostId host) {
  if (host >= topo_->num_hosts()) {
    throw std::out_of_range("Ipam::allocate_vm: bad host");
  }
  const Ipv4 addr = kVmBase + static_cast<Ipv4>(vm_host_.size());
  vm_host_.push_back(host);
  return addr;
}

std::size_t Ipam::vm_index(Ipv4 vm_addr) const {
  if (vm_addr < kVmBase || vm_addr - kVmBase >= vm_host_.size()) {
    throw std::out_of_range("Ipam: unknown VM address");
  }
  return vm_addr - kVmBase;
}

topo::HostId Ipam::vm_host(Ipv4 vm_addr) const { return vm_host_[vm_index(vm_addr)]; }

void Ipam::move_vm(Ipv4 vm_addr, topo::HostId new_host) {
  if (new_host >= topo_->num_hosts()) {
    throw std::out_of_range("Ipam::move_vm: bad host");
  }
  vm_host_[vm_index(vm_addr)] = new_host;
}

}  // namespace score::hypervisor
