#include "replay/origin.h"

namespace h2push::replay {

void OriginMap::add_host(const std::string& host, const IpAddress& ip) {
  host_to_ip_[host] = ip;
  servers_.try_emplace(ip);
}

void OriginMap::generate_certificates() {
  for (auto& [ip, cert] : servers_) cert.san_hosts.clear();
  for (const auto& [host, ip] : host_to_ip_) {
    servers_[ip].san_hosts.insert(host);
  }
}

void OriginMap::set_certificate(const IpAddress& ip, Certificate cert) {
  servers_[ip] = std::move(cert);
}

IpAddress OriginMap::ip_of(const std::string& host) const {
  const auto it = host_to_ip_.find(host);
  return it == host_to_ip_.end() ? IpAddress{} : it->second;
}

bool OriginMap::can_coalesce(const std::string& connected_host,
                             const std::string& other_host) const {
  const auto a = host_to_ip_.find(connected_host);
  const auto b = host_to_ip_.find(other_host);
  if (a == host_to_ip_.end() || b == host_to_ip_.end()) return false;
  if (a->second != b->second) return false;  // DNS check: IPs must match
  const auto cert = servers_.find(a->second);
  if (cert == servers_.end()) return false;
  return cert->second.san_hosts.count(other_host) != 0;  // cert check
}

bool OriginMap::is_authoritative(const std::string& serving_host,
                                 const std::string& pushed_host) const {
  if (serving_host == pushed_host) return true;
  return can_coalesce(serving_host, pushed_host);
}

std::map<std::string, std::size_t> OriginMap::coalescing_groups(
    const std::string& primary_host) const {
  // Group key: (ip, certificate identity). With generated certificates the
  // relation is an equivalence (all hosts on an IP share the cert).
  std::map<IpAddress, std::size_t> ip_group;
  std::map<std::string, std::size_t> out;
  std::size_t next = 1;
  const IpAddress primary_ip = ip_of(primary_host);
  if (!primary_ip.empty()) ip_group[primary_ip] = 0;
  for (const auto& [host, ip] : host_to_ip_) {
    auto [it, inserted] = ip_group.try_emplace(ip, next);
    if (inserted) ++next;
    // A host whose cert does not include it cannot join the shared
    // connection; give it a singleton group.
    const auto cert = servers_.find(ip);
    const bool covered =
        cert != servers_.end() && cert->second.san_hosts.count(host) != 0;
    if (covered) {
      out[host] = it->second;
    } else {
      out[host] = next++;
    }
  }
  return out;
}

const Certificate* OriginMap::certificate_of(const IpAddress& ip) const {
  const auto it = servers_.find(ip);
  return it == servers_.end() ? nullptr : &it->second;
}

std::vector<IpAddress> OriginMap::all_ips() const {
  std::vector<IpAddress> out;
  out.reserve(servers_.size());
  for (const auto& [ip, cert] : servers_) out.push_back(ip);
  return out;
}

std::vector<std::string> OriginMap::hosts_on_ip(const IpAddress& ip) const {
  std::vector<std::string> out;
  for (const auto& [host, hip] : host_to_ip_) {
    if (hip == ip) out.push_back(host);
  }
  return out;
}

}  // namespace h2push::replay
