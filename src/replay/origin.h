// Origin → IP mapping, TLS certificates, and HTTP/2 connection coalescing.
//
// Mahimahi spawns one local server per recorded IP inside network
// namespaces; the paper extends it to generate, per server, a certificate
// whose Subject Alternative Names cover every domain hosted on that IP
// (§4.1). A browser may then coalesce traffic for origin B onto an existing
// connection to origin A iff (i) B appears in A's certificate SANs and
// (ii) DNS resolves B to the connected IP — the two checks Chromium
// performs. Push authority follows the same rule: a server may only push
// URLs whose host it is authoritative for (RFC 7540 §10.1).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace h2push::replay {

using IpAddress = std::string;  // synthetic dotted-quad identifiers

struct Certificate {
  std::set<std::string> san_hosts;
};

class OriginMap {
 public:
  /// Declare that `host` resolves to `ip`.
  void add_host(const std::string& host, const IpAddress& ip);

  /// Regenerate certificates the way the paper's modified Mahimahi does:
  /// each server's certificate lists every host that resolves to its IP.
  void generate_certificates();

  /// Override a server's certificate (used to model real-world certs that
  /// do NOT cover co-hosted third parties).
  void set_certificate(const IpAddress& ip, Certificate cert);

  IpAddress ip_of(const std::string& host) const;  // empty if unknown

  /// Chromium's coalescing rule: can a connection to `connected_host`'s
  /// server also carry requests for `other_host`?
  bool can_coalesce(const std::string& connected_host,
                    const std::string& other_host) const;

  /// May the server for `serving_host` push a resource on `pushed_host`?
  bool is_authoritative(const std::string& serving_host,
                        const std::string& pushed_host) const;

  /// Partition all known hosts into coalescing groups; hosts in the same
  /// group share one connection. Returns group index per host; group 0 is
  /// the one containing `primary_host` (if known).
  std::map<std::string, std::size_t> coalescing_groups(
      const std::string& primary_host) const;

  std::vector<IpAddress> all_ips() const;
  std::vector<std::string> hosts_on_ip(const IpAddress& ip) const;
  std::size_t server_count() const { return servers_.size(); }

  /// The server certificate for `ip`, or null if unknown. Exposes the SAN
  /// set so the run-memoization cache can hash coalescing/push authority
  /// into its key (certificates can be overridden per IP, so they are not
  /// derivable from the host→IP map alone).
  const Certificate* certificate_of(const IpAddress& ip) const;

 private:
  std::map<std::string, IpAddress> host_to_ip_;
  std::map<IpAddress, Certificate> servers_;
};

}  // namespace h2push::replay
