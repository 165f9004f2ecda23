"""Topology builders for the scenarios the paper deploys.

The paper's deployment (§6.1/§7) is a set of *collaboratory domains* —
Rutgers, UT-Austin (CSM), Caltech (CACR) — each a campus LAN with one
DISCOVER server, applications on local compute hosts, and clients nearby,
joined by WAN links.  :func:`build_multi_domain` reproduces that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.net.costs import LinkSpec
from repro.net.network import Network

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim import Simulator


@dataclass
class Domain:
    """One collaboratory domain: a server host plus LAN neighbours."""

    name: str
    server: "Host"
    app_hosts: List["Host"] = field(default_factory=list)
    client_hosts: List["Host"] = field(default_factory=list)
    router: Optional["Host"] = None


def build_lan(sim: "Simulator", net: Network, domain: str, n_app_hosts: int,
              n_client_hosts: int, spec: Optional[LinkSpec] = None,
              server_cpus: int = 1) -> Domain:
    """One campus LAN: a server, app hosts, and client hosts on a switch.

    The "switch" is modeled as direct server<->host links at LAN latency —
    campus backbones are never the bottleneck in the paper's story, the
    server CPU is.
    """
    spec = spec or LinkSpec()
    server = net.add_host(f"{domain}-server", cpu_capacity=server_cpus,
                          domain=domain)
    dom = Domain(name=domain, server=server)
    for i in range(n_app_hosts):
        h = net.add_host(f"{domain}-app{i}", domain=domain)
        net.add_link(server.name, h.name, spec.lan_latency,
                     spec.lan_bandwidth, kind="lan")
        dom.app_hosts.append(h)
    for i in range(n_client_hosts):
        h = net.add_host(f"{domain}-client{i}", domain=domain)
        net.add_link(server.name, h.name, spec.lan_latency,
                     spec.lan_bandwidth, kind="lan")
        dom.client_hosts.append(h)
    return dom


def build_multi_domain(sim: "Simulator", n_domains: int, apps_per_domain: int,
                       clients_per_domain: int,
                       spec: Optional[LinkSpec] = None,
                       server_cpus: int = 1,
                       names: Optional[List[str]] = None) -> tuple:
    """Several domains joined pairwise by WAN links (full mesh of servers).

    Returns ``(network, [Domain, ...])``.  Server-to-server links are marked
    ``kind="wan"`` so the traffic trace can isolate inter-domain traffic.
    """
    if n_domains < 1:
        raise ValueError("need at least one domain")
    net = Network(sim)
    if names is None:
        names = [f"d{i}" for i in range(n_domains)]
    if len(names) != n_domains:
        raise ValueError("names must match n_domains")
    spec = spec or LinkSpec()
    domains = [build_lan(sim, net, name, apps_per_domain, clients_per_domain,
                         spec, server_cpus) for name in names]
    for i in range(n_domains):
        for j in range(i + 1, n_domains):
            net.add_link(domains[i].server.name, domains[j].server.name,
                         spec.wan_latency, spec.wan_bandwidth, kind="wan")
    return net, domains

