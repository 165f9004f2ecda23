"""Operating a large server network — the paper's §6.3 hardening features.

Eight collaboratory domains run with the three mechanisms §6.3 proposes or
sketches, all implemented in this reproduction:

1. **GIS-style user directory** — login is one directory lookup instead of
   authenticating against all 7 peers (compare the two timings printed).
2. **Resource accounting & access policies** — every peer's ORB traffic is
   tracked, and one overly chatty server is throttled to a request budget.
3. **Poll-mode updates** — the literal "CorbaProxy objects poll each
   other" design, enabled per deployment for comparison.

Run:  python examples/grid_operations.py
"""

from repro import AppConfig, build_collaboratory
from repro.apps import SyntheticApp
from repro.core.policies import ResourcePolicy
from repro.orb import RemoteException
from repro.pipeline import PLANE_ORB

N_DOMAINS = 8


def cfg():
    return AppConfig(steps_per_phase=4, step_time=0.02,
                     interaction_window=0.05)


def timed_login(collab, domain, user):
    portal = collab.add_portal(domain)

    def go():
        t0 = collab.sim.now
        apps = yield from portal.login(user)
        return (collab.sim.now - t0, len(apps))

    return collab.sim.run(until=collab.sim.spawn(go()))


def main() -> None:
    # --- 1. directory vs fan-out login ---------------------------------
    results = {}
    for use_directory in (False, True):
        collab = build_collaboratory(
            N_DOMAINS, apps_hosts_per_domain=1, client_hosts_per_domain=1,
            use_directory=use_directory)
        collab.run_bootstrap()
        for d in range(N_DOMAINS):
            collab.add_app(d, SyntheticApp, f"app-{d}",
                           acl={"operator": "write"}, config=cfg())
        collab.sim.run(until=collab.sim.now + 3.0)
        latency, n_apps = timed_login(collab, 0, "operator")
        mode = "directory" if use_directory else "fan-out "
        results[mode] = (latency, n_apps)
        print(f"login via {mode}: {latency * 1e3:6.1f} ms, "
              f"{n_apps} apps listed network-wide")
        if use_directory:
            directory_collab = collab
    assert results["directory"][1] == results["fan-out "][1]
    print(f"directory speedup: "
          f"{results['fan-out '][0] / results['directory'][0]:.1f}x\n")

    # --- 2. accounting + throttling a chatty peer ------------------------
    collab = directory_collab
    s0 = collab.server_of(0)
    s1 = collab.server_of(1)
    s0.policies.set_policy(s1.host.name,
                           ResourcePolicy(max_requests_per_s=2.0,
                                          burst_seconds=1.0))

    def chatty_peer():
        ok, denied = 0, 0
        for _ in range(10):
            try:
                yield from s1.orb.invoke(s1.peers[s0.name],
                                         "get_active_applications")
                ok += 1
            except RemoteException as exc:
                assert exc.exc_type == "PolicyViolation"
                denied += 1
        return ok, denied

    ok, denied = collab.sim.run(until=collab.sim.spawn(chatty_peer()))
    # the tracking §6.3 found missing is the deployment's cost ledger:
    # a shed request is one of its requests and one of its errors
    chatty = [vec for (principal, _app, plane, operation), vec
              in s0.ledger.entries.items()
              if (principal, plane, operation)
              == (s1.host.name, PLANE_ORB, "get_active_applications")]
    requests = sum(vec.requests for vec in chatty)
    errors = sum(vec.errors for vec in chatty)
    assert (requests, errors) == (ok + denied, denied)
    print(f"chatty peer throttled: {ok} admitted, {denied} rejected "
          f"(ledger: {requests} requests, {errors} errors)")
    top = ", ".join(f"{name}={count}"
                    for name, count, _ in s0.ledger.top("requests", 3))
    print(f"busiest principals in the cost ledger: {top}\n")

    # --- 3. poll-mode updates --------------------------------------------
    poll_collab = build_collaboratory(
        2, apps_hosts_per_domain=1, client_hosts_per_domain=1,
        update_mode="poll", update_poll_interval=0.4)
    poll_collab.run_bootstrap()
    app = poll_collab.add_app(1, SyntheticApp, "polled-app",
                              acl={"operator": "write"}, config=cfg())
    poll_collab.sim.run(until=poll_collab.sim.now + 3.0)
    portal = poll_collab.add_portal(0)

    def watch():
        yield from portal.login("operator")
        yield from portal.open(app.app_id)
        yield portal.sim.timeout(4.0)
        yield from portal.poll(max_items=64)
        return len(portal.updates)

    n = poll_collab.sim.run(until=poll_collab.sim.spawn(watch()))
    home = poll_collab.server_of(1)
    print(f"poll-mode: {n} updates delivered across the WAN with "
          f"{home.stats['remote_update_pushes']} pushes "
          f"(the subscriber polled instead)")
    assert home.stats["remote_update_pushes"] == 0
    assert n >= 2


if __name__ == "__main__":
    main()
