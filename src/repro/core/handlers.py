"""The server's servlets — the paper's core service handlers (§4.1).

- ``/master`` — the Master (accepter/controller) servlet: "the client's
  gateway to the server"; login/logout, application listing, selection.
- ``/command`` — the Command servlet: steering commands and lock protocol.
- ``/collab`` — the Collaboration servlet: poll (the HTTP pull of §6.2),
  groups, chat, whiteboard, shared views, collaboration mode.
- ``/archive`` — the session-archival handler: replay and latecomer
  catch-up (§5.2.5).

Middleware exceptions raised here propagate to the container's request
pipeline, where the shared
:class:`~repro.pipeline.interceptors.ErrorEnvelopeInterceptor` maps them
to uniform HTTP error payloads: SecurityError → 403, LockError → 409,
unknown ids (CollaborationError) → 404, peer failures (OrbError) → 500,
missing/bad parameters (KeyError/ValueError) → 400.  The one mapping kept
local is login: a failed *authentication* is 401, where every other
SecurityError is an *authorization* failure (403).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.collaboration import DEFAULT_GROUP
from repro.core.security import SecurityError
from repro.web.http import BAD_REQUEST, UNAUTHORIZED
from repro.web.servlet import Servlet
from repro.wire import ChatMessage, UpdateMessage, WhiteboardMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import DiscoverServer


def mount_all(server: "DiscoverServer") -> None:
    """Mount the full DISCOVER servlet suite on the server's container."""
    server.container.mount("/master", MasterServlet(server))
    server.container.mount("/command", CommandServlet(server))
    server.container.mount("/collab", CollaborationServlet(server))
    server.container.mount("/archive", ArchiveServlet(server))
    server.container.mount("/status", StatusServlet(server))


class DiscoverServlet(Servlet):
    """Base: holds the server; error mapping lives in the pipeline.

    A request names only its own client.  A client id is sequential
    (``<server>:cN``), so on every servlet the ``client_id`` a request
    names must be the one its own HTTP session logged in — or be bound to
    no session at all: it is already gone, or it was recovered after a
    restart (cookies are not journalled) and must keep working and still
    be able to leave.  Anything else is a SecurityError, 403 through the
    envelope.
    """

    def __init__(self, server: "DiscoverServer") -> None:
        self.server = server

    def service(self, request, session):
        client_id = request.params.get("client_id")
        if client_id is not None:
            owner = self.server.http_sessions.get(client_id)
            if owner not in (None, session.session_id):
                raise SecurityError(f"client {client_id!r} was logged in "
                                    "by another HTTP session")
        return super().service(request, session)


class MasterServlet(DiscoverServlet):
    """Login, logout, application listing, and selection."""

    def do_post(self, request, session):
        action = request.path.rsplit("/", 1)[-1]
        p = request.params
        if action == "login":
            return self._login(p, session)
        if action == "logout":
            return self._logout(p["client_id"], session)
        if action == "select":
            return self._select(p)
        return (BAD_REQUEST, {"error": f"unknown action {action!r}"})

    def _login(self, p, http_session):
        try:
            client_id = yield from self.server.client_login(
                p["user"], p.get("password", ""))
        except SecurityError as exc:
            # Authentication (not authorization) failure — 401, where the
            # pipeline envelope's generic SecurityError mapping is 403.
            return (UNAUTHORIZED, {"error": str(exc)})
        http_session.set("client_id", client_id)
        self.server.http_sessions[client_id] = http_session.session_id
        return {"client_id": client_id,
                "server": self.server.name,
                "apps": self.server.list_applications(client_id)}

    def _logout(self, client_id, http_session):
        self.server.client_logout(client_id)
        if http_session.get("client_id") == client_id:
            del http_session.attributes["client_id"]
        return {"ok": True}

    def _select(self, p):
        info = yield from self.server.select_app(p["client_id"],
                                                 p["app_id"])
        return info

    def do_get(self, request, session):
        action = request.path.rsplit("/", 1)[-1]
        p = request.params
        if action == "apps":
            return {"apps": self.server.list_applications(p["client_id"])}
        if action == "users":
            return {"users": self.server.corba_servant.get_users()}
        return (BAD_REQUEST, {"error": f"unknown action {action!r}"})


class CommandServlet(DiscoverServlet):
    """Steering commands and the lock protocol."""

    def do_post(self, request, session):
        action = request.path.rsplit("/", 1)[-1]
        p = request.params
        if action == "submit":
            request_id = yield from self.server.submit_command(
                p["client_id"], p["app_id"], p["command"],
                p.get("args") or {})
            return {"request_id": request_id}
        if action == "lock":
            return (yield from self._lock(p))
        if action == "schedule":
            schedule_id = self.server.schedule_interaction(
                p["client_id"], p["app_id"], p["command"],
                p.get("args") or {}, float(p.get("period", 1.0)),
                int(p["count"]) if "count" in p else None)
            return {"schedule_id": schedule_id}
        if action == "unschedule":
            stopped = self.server.cancel_schedule(p["client_id"],
                                                  p["schedule_id"])
            return {"stopped": stopped}
        return (BAD_REQUEST, {"error": f"unknown action {action!r}"})

    def _lock(self, p):
        op = p.get("action", "acquire")
        if op == "acquire":
            result = yield from self.server.acquire_lock(p["client_id"],
                                                         p["app_id"])
            return {"result": result}
        if op == "release":
            nxt = yield from self.server.release_lock(p["client_id"],
                                                      p["app_id"])
            return {"result": "released", "next_holder": nxt}
        return (BAD_REQUEST, {"error": f"unknown lock action {op!r}"})

    def do_get(self, request, session):
        action = request.path.rsplit("/", 1)[-1]
        p = request.params
        if action == "lock":
            holder = yield from self.server.lock_holder(p["app_id"])
            return {"holder": holder}
        return (BAD_REQUEST, {"error": f"unknown action {action!r}"})


class CollaborationServlet(DiscoverServlet):
    """Poll-and-pull delivery plus group/chat/whiteboard operations."""

    def do_get(self, request, session):
        action = request.path.rsplit("/", 1)[-1]
        p = request.params
        if action == "poll":
            msgs = self.server.poll_client(p["client_id"],
                                           int(p.get("max", 32)))
            return {"messages": msgs}
        if action == "members":
            return {"members": self.server.collab.members_of(
                p["app_id"], p.get("group", DEFAULT_GROUP))}
        return (BAD_REQUEST, {"error": f"unknown action {action!r}"})

    def do_post(self, request, session):
        action = request.path.rsplit("/", 1)[-1]
        p = request.params
        if action == "group":
            return self._group(p)
        if action == "mode":
            self.server.collab.set_collaboration(
                p["client_id"], bool(p["enabled"]))
            return {"ok": True}
        if action == "chat":
            return (yield from self._publish(
                p, ChatMessage(self._user(p), p["text"])))
        if action == "whiteboard":
            return (yield from self._publish(
                p, WhiteboardMessage(self._user(p), p["shape"],
                                     p.get("points", []))))
        if action == "share":
            return self._share(p)
        return (BAD_REQUEST, {"error": f"unknown action {action!r}"})

    def _user(self, p) -> str:
        return self.server.collab.session(p["client_id"]).user

    def _group(self, p):
        op = p.get("action", "join")
        if op == "join":
            self.server.collab.join_group(p["client_id"], p["app_id"],
                                          p["group"])
        elif op == "leave":
            self.server.collab.leave_group(p["client_id"], p["app_id"],
                                           p["group"])
        else:
            return (BAD_REQUEST, {"error": f"unknown group action {op!r}"})
        return {"ok": True, "members": self.server.collab.members_of(
            p["app_id"], p["group"])}

    def _publish(self, p, msg):
        delivered = yield from self.server.publish_group(
            p["client_id"], p["app_id"], p.get("group", DEFAULT_GROUP), msg)
        return {"delivered": delivered}

    def _share(self, p):
        """Explicit view share — works with collaboration disabled (§4.1)."""
        view = UpdateMessage(payload=p.get("view"),
                             client_id=p["client_id"])
        view.app_id = p["app_id"]
        delivered = self.server.collab.share_view(
            p["client_id"], p["app_id"], p.get("group", DEFAULT_GROUP), view)
        return {"delivered": delivered}


class StatusServlet(DiscoverServlet):
    """The live health/SLO surface of one server (the operator's view).

    - ``GET /status`` — fleet statuses, active alerts, SLO compliance
    - ``GET /status?format=prom`` — the whole metrics registry + health
      gauges in Prometheus text format (the scrape endpoint), including
      ``_bucket``/``_sum``/``_count`` histogram families from the
      time-series store
    - ``GET /status/app?app_id=...`` — one application's health detail
    - ``GET /status/alerts`` — full alert history (fire/resolve records)
    - ``GET /status/timeseries`` — the sim-time telemetry store: series
      summaries, or one series' buckets with
      ``?series=...[&start=..][&end=..][&q=..]``
    - ``GET /status/costs`` — the cost-attribution ledger: global totals,
      per-(principal, app, plane, operation) entries, and per-dimension
      heavy hitters (``?top=N`` bounds the ranking's length;
      ``format=prom`` renders the totals as exposition text)

    Served through the standard interceptor pipeline like every other
    servlet, so status requests are themselves metered, traced, and
    access-controlled.
    """

    def do_get(self, request, session):
        p = request.params
        health = self.server.health
        action = request.path.rsplit("/", 1)[-1]
        if action == "costs":
            return self._costs(p)
        if p.get("format") == "prom":
            from repro.health import to_prometheus
            return to_prometheus(self.server.metrics_registry(),
                                 monitor=health,
                                 timeseries=self.server.timeseries,
                                 instance=self.server.name)
        if action == "timeseries":
            return self._timeseries(p)
        if action == "app":
            return self._app_detail(p["app_id"])
        if action == "alerts":
            return {"server": self.server.name,
                    "active": [a.to_record() for a in health.alerts.active()],
                    "history": [a.to_record()
                                for a in health.alerts.history()]}
        snap = health.snapshot()
        return {"server": self.server.name,
                "time": self.server.sim.now,
                "health": {"counts": snap["counts"],
                           "components": snap["components"],
                           "fleet": health.fleet_view()},
                "slo": health.slos.compliance(),
                "alerts": [a.to_record() for a in health.alerts.active()]}

    def _timeseries(self, p):
        """The time-series store over HTTP: summaries or one range dump."""
        ts = self.server.timeseries
        if ts is None:
            return {"server": self.server.name, "timeseries": "disabled"}
        name = p.get("series")
        if name is None:
            series = {}
            for sname in ts.names():
                kind = ts.kind(sname)
                entry = {"kind": kind}
                if kind == "histogram":
                    entry.update(ts.histogram_summary(sname))
                else:
                    entry["sum"] = ts.query(sname, "sum")
                    entry["last"] = ts.query(sname, "instant")
                series[sname] = entry
            return {"server": self.server.name,
                    "time": self.server.sim.now,
                    "bucket_width": ts.bucket_width,
                    "series": series}
        start = float(p["start"]) if "start" in p else None
        end = float(p["end"]) if "end" in p else None
        q = float(p.get("q", 0.99))
        return {"server": self.server.name,
                "series": name,
                "kind": ts.kind(name),
                "points": ts.query(name, "points", start=start, end=end,
                                   q=q)}

    def _costs(self, p):
        """The cost-attribution ledger over HTTP — the operator's
        "who is spending what" view."""
        ledger = self.server.ledger
        if ledger is None:
            return {"server": self.server.name, "accounting": "disabled"}
        if p.get("format") == "prom":
            from repro.health import to_prometheus
            from repro.obs import MetricsRegistry
            registry = MetricsRegistry()
            registry.register(f"costs[{self.server.name}]", ledger)
            return to_prometheus(registry, instance=self.server.name)
        top = int(p["top"]) if "top" in p else None
        snap = ledger.snapshot(top=top)
        snap["server"] = self.server.name
        snap["time"] = self.server.sim.now
        return snap

    def _app_detail(self, app_id):
        health = self.server.health
        proxy = self.server.local_proxies.get(app_id)
        detail = {"server": self.server.name, "app_id": app_id,
                  "status": health.status_of(health.app_key(app_id))}
        if proxy is not None:
            detail.update({
                "name": proxy.app_name, "active": proxy.active,
                "phase": proxy.phase,
                "commands_forwarded": proxy.commands_forwarded,
                "commands_buffered": proxy.commands_buffered,
                "updates_received": proxy.updates_received,
            })
        return detail


class ArchiveServlet(DiscoverServlet):
    """Replay and latecomer catch-up over the two archival logs."""

    def do_get(self, request, session):
        action = request.path.rsplit("/", 1)[-1]
        p = request.params
        if action == "interactions":
            records = yield from self.server.replay_interactions(
                p["client_id"], p["app_id"],
                float(p.get("since", 0.0)),
                int(p["limit"]) if "limit" in p else None)
            return {"records": records}
        if action == "applog":
            records = yield from self.server.replay_app_log(
                p["client_id"], p["app_id"],
                float(p.get("since", 0.0)),
                int(p["limit"]) if "limit" in p else None)
            return {"records": records}
        if action == "catchup":
            records = yield from self.server.latecomer_catchup(
                p["client_id"], p["app_id"], int(p.get("n", 20)))
            return {"records": records}
        return (BAD_REQUEST, {"error": f"unknown action {action!r}"})
