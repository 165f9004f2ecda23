"""Ids belong to the simulation.

Every id a run puts on the wire — frames, processes, messages, HTTP
requests and sessions, ports, trader offers, jobs — is drawn from the
:class:`~repro.sim.Simulator` that the drawing code holds
(``sim.next_id(kind)``), one sequence per kind.  So two simulations in one
process number alike however their work interleaves, and ``src/repro``
keeps no counter at module level for a run to inherit from the last.
"""

import ast
from pathlib import Path

from repro.net import Network
from repro.sim import Simulator
from repro.web import HttpClient, Servlet, ServletContainer
from repro.wire import CommandMessage

SRC = Path(__file__).resolve().parents[1] / "src"


class IdServlet(Servlet):
    def do_get(self, request, session):
        return {"request_id": request.request_id,
                "session": session.session_id}


def web_site():
    """One simulation: a servlet container on ``www`` and two HTTP clients
    on ``browser``, each client on a port of its own."""
    sim = Simulator()
    net = Network(sim)
    net.add_host("www")
    net.add_host("browser")
    net.add_link("www", "browser", 0.001)
    ServletContainer(net.hosts["www"]).mount("/ids", IdServlet())
    clients = [HttpClient(net.hosts["browser"], "www") for _ in range(2)]
    net.hosts["www"].bind(9)
    return sim, net, clients


def step(site, index, log):
    """One raw frame carrying a command, then one HTTP GET in a process of
    its own; appends every id the step drew to ``log``."""
    sim, net, clients = site
    client = clients[index % 2]
    cmd = CommandMessage("get_param", msg_id=sim.next_id("msg"))
    frame = net.send("browser", 1, "www", 9, cmd)

    def browse():
        body = yield from client.get("/ids")
        log.append((client.endpoint.port, cmd.msg_id, cmd.request_id,
                    frame.frame_id, proc.pid, body["request_id"],
                    body["session"]))

    proc = sim.spawn(browse())
    sim.run(until=sim.now + 1.0)


def test_two_simulations_in_one_process_number_their_ids_alike():
    sites, logs = (web_site(), web_site()), ([], [])
    for index in range(3):
        for site, log in zip(sites, logs):  # the two runs interleave
            step(site, index, log)
    # a command's request id defaults to its message id; the frame ids
    # skip the GET's request and response, the pids the container's
    # handler process; the first client's second GET keeps its session
    assert logs[0] == logs[1] == [
        (40000, 1, 1, 1, 1, 1, "JSESSIONID-1"),
        (40001, 2, 2, 4, 3, 2, "JSESSIONID-2"),
        (40000, 3, 3, 7, 5, 3, "JSESSIONID-1"),
    ]


def counters_made_at_import(source: str):
    """Line numbers of the ``itertools.count(...)`` / ``count(...)`` calls
    that run when the module is imported: anywhere but a function body."""
    tree = ast.parse(source)
    in_bodies = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for statement in fn.body for node in ast.walk(statement)}
    return sorted(call.lineno for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and id(call) not in in_bodies
                  and ast.unparse(call.func) in ("itertools.count", "count"))


def test_no_module_level_counter_in_src():
    assert counters_made_at_import("""\
_ids = itertools.count(1)
if True:
    _ports = iter(count(20000))
class Orb:
    _shared = itertools.count(1)
    def __init__(self, ids=count()):
        self._req_seq = itertools.count(1)
""") == [1, 3, 5, 6]  # the instance's own sequence passes
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted((SRC / "repro").rglob("*.py"))
             if "count(" in (text := path.read_text())
             for line in counters_made_at_import(text)]
    assert found == [], ("process-global id counters (draw ids from the "
                         f"simulation, sim.next_id): {found}")
