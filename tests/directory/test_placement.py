"""The §5.2.1 app-id convention: minting and home-server resolution."""

from repro.directory import home_server_of, make_app_id


def test_prefix_placement_roundtrip():
    app_id = make_app_id("rutgers", 7)
    assert app_id == "rutgers#a7"
    assert home_server_of(app_id) == "rutgers"
    # server names containing no separator roundtrip for any seq
    for server in ("s0", "caltech", "ut-austin"):
        for seq in (0, 1, 42):
            assert home_server_of(make_app_id(server, seq)) == server
