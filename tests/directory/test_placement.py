"""The pluggable Placement abstraction and its process-wide façade."""

from repro.directory import (
    Placement,
    PrefixPlacement,
    get_placement,
    home_server_of,
    make_app_id,
    set_placement,
)


def test_prefix_placement_roundtrip():
    p = PrefixPlacement()
    app_id = p.make_app_id("rutgers", 7)
    assert app_id == "rutgers#a7"
    assert p.home_of(app_id) == "rutgers"
    # server names containing no separator roundtrip for any seq
    for server in ("s0", "caltech", "ut-austin"):
        for seq in (0, 1, 42):
            assert p.home_of(p.make_app_id(server, seq)) == server


class _SuffixPlacement(Placement):
    """Inverted convention, to prove the façade really delegates."""

    def home_of(self, app_id: str) -> str:
        return app_id.rsplit("@", 1)[1]

    def make_app_id(self, server: str, seq: int) -> str:
        return f"a{seq}@{server}"


def test_set_placement_swaps_the_facade():
    original = get_placement()
    previous = set_placement(_SuffixPlacement())
    try:
        assert previous is original
        assert make_app_id("s9", 3) == "a3@s9"
        assert home_server_of("a3@s9") == "s9"
    finally:
        set_placement(original)
    assert home_server_of("s9#a3") == "s9"

