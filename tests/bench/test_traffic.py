"""The declarative traffic stream: the Zipf app mix E11's flatness
finding rests on."""

from collections import Counter

from repro.bench.traffic import TrafficSpec, constant, session_plans

APPS = [f"app{rank}" for rank in range(1, 11)]


def zipf_picks(seed: int) -> list:
    """10 000 app draws: 5 000 sessions of two locates each."""
    spec = TrafficSpec(total_sessions=5000, duration=100.0,
                       ops_per_session=constant(2), app_mix="zipf",
                       zipf_s=1.1, seed=seed)
    return [app for _gap, plan in session_plans(spec, ["u"], APPS, ["s"])
            for app in plan.apps]


def test_zipf_mix_gives_rank_one_its_share():
    """Rank 1 draws 1 / H(10, 1.1) of the picks, to within 0.02 (about four
    standard deviations of a 10 000-draw share near 0.34)."""
    picks = zipf_picks(seed=3)
    harmonic = sum(1.0 / rank ** 1.1 for rank in range(1, 11))
    counts = Counter(picks)
    assert len(picks) == 10_000
    assert abs(counts["app1"] / len(picks) - 1.0 / harmonic) < 0.02
    assert counts["app1"] > counts["app2"] > counts["app10"]


def test_zipf_mix_same_seed_same_picks():
    assert zipf_picks(seed=3) == zipf_picks(seed=3)
    assert zipf_picks(seed=3) != zipf_picks(seed=4)
